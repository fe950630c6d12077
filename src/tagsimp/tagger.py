"""Tagger backends: per-token edit detection and classification outputs.

Every backend produces, for each token of a sentence, the probability that
an edit exists there (detection head) and a distribution over the tag
vocabulary (classification head).  The oracle backend emits the gold
extracted tags as one-hot rows and exists to exercise the engine and tests
without any trained model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .align import extract_tags
from .apply import VerbLexicon
from .core import EditKind, TagVocabulary, TokenSeq
from .errors import InvariantViolation, ShapeMismatch

ROW_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TagPrediction:
    """Two-head output for one sentence.

    ``detect[i]`` is the probability an edit exists at token ``i``;
    ``dist[i]`` is a probability vector over vocabulary ids.
    """

    detect: np.ndarray
    dist: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "detect", np.asarray(self.detect, dtype=np.float64))
        object.__setattr__(self, "dist", np.asarray(self.dist, dtype=np.float64))
        if self.detect.ndim != 1 or self.dist.ndim != 2:
            raise ShapeMismatch("detect must be 1-d and dist 2-d")
        if self.detect.shape[0] != self.dist.shape[0]:
            raise ShapeMismatch(
                f"detect has {self.detect.shape[0]} rows, dist has {self.dist.shape[0]}"
            )
        # "Not within bounds" rejects NaN too; a NaN or inf in dist spoils its row sum.
        if not np.all((self.detect >= 0) & (self.detect <= 1)):
            raise InvariantViolation("detection probabilities outside [0, 1]")
        if self.dist.min(initial=0.0) < 0:
            raise InvariantViolation("negative probability in distribution row")
        sums = self.dist.sum(axis=1)
        bad = ~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE)
        if np.any(bad):
            raise InvariantViolation(
                f"distribution row {int(np.argmax(bad))} sums to {sums[bad][0]:.6f}"
            )

    def __len__(self) -> int:
        return int(self.detect.shape[0])


class TaggerBackend(Protocol):
    """Anything that can tag a batch of sentences."""

    def predict_batch(self, seqs: Sequence[TokenSeq]) -> list[TagPrediction]:
        ...


def oracle_predict(
    src: TokenSeq,
    tgt: TokenSeq,
    vocab: TagVocabulary,
    lexicon: VerbLexicon | None = None,
) -> TagPrediction:
    """Gold tags for the pair as one-hot rows; detection 1 wherever the tag edits."""
    tags = extract_tags(src, tgt, vocab=vocab, lexicon=lexicon)
    dist = np.zeros((len(tags), len(vocab)), dtype=np.float64)
    detect = np.zeros(len(tags), dtype=np.float64)
    for i, tag in enumerate(tags):
        dist[i, vocab.id_of(tag)] = 1.0
        if tag.kind is not EditKind.KEEP:
            detect[i] = 1.0
    return TagPrediction(detect=detect, dist=dist)


class OracleBackend:
    """Backend bound to one reference target.

    Whatever intermediate sentence the engine presents, it answers with the
    gold tags toward the fixed target, so iterating reproduces the target.
    """

    def __init__(
        self,
        target: TokenSeq,
        vocab: TagVocabulary,
        lexicon: VerbLexicon | None = None,
    ):
        self.target = target
        self.vocab = vocab
        self.lexicon = lexicon

    def predict_batch(self, seqs: Sequence[TokenSeq]) -> list[TagPrediction]:
        return [oracle_predict(seq, self.target, self.vocab, self.lexicon) for seq in seqs]


class CorpusOracleBackend:
    """Oracle over a fixed parallel corpus, looked up by exact source words.

    Sentences it has never seen (including intermediate states of later
    engine iterations) get all-KEEP predictions, so it behaves like a
    single-pass oracle over the corpus it was built from.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[TokenSeq, TokenSeq]],
        vocab: TagVocabulary,
        lexicon: VerbLexicon | None = None,
    ):
        self.targets = {src.words(): tgt for src, tgt in pairs}
        self.vocab = vocab
        self.lexicon = lexicon

    def predict_batch(self, seqs: Sequence[TokenSeq]) -> list[TagPrediction]:
        out = []
        for seq in seqs:
            target = self.targets.get(seq.words(), seq)
            out.append(oracle_predict(seq, target, self.vocab, self.lexicon))
        return out


def ensemble_combine(preds: Sequence[TagPrediction]) -> TagPrediction:
    """Elementwise mean of detection and of every distribution row.

    Taking the argmax of the averaged class-wise rows downstream realizes
    majority-style combination of the constituent models.
    """
    if not preds:
        raise ShapeMismatch("ensemble needs at least one prediction")
    first = preds[0]
    for p in preds[1:]:
        if p.detect.shape != first.detect.shape or p.dist.shape != first.dist.shape:
            raise ShapeMismatch("ensemble members disagree in shape")
    detect = np.mean([p.detect for p in preds], axis=0)
    dist = np.mean([p.dist for p in preds], axis=0)
    return TagPrediction(detect=detect, dist=dist)
