"""Iterative inference: decode predictions into tags, apply, repeat.

Decoding applies the inference tweaks: additive confidence biases on the
KEEP and DELETE entries of every distribution row (unnormalized, since only
the argmax is consumed) and a sentence-level gate that suppresses all edits
when no position reaches the minimum edit probability.  The loop stops
early once a pass is gated, chooses all KEEP, or leaves the sentence
unchanged; none of these early exits can change the final output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .apply import VerbLexicon, apply_tags
from .core import EditKind, KEEP_TAG, TagSeq, TagVocabulary, TokenSeq, serialize_tag
from .errors import ShapeMismatch
from .tagger import TagPrediction, TaggerBackend

KEEP_ID = 0
DELETE_ID = 1


@dataclass(frozen=True)
class InferenceConfig:
    """Inference tweak settings plus the iteration cap."""

    keep_bias: float = 0.0
    delete_bias: float = 0.0
    min_edit_prob: float = 0.0
    max_iterations: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.max_iterations <= 5:
            raise ValueError("max_iterations must be in 1..5")
        # A NaN keep bias makes every argmax KEEP, and a NaN gate never fires.
        for name in ("keep_bias", "delete_bias", "min_edit_prob"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @classmethod
    def zero_tweaks(cls) -> "InferenceConfig":
        return cls(keep_bias=0.0, delete_bias=0.0, min_edit_prob=0.0, max_iterations=5)

    def to_text(self) -> str:
        return (
            f"keep_bias = {self.keep_bias!r}\n"
            f"delete_bias = {self.delete_bias!r}\n"
            f"min_edit_prob = {self.min_edit_prob!r}\n"
            f"max_iterations = {self.max_iterations}\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "InferenceConfig":
        values: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line is not key = value: {raw!r}")
            values[key.strip()] = value.strip()
        unknown = set(values) - {"keep_bias", "delete_bias", "min_edit_prob", "max_iterations"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            keep_bias=float(values.get("keep_bias", 0.0)),
            delete_bias=float(values.get("delete_bias", 0.0)),
            min_edit_prob=float(values.get("min_edit_prob", 0.0)),
            max_iterations=int(values.get("max_iterations", 5)),
        )


def decode_step(
    pred: TagPrediction, vocab: TagVocabulary, cfg: InferenceConfig
) -> tuple[TagSeq, bool]:
    """Choose one tag per token, or gate the whole sentence to KEEP."""
    if pred.dist.shape[1] != len(vocab):
        raise ShapeMismatch(
            f"dist rows have {pred.dist.shape[1]} entries for vocabulary of {len(vocab)}"
        )
    if float(pred.detect.max()) < cfg.min_edit_prob:
        return (KEEP_TAG,) * len(pred), True
    scores = pred.dist.copy()
    scores[:, KEEP_ID] += cfg.keep_bias
    scores[:, DELETE_ID] += cfg.delete_bias
    ids = np.argmax(scores, axis=1)  # ties resolve to the lower tag id
    return tuple(vocab.tag_of(int(i)) for i in ids), False


@dataclass(frozen=True)
class TraceStep:
    input: TokenSeq
    tags: TagSeq
    gated: bool
    output: TokenSeq


@dataclass
class SimplifyTrace:
    """Per-iteration record of what the engine did to one sentence."""

    steps: list[TraceStep] = field(default_factory=list)

    @property
    def output(self) -> TokenSeq:
        return self.steps[-1].output

    def replay(self, lexicon: VerbLexicon | None = None) -> TokenSeq:
        """Re-apply the traced tag sequences; must reproduce the output."""
        seq = self.steps[0].input
        for step in self.steps:
            seq = apply_tags(seq, step.tags, lexicon)
        return seq

    def to_dict(self) -> dict:
        return {
            "steps": [
                {
                    "input": list(step.input.words()),
                    "tags": [serialize_tag(t) for t in step.tags],
                    "gated": step.gated,
                    "output": list(step.output.words()),
                }
                for step in self.steps
            ]
        }


@dataclass
class BatchItem:
    """Result for one sentence of a batch: an output or the exception that stopped it."""

    output: TokenSeq | None = None
    trace: SimplifyTrace | None = None
    exception: Exception | None = None

    @property
    def error(self) -> str | None:
        exc = self.exception
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    @property
    def ok(self) -> bool:
        return self.exception is None


def _predict_resilient(
    backend: TaggerBackend, seqs: list[TokenSeq]
) -> list[TagPrediction | Exception]:
    """Batch predict; a failed call is retried per sentence, so errors attach per line.

    A call fails when it raises or returns the wrong number of predictions; a
    failed one-sentence call is its sentence's error and is not retried.
    """
    try:
        preds = list(backend.predict_batch(seqs))
        if len(preds) != len(seqs):
            raise ShapeMismatch(
                f"backend returned {len(preds)} predictions for a batch of {len(seqs)}"
            )
        return preds
    except Exception as exc:
        if len(seqs) == 1:
            return [exc]
    # Retried outside the handler, so no sentence's error chains the batch's.
    return [p for seq in seqs for p in _predict_resilient(backend, [seq])]


def simplify_batch(
    seqs: Sequence[TokenSeq],
    backend: TaggerBackend,
    vocab: TagVocabulary,
    cfg: InferenceConfig,
    parallelism: int = 1,
    lexicon: VerbLexicon | None = None,
) -> list[BatchItem]:
    """Simplify a batch in lockstep passes; output order is input order.

    Each pass is one backend call over the sentences still active, unless it
    fails.  A sentence's result does not depend on the rest of its batch,
    and its failure is recorded instead of aborting the batch.  Each prediction is
    dropped once decoded, so at most one pass of predictions is alive at a
    time.  ``parallelism`` must be at least 1 and splits nothing: in-process
    backends hold the GIL, and an external client serializes its requests.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    results = [BatchItem() for _ in seqs]
    traces = [SimplifyTrace() for _ in seqs]
    states: list[TokenSeq] = list(seqs)
    active = list(range(len(seqs)))

    for _ in range(cfg.max_iterations):
        if not active:
            break
        preds = _predict_resilient(backend, [states[i] for i in active])
        still_active = []
        for k, idx in enumerate(active):
            pred, preds[k] = preds[k], None  # free its rows once this loop moves on
            if isinstance(pred, Exception):
                results[idx].exception = pred
                continue
            try:
                n_rows, n_tokens = len(pred), len(states[idx])
                if n_rows != n_tokens:  # a gated pass never reaches apply_tags' length check
                    raise ShapeMismatch(f"prediction has {n_rows} rows for {n_tokens} tokens")
                tags, gated = decode_step(pred, vocab, cfg)
                out = states[idx] if gated else apply_tags(states[idx], tags, lexicon)
            except Exception as exc:
                results[idx].exception = exc
                continue
            traces[idx].steps.append(
                TraceStep(input=states[idx], tags=tags, gated=gated, output=out)
            )
            finished = gated or all(t.kind is EditKind.KEEP for t in tags) or out == states[idx]
            states[idx] = out
            if not finished:
                still_active.append(idx)
        pred = preds = None  # nothing of this pass is alive when the next one predicts
        active = still_active

    for i, item in enumerate(results):
        if item.ok:
            item.output = states[i]
            item.trace = traces[i]
    return results


def simplify(
    seq: TokenSeq,
    backend: TaggerBackend,
    vocab: TagVocabulary,
    cfg: InferenceConfig,
    lexicon: VerbLexicon | None = None,
) -> tuple[TokenSeq, SimplifyTrace]:
    """Tag-and-edit one sentence; raises what :func:`simplify_batch` records for it."""
    item = simplify_batch([seq], backend, vocab, cfg, lexicon=lexicon)[0]
    if item.exception is not None:
        raise item.exception
    return item.output, item.trace
