"""A desk-scale trainable tagger: two linear heads over shared hashed features.

The model mirrors the two-head shape the engine expects from any real
tagger: a binary edit-detection head and a softmax edit-classification head
over the tag vocabulary, both reading the same sparse hashed context
features (token identity, lowercased form, a +/-2 token window, prefixes
and suffixes up to three characters, and a sentinel marker).  Feature
hashing is seed-stable; collisions are accepted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

import numpy as np

from .align import extract_tags
from .apply import VerbLexicon
from .core import EditKind, TagVocabulary, TokenSeq
from .errors import EmptyCorpus
from .tagger import TagPrediction

DEFAULT_HASH_DIM = 2 ** 18
_PAD = "<pad>"
_MAGIC = b"tagsimp-stat-model v1\n"


def _hash_feature(name: str, seed: int, dim: int) -> int:
    digest = hashlib.blake2b(
        name.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little") % dim


def sentence_features(seq: TokenSeq) -> list[list[str]]:
    """Feature strings of every token position."""
    texts = [tok.text for tok in seq.tokens]
    padded = [_PAD, _PAD] + texts + [_PAD, _PAD]
    out = []
    for position, text in enumerate(texts):
        feats = [f"w={text}", f"lw={text.lower()}"]
        for offset in (-2, -1, 1, 2):
            feats.append(f"w{offset:+d}={padded[position + 2 + offset]}")
        for k in range(1, 4):
            if len(text) >= k:
                feats.append(f"pre{k}={text[:k]}")
                feats.append(f"suf{k}={text[-k:]}")
        if seq.tokens[position].is_start:
            feats.append("start")
        out.append(feats)
    return out


class StatTaggerModel:
    """Hashed-feature linear model with detection and classification heads."""

    def __init__(self, n_classes: int, hash_seed: int, dim: int = DEFAULT_HASH_DIM,
                 vocab_sha256: str = ""):
        self.n_classes = n_classes
        self.hash_seed = hash_seed
        self.dim = dim
        self.vocab_sha256 = vocab_sha256
        self.cls_weights = np.zeros((dim, n_classes), dtype=np.float64)
        self.cls_bias = np.zeros(n_classes, dtype=np.float64)
        self.det_weights = np.zeros(dim, dtype=np.float64)
        self.det_bias = 0.0
        self.epoch_losses: list[float] = []
        self._hash_cache: dict[str, int] = {}

    def _sentence_indices(self, seq: TokenSeq) -> list[list[int]]:
        cache = self._hash_cache
        features = sentence_features(seq)
        for feat in {f for feats in features for f in feats}.difference(cache):
            cache[feat] = _hash_feature(feat, self.hash_seed, self.dim)
        return [[cache[f] for f in feats] for feats in features]

    def _probs(self, features: Sequence[list[int]]) -> tuple[np.ndarray, np.ndarray]:
        """Detection probabilities and tag distributions of the tokens' features."""
        # Per-token summation order is fixed, so training and prediction agree
        # bit for bit: class rows are added one by one in feature order, as
        # ``cls_weights[idxs].sum(axis=0)`` adds them, and detection keeps one
        # ``det_weights[idxs].sum()`` per token.  reduceat and BLAS would reorder.
        weights = self.cls_weights
        dist = np.empty((len(features), self.n_classes))
        for row, idxs in zip(dist, features):
            row[:] = weights[idxs[0]]
            for h in idxs[1:]:
                row += weights[h]
        dist += self.cls_bias
        dist -= dist.max(axis=1, keepdims=True)
        np.exp(dist, out=dist)
        dist /= dist.sum(axis=1, keepdims=True)
        det = np.array([self.det_weights[idxs].sum() for idxs in features])
        det += self.det_bias
        with np.errstate(over="ignore"):  # exp(-det) overflows to inf, giving 0.0
            return 1.0 / (1.0 + np.exp(-det)), dist

    def predict_batch(self, seqs: Sequence[TokenSeq]) -> list[TagPrediction]:
        return [TagPrediction(*self._probs(self._sentence_indices(seq))) for seq in seqs]

    def save(self, path) -> None:
        meta = {
            "n_classes": self.n_classes,
            "hash_seed": self.hash_seed,
            "dim": self.dim,
            "vocab_sha256": self.vocab_sha256,
        }
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
            np.save(fh, self.cls_weights)
            np.save(fh, self.cls_bias)
            np.save(fh, self.det_weights)
            np.save(fh, np.float64(self.det_bias))

    @classmethod
    def load(cls, path) -> "StatTaggerModel":
        with open(path, "rb") as fh:
            magic = fh.readline()
            if magic != _MAGIC:
                raise ValueError(f"not a stat tagger model file: {magic!r}")
            meta = json.loads(fh.readline().decode("utf-8"))
            model = cls(
                n_classes=meta["n_classes"],
                hash_seed=meta["hash_seed"],
                dim=meta["dim"],
                vocab_sha256=meta.get("vocab_sha256", ""),
            )
            model.cls_weights = np.load(fh)
            model.cls_bias = np.load(fh)
            model.det_weights = np.load(fh)
            model.det_bias = float(np.load(fh))
        return model


def stat_train(
    corpus: Iterable[tuple[TokenSeq, TokenSeq]],
    vocab: TagVocabulary,
    epochs: int,
    learning_rate: float,
    seed: int,
    dim: int = DEFAULT_HASH_DIM,
    lexicon: VerbLexicon | None = None,
) -> StatTaggerModel:
    """Train both heads by SGD on cross-entropy; deterministic given the seed."""
    model = StatTaggerModel(
        n_classes=len(vocab), hash_seed=seed, dim=dim, vocab_sha256=vocab.sha256()
    )
    samples: list[tuple[list[int], int, float]] = []
    for src, tgt in corpus:
        tags = extract_tags(src, tgt, vocab=vocab, lexicon=lexicon)
        for tag, idxs in zip(tags, model._sentence_indices(src)):
            samples.append((idxs, vocab.id_of(tag), 0.0 if tag.kind is EditKind.KEEP else 1.0))
    if not samples:
        raise EmptyCorpus("stat_train needs a non-empty corpus")

    rng = np.random.default_rng(seed)
    order = np.arange(len(samples))
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for k in order:
            idxs, label, det_label = samples[k]
            det, dist = model._probs([idxs])
            det_p, probs = float(det[0]), dist[0]
            total += -np.log(max(probs[label], 1e-300))
            total += -np.log(max(det_p if det_label else 1.0 - det_p, 1e-300))

            probs[label] -= 1.0  # now the gradient
            step = -learning_rate * probs
            det_step = -learning_rate * (det_p - det_label)
            # In-order row adds: bitwise np.add.at, duplicate indices included.
            for h in idxs:
                model.cls_weights[h] += step
                model.det_weights[h] += det_step
            model.cls_bias += step
            model.det_bias += det_step
        model.epoch_losses.append(total / len(samples))
    return model
