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
import math
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
# Values checked for finiteness at a time when a model loads, so the check's
# mask stays at 64 KB instead of 19 MB for the benchmark's class matrix.
_FINITE_CHECK_SIZE = 2 ** 16
# Most feature hashes a model keeps; the cache is cleared before it would grow
# past this.  The benchmark's stat workloads reach about 16k.
HASH_CACHE_SIZE = 2 ** 16


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
        distinct = {f for feats in features for f in feats}
        missing = distinct.difference(cache)
        if len(cache) + len(missing) > HASH_CACHE_SIZE:
            cache.clear()
            missing = distinct
            if len(distinct) > HASH_CACHE_SIZE:
                cache = {}  # this sentence alone would overfill the model's cache
        for feat in missing:
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
        """Read a model file; a malformed one raises ``ValueError``."""
        with open(path, "rb") as fh:
            magic = fh.readline()
            if magic != _MAGIC:
                raise ValueError(f"not a stat tagger model file: {magic!r}")
            meta = json.loads(fh.readline().decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError(f"{path}: model meta must be a JSON object")
            n_classes = _meta_int(meta, "n_classes", path, 1)
            hash_seed = _meta_int(meta, "hash_seed", path, 0, 2 ** 64)  # 8 key bytes
            dim = _meta_int(meta, "dim", path, 1)
            vocab_sha256 = meta.get("vocab_sha256", "")
            if not isinstance(vocab_sha256, str):
                raise ValueError(f"{path}: model meta vocab_sha256 must be a string")
            cls_weights = _load_array(fh, "cls_weights", (dim, n_classes), path)
            cls_bias = _load_array(fh, "cls_bias", (n_classes,), path)
            det_weights = _load_array(fh, "det_weights", (dim,), path)
            det_bias = _load_array(fh, "det_bias", (), path)
        model = cls(n_classes, hash_seed, dim, vocab_sha256)
        model.cls_weights = cls_weights
        model.cls_bias = cls_bias
        model.det_weights = det_weights
        model.det_bias = float(det_bias)
        return model


def _meta_int(meta: dict, key: str, path, low: int, high: float = math.inf) -> int:
    value = meta.get(key)
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"{path}: model meta {key} must be an integer in [{low}, {high}), "
                         f"got {value!r}")
    return value


def _load_array(fh, name: str, shape: tuple[int, ...], path) -> np.ndarray:
    try:
        array = np.load(fh)
    except EOFError as exc:
        raise ValueError(f"{path}: model file ends before {name}") from exc
    if not isinstance(array, np.ndarray):  # an .npz header gives an archive
        raise ValueError(f"{path}: {name} is not an array")
    if array.dtype != np.float64 or array.shape != shape:
        raise ValueError(f"{path}: {name} must be float64 of shape {shape}, "
                         f"got {array.dtype} of shape {array.shape}")
    flat = array.ravel(order="K")  # a view: np.load returns a contiguous array
    for start in range(0, flat.size, _FINITE_CHECK_SIZE):
        if not np.isfinite(flat[start:start + _FINITE_CHECK_SIZE]).all():
            raise ValueError(f"{path}: {name} holds a non-finite value")
    return array


def stat_train(
    corpus: Iterable[tuple[TokenSeq, TokenSeq]],
    vocab: TagVocabulary,
    epochs: int,
    learning_rate: float,
    seed: int,
    dim: int = DEFAULT_HASH_DIM,
    lexicon: VerbLexicon | None = None,
) -> StatTaggerModel:
    """Train both heads by SGD on cross-entropy; deterministic given the seed.

    ``dim`` and ``epochs`` must be at least 1 and ``learning_rate`` finite and
    positive; otherwise ``ValueError`` is raised before ``corpus`` is read.
    """
    if dim < 1 or epochs < 1:
        raise ValueError(f"dim and epochs must be >= 1, got dim={dim}, epochs={epochs}")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
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
