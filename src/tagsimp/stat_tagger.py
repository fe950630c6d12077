"""A desk-scale trainable tagger: two linear heads over shared hashed features.

The model mirrors the two-head shape the engine expects from any real
tagger: a binary edit-detection head and a softmax edit-classification head
over the tag vocabulary, both reading the same sparse hashed context
features (token identity, lowercased form, a +/-2 token window, prefixes
and suffixes up to three characters, and a sentinel marker).  Feature
hashing is seed-stable; collisions are accepted.

Only the hash buckets that training touched hold weights: the sorted
trained hashes give rows 0..k-1, and row k, which stays zero, serves every
other hash.  A feature's prediction is bitwise the one a dense
``(dim, n_classes)`` table would give, whose untouched rows stay +0.0.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .align import extract_tags
from .apply import VerbLexicon
from .core import EditKind, TagVocabulary, TokenSeq
from .errors import EmptyCorpus
from .tagger import TagPrediction

DEFAULT_HASH_DIM = 2 ** 18
_PAD = "<pad>"
_MAGIC = b"tagsimp-stat-model v2\n"
_MAGIC_V1 = b"tagsimp-stat-model v1\n"
# Longest magic or meta line a model file may have; a longer one is rejected
# after this many bytes are read, not after the whole file.
_HEADER_LINE_LIMIT = 4096
# Values checked for finiteness at a time when a model loads, so the check's
# mask stays at 64 KB instead of 15 MB for the benchmark's class rows.
_FINITE_CHECK_SIZE = 2 ** 16
# Most feature ids a hash cache keeps; the cache is cleared before it would grow
# past this.  The benchmark's stat workloads reach about 16k.
HASH_CACHE_SIZE = 2 ** 16


def _hash_feature(name: str, seed: int, dim: int) -> int:
    digest = hashlib.blake2b(
        name.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little") % dim


def _feature_ids(features: list[list[str]], cache: dict[str, int],
                 id_of: Callable[[str], int]) -> list[list[int]]:
    """Each feature's ``id_of`` through ``cache``, cleared before it would pass HASH_CACHE_SIZE."""
    distinct = {f for feats in features for f in feats}
    missing = distinct.difference(cache)
    if len(cache) + len(missing) > HASH_CACHE_SIZE:
        cache.clear()
        missing = distinct
        if len(distinct) > HASH_CACHE_SIZE:
            cache = {}  # this sentence alone would overfill the cache
    for feat in missing:
        cache[feat] = id_of(feat)
    return [[cache[f] for f in feats] for feats in features]


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
        self.cls_bias = np.zeros(n_classes, dtype=np.float64)
        self.det_bias = 0.0
        self.epoch_losses: list[float] = []
        self._set_rows(np.zeros(0, dtype=np.int64), np.zeros((1, n_classes)), np.zeros(1))

    def _set_rows(self, hashes: np.ndarray, cls_weights: np.ndarray,
                  det_weights: np.ndarray) -> None:
        """Give the sorted trained ``hashes`` their rows; the last row serves every other hash."""
        self.hashes = hashes
        self.cls_weights = cls_weights
        self.det_weights = det_weights
        self._row_of = {h: row for row, h in enumerate(hashes.tolist())}
        self._hash_cache: dict[str, int] = {}  # feature -> row id, under this row map only

    def _row_id(self, feat: str) -> int:
        return self._row_of.get(_hash_feature(feat, self.hash_seed, self.dim), len(self.hashes))

    def _sentence_indices(self, seq: TokenSeq) -> list[list[int]]:
        """The row ids of every token's features."""
        return _feature_ids(sentence_features(seq), self._hash_cache, self._row_id)

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
            for array in (self.hashes, self.cls_weights, self.cls_bias, self.det_weights,
                          np.float64(self.det_bias)):
                np.save(fh, array)

    @classmethod
    def load(cls, path) -> "StatTaggerModel":
        """Read a model file; a malformed one raises ``ValueError``."""
        with open(path, "rb") as fh:
            magic = _header_line(fh, "magic", path)
            if magic == _MAGIC_V1:
                raise ValueError(f"{path}: a v1 stat model, which this version does not read; "
                                 f"retrain it with `tagsimp train-stat`")
            if magic != _MAGIC:
                raise ValueError(f"not a stat tagger model file: {magic[:64]!r}")
            meta = json.loads(_header_line(fh, "meta", path).decode("utf-8"))
            if not isinstance(meta, dict):
                raise ValueError(f"{path}: model meta must be a JSON object")
            n_classes = _meta_int(meta, "n_classes", path, 1)
            hash_seed = _meta_int(meta, "hash_seed", path, 0, 2 ** 64)  # 8 key bytes
            dim = _meta_int(meta, "dim", path, 1)
            vocab_sha256 = meta.get("vocab_sha256", "")
            if not isinstance(vocab_sha256, str):
                raise ValueError(f"{path}: model meta vocab_sha256 must be a string")
            hashes = _load_hashes(fh, dim, path)
            rows = len(hashes) + 1
            cls_weights = _load_array(fh, "cls_weights", (rows, n_classes), path)
            cls_bias = _load_array(fh, "cls_bias", (n_classes,), path)
            det_weights = _load_array(fh, "det_weights", (rows,), path)
            det_bias = _load_array(fh, "det_bias", (), path)
        if cls_weights[-1].any() or det_weights[-1]:
            raise ValueError(f"{path}: the last row, shared by every untrained hash, must be zero")
        model = cls(n_classes, hash_seed, dim, vocab_sha256)
        model._set_rows(hashes, cls_weights, det_weights)
        model.cls_bias = cls_bias
        model.det_bias = float(det_bias)
        return model


def _header_line(fh, name: str, path) -> bytes:
    line = fh.readline(_HEADER_LINE_LIMIT + 1)
    if len(line) > _HEADER_LINE_LIMIT:
        raise ValueError(f"{path}: model {name} line is longer than {_HEADER_LINE_LIMIT} bytes")
    return line


def _meta_int(meta: dict, key: str, path, low: int, high: float = math.inf) -> int:
    value = meta.get(key)
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"{path}: model meta {key} must be an integer in [{low}, {high}), "
                         f"got {value!r}")
    return value


def _read_array(fh, name: str, path) -> np.ndarray:
    try:
        array = np.load(fh)
    except EOFError as exc:
        raise ValueError(f"{path}: model file ends before {name}") from exc
    if not isinstance(array, np.ndarray):  # an .npz header gives an archive
        raise ValueError(f"{path}: {name} is not an array")
    return array


def _load_hashes(fh, dim: int, path) -> np.ndarray:
    hashes = _read_array(fh, "hashes", path)
    if hashes.dtype != np.int64 or hashes.ndim != 1:
        raise ValueError(f"{path}: hashes must be a 1-D int64 array, "
                         f"got {hashes.dtype} of shape {hashes.shape}")
    if not (hashes[1:] > hashes[:-1]).all():
        raise ValueError(f"{path}: hashes must be sorted and distinct")
    if hashes.size and not (hashes[0] >= 0 and hashes[-1] < dim):
        raise ValueError(f"{path}: hashes must lie in [0, {dim})")
    return hashes


def _load_array(fh, name: str, shape: tuple[int, ...], path) -> np.ndarray:
    array = _read_array(fh, name, path)
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

    ``dim`` and ``epochs`` must be at least 1, ``learning_rate`` finite and
    positive, and ``seed`` in [0, 2**64) (the hash key's 8 bytes); otherwise
    ``ValueError`` is raised before ``corpus`` is read.
    """
    if dim < 1 or epochs < 1:
        raise ValueError(f"dim and epochs must be >= 1, got dim={dim}, epochs={epochs}")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    hash_cache: dict[str, int] = {}
    hash_of = partial(_hash_feature, seed=seed, dim=dim)
    samples: list[tuple[list[int], int, float]] = []
    for src, tgt in corpus:
        tags = extract_tags(src, tgt, vocab=vocab, lexicon=lexicon)
        hashes = _feature_ids(sentence_features(src), hash_cache, hash_of)
        for tag, idxs in zip(tags, hashes):
            samples.append((idxs, vocab.id_of(tag), 0.0 if tag.kind is EditKind.KEEP else 1.0))
    if not samples:
        raise EmptyCorpus("stat_train needs a non-empty corpus")

    # Rows for the trained hashes only: each receives the adds of its dense
    # row in the same order, and the shared last row stays zero.
    trained = np.unique(np.fromiter((h for idxs, _, _ in samples for h in idxs), np.int64))
    rows = len(trained) + 1
    model = StatTaggerModel(
        n_classes=len(vocab), hash_seed=seed, dim=dim, vocab_sha256=vocab.sha256()
    )
    model._set_rows(trained, np.zeros((rows, len(vocab))), np.zeros(rows))
    for idxs, _, _ in samples:
        idxs[:] = [model._row_of[h] for h in idxs]

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
