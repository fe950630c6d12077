"""The fast paths against the straightforward implementations they replaced.

Alignment, the substitution recognizer, the word whitespace check, SGD
training, stat prediction and the peer reply decoder all have a faster form
in the package.  The slower forms are kept here as references; each test
requires exactly equal results (bitwise for trained weights and predicted
probabilities, the same exception and message for rejected replies),
because the fast paths do the same arithmetic.  The per-sentence inference
loop is kept too, as the reference for the one batched loop that both
``simplify`` and ``simplify_batch`` run.
"""

import json
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backends import AllKeepBackend, FailingBackend, GrowingBackend, ShortListBackend
from conftest import vocab_for
from test_external import _ScriptedTransport
from tagsimp.align import AlignKind, AlignOp, align, extract_tags
from tagsimp.apply import (
    RECOGNIZER_KINDS,
    VerbLexicon,
    _pluralize,
    _singularize,
    apply_tags,
    apply_transform,
    default_lexicon,
    recognize_substitution,
)
from tagsimp.core import (
    EditKind,
    TagVocabulary,
    Token,
    TokenSeq,
    TransformKind,
    _has_whitespace,
    parse_tag,
    tokenize,
)
from tagsimp.engine import (
    InferenceConfig,
    SimplifyTrace,
    TraceStep,
    decode_step,
    simplify,
    simplify_batch,
)
from tagsimp.errors import MalformedTag, ProtocolError, ShapeMismatch
from tagsimp.external import ExternalTaggerClient, _quote
from tagsimp import stat_tagger
from tagsimp.stat_tagger import StatTaggerModel, _hash_feature, stat_train
from tagsimp.tagger import OracleBackend, TagPrediction


# ------------------------------------------------------------------ references


def reference_align(src: TokenSeq, tgt: TokenSeq) -> list[AlignOp]:
    """Levenshtein DP taking ``min()`` per cell, with the package's backtrace."""
    a, b = src.words(), tgt.words()
    n, m = len(a), len(b)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = dist[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1)
            dist[i][j] = min(diag, dist[i - 1][j] + 1, dist[i][j - 1] + 1)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            equal = a[i - 1] == b[j - 1]
            if dist[i][j] == dist[i - 1][j - 1] + (0 if equal else 1):
                kind = AlignKind.EQUAL if equal else AlignKind.SUBSTITUTE
                ops.append(AlignOp(kind, src_index=i - 1, tgt_index=j - 1))
                i, j = i - 1, j - 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(AlignOp(AlignKind.DELETE, src_index=i - 1))
            i -= 1
            continue
        ops.append(AlignOp(AlignKind.INSERT, tgt_index=j - 1))
        j -= 1
    return ops[::-1]


def reference_transform(kind: TransformKind, token: Token, lex: VerbLexicon) -> list[Token]:
    """The 1:1 transforms as an if-chain that builds the output token."""
    text = token.text
    if kind is TransformKind.CASE_CAPITAL:
        out = text[:1].upper() + text[1:]
    elif kind is TransformKind.CASE_LOWER:
        out = text.lower()
    elif kind is TransformKind.CASE_UPPER:
        out = text.upper()
    elif kind is TransformKind.VERB_VB_VBZ:
        out = lex.inflect(text, "VBZ") or text
    elif kind is TransformKind.VERB_VB_VBD:
        out = lex.inflect(text, "VBD") or text
    elif kind is TransformKind.VERB_VBZ_VB:
        out = lex.uninflect(text, "VBZ") or text
    elif kind is TransformKind.VERB_VBD_VB:
        out = lex.uninflect(text, "VBD") or text
    elif kind is TransformKind.PLURAL:
        out = _pluralize(text)
    elif kind is TransformKind.SINGULAR:
        out = _singularize(text) or text
    else:
        raise AssertionError(f"{kind} is not a 1:1 transform")
    return [Token(out)]


ONE_TO_ONE = tuple(
    k for k in TransformKind
    if k not in (TransformKind.MERGE_SPACE, TransformKind.MERGE_HYPHEN, TransformKind.SPLIT_HYPHEN)
)


def reference_recognize(src_word: str, tgt_word: str, lex: VerbLexicon) -> TransformKind | None:
    """The recognizer comparing Token lists for every candidate kind."""
    if src_word == tgt_word:
        return None
    src = Token(src_word)
    for kind in ONE_TO_ONE:
        if reference_transform(kind, src, lex) == [Token(tgt_word)]:
            return kind
    return None


def reference_has_whitespace(word: str) -> bool:
    return any(ch.isspace() for ch in word)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x))


def reference_token_features(seq: TokenSeq, position: int) -> list[str]:
    """Feature strings for one token position, with a bounds check per window slot."""
    texts = [tok.text for tok in seq.tokens]
    text = texts[position]
    feats = [f"w={text}", f"lw={text.lower()}"]
    for offset in (-2, -1, 1, 2):
        j = position + offset
        ctx = texts[j] if 0 <= j < len(texts) else "<pad>"
        feats.append(f"w{offset:+d}={ctx}")
    for k in range(1, 4):
        if len(text) >= k:
            feats.append(f"pre{k}={text[:k]}")
            feats.append(f"suf{k}={text[-k:]}")
    if seq.tokens[position].is_start:
        feats.append("start")
    return feats


@dataclass
class DenseModel:
    """The dense layout: one weight row per hash bucket, trained or not."""

    hash_seed: int
    dim: int
    cls_weights: np.ndarray  # (dim, n_classes)
    cls_bias: np.ndarray
    det_weights: np.ndarray  # (dim,)
    det_bias: float
    epoch_losses: list[float] = field(default_factory=list)


def dense_rows(model: StatTaggerModel) -> tuple[np.ndarray, np.ndarray]:
    """A compact model's rows scattered into the dense layout; untrained rows are +0.0."""
    assert model.cls_weights[-1].tobytes() == bytes(8 * model.n_classes)
    assert np.float64(model.det_weights[-1]).tobytes() == bytes(8)
    cls_weights = np.zeros((model.dim, model.n_classes))
    det_weights = np.zeros(model.dim)
    cls_weights[model.hashes] = model.cls_weights[:-1]
    det_weights[model.hashes] = model.det_weights[:-1]
    return cls_weights, det_weights


def reference_indices(model: DenseModel, seq: TokenSeq, position: int) -> np.ndarray:
    feats = reference_token_features(seq, position)
    return np.asarray([_hash_feature(f, model.hash_seed, model.dim) for f in feats], dtype=np.intp)


def reference_predict(model: DenseModel, seq: TokenSeq) -> tuple[np.ndarray, np.ndarray]:
    """Per token: gather and sum the weight rows, then its own softmax and sigmoid."""
    n_classes = len(model.cls_bias)
    dist = np.empty((len(seq), n_classes), dtype=np.float64)
    detect = np.empty(len(seq), dtype=np.float64)
    for i in range(len(seq)):
        idxs = reference_indices(model, seq, i)
        dist[i] = _softmax(model.cls_weights[idxs].sum(axis=0) + model.cls_bias)
        detect[i] = _sigmoid(float(model.det_weights[idxs].sum()) + model.det_bias)
    return detect, dist


def reference_stat_train(corpus, vocab, epochs, learning_rate, seed, dim) -> DenseModel:
    """SGD with ``np.add.at`` scatter updates of the hashed feature rows."""
    model = DenseModel(
        seed, dim, np.zeros((dim, len(vocab))), np.zeros(len(vocab)), np.zeros(dim), 0.0
    )
    samples = []
    for src, tgt in corpus:
        for i, tag in enumerate(extract_tags(src, tgt, vocab=vocab)):
            det_label = 0.0 if tag.kind is EditKind.KEEP else 1.0
            samples.append((reference_indices(model, src, i), vocab.id_of(tag), det_label))
    rng = np.random.default_rng(seed)
    order = np.arange(len(samples))
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for k in order:
            idxs, label, det_label = samples[k]
            probs = _softmax(model.cls_weights[idxs].sum(axis=0) + model.cls_bias)
            det_p = _sigmoid(float(model.det_weights[idxs].sum()) + model.det_bias)
            total += -np.log(max(probs[label], 1e-300))
            total += -np.log(max(det_p if det_label else 1.0 - det_p, 1e-300))
            grad = probs.copy()
            grad[label] -= 1.0
            np.add.at(model.cls_weights, idxs, -learning_rate * grad)
            model.cls_bias -= learning_rate * grad
            det_grad = det_p - det_label
            np.add.at(model.det_weights, idxs, -learning_rate * det_grad)
            model.det_bias -= learning_rate * det_grad
        model.epoch_losses.append(total / len(samples))
    return model


def trained_hashes(model: DenseModel, corpus) -> list[int]:
    """The buckets that training touches: every feature hash of every source token."""
    return sorted({int(h) for src, _ in corpus for i in range(len(src))
                   for h in reference_indices(model, src, i)})


def assert_trains_as_reference(fast: StatTaggerModel, ref: DenseModel, corpus) -> None:
    cls_weights, det_weights = dense_rows(fast)
    assert fast.hashes.tolist() == trained_hashes(ref, corpus)
    assert cls_weights.tobytes() == ref.cls_weights.tobytes()
    assert fast.cls_bias.tobytes() == ref.cls_bias.tobytes()
    assert det_weights.tobytes() == ref.det_weights.tobytes()
    assert np.float64(fast.det_bias).tobytes() == np.float64(ref.det_bias).tobytes()
    assert fast.epoch_losses == ref.epoch_losses


def assert_predicts_as_reference(model: StatTaggerModel, ref: DenseModel, seqs) -> None:
    preds = model.predict_batch(seqs)
    with np.errstate(over="ignore"):  # large weights saturate the reference sigmoid
        refs = [reference_predict(ref, seq) for seq in seqs]
    assert len(preds) == len(seqs)
    for pred, (detect, dist) in zip(preds, refs):
        assert pred.detect.tobytes() == detect.tobytes()
        assert pred.dist.tobytes() == dist.tobytes()


def _reject_constant(name):
    raise ProtocolError(f"peer sent non-finite number {name}")


def reference_decode_reply(line: str, lengths: list[int], vocab_size: int) -> list[TagPrediction]:
    """The whole reply through ``json.loads``, then list checks and ``np.asarray``.

    Errors quote the peer's input through the package's bounded ``_quote``, so
    the messages of the two decoders compare equal."""
    try:
        msg = json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"peer sent invalid JSON: {_quote(line)}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"peer message is not an object: {_quote(msg)}")
    if msg.get("id") != 0:
        raise ProtocolError(f"response id {_quote(msg.get('id'))} does not echo 0")
    preds = msg.get("predictions")
    if not isinstance(preds, list) or len(preds) != len(lengths):
        got = len(preds) if isinstance(preds, list) else preds
        raise ProtocolError(f"expected {len(lengths)} predictions, got {_quote(got)}")
    out = []
    for n_tokens, raw in zip(lengths, preds):
        if not isinstance(raw, dict) or "detect" not in raw or "dist" not in raw:
            raise ProtocolError(f"prediction must have detect and dist: {_quote(raw)}")
        detect, dist = raw["detect"], raw["dist"]
        if not isinstance(detect, list) or len(detect) != n_tokens:
            raise ProtocolError(f"detect must have {n_tokens} entries")
        if not isinstance(dist, list) or len(dist) != n_tokens:
            raise ProtocolError(f"dist must have {n_tokens} rows")
        for row in dist:
            if not isinstance(row, list) or len(row) != vocab_size:
                raise ProtocolError(f"dist rows must have {vocab_size} entries")
        out.append(TagPrediction(
            detect=np.asarray(detect, dtype=np.float64),
            dist=np.asarray(dist, dtype=np.float64),
        ))
    return out


def reference_simplify(seq, backend, vocab, cfg, lexicon=None):
    """One sentence, one backend call per pass, every exception raised as it comes."""
    trace = SimplifyTrace()
    for _ in range(cfg.max_iterations):
        preds = backend.predict_batch([seq])
        if len(preds) != 1:
            raise ShapeMismatch(f"backend returned {len(preds)} predictions for a batch of 1")
        tags, gated = decode_step(preds[0], vocab, cfg)
        out = seq if gated else apply_tags(seq, tags, lexicon)
        trace.steps.append(TraceStep(input=seq, tags=tags, gated=gated, output=out))
        if gated or all(tag.kind is EditKind.KEEP for tag in tags) or out == seq:
            return out, trace
        seq = out
    return seq, trace


# ----------------------------------------------------------------------- tests

# Four words make substitutions, repeats and equal-word anchors common.
small_words = st.lists(st.sampled_from("abcd"), max_size=12)


@settings(max_examples=300, deadline=None)
@given(small_words, small_words)
def test_align_matches_min_reference(src_words, tgt_words):
    src, tgt = TokenSeq.from_words(src_words), TokenSeq.from_words(tgt_words)
    assert align(src, tgt) == reference_align(src, tgt)


def _lexicon_words() -> list[str]:
    text = resources.files("tagsimp").joinpath("data/verb_forms.tsv").read_text(encoding="utf-8")
    words = set()
    for line in text.splitlines():
        if line and not line.startswith("#"):
            base, _, inflected = line.split("\t")
            words.update((base, inflected))
    return sorted(words)


def _variants(word: str) -> set[str]:
    """Case, plural and singular forms of a word, the word included."""
    forms = {word, word.lower(), word.upper(), word[:1].upper() + word[1:], _pluralize(word)}
    singular = _singularize(word)
    if singular:
        forms.add(singular)
    return forms


EXTRA_WORDS = ["city", "box", "church", "class", "Paris", "x", "iPhone", "straße"]
RECOGNIZER_WORDS = sorted({v for w in _lexicon_words() + EXTRA_WORDS for v in _variants(w)})


def test_recognizer_kinds_are_the_one_to_one_transforms():
    assert RECOGNIZER_KINDS == ONE_TO_ONE


def test_recognizer_matches_token_list_reference():
    lex = default_lexicon()
    recognized = 0
    for src_word in RECOGNIZER_WORDS:
        # Every 1:1 output of the word, its own variants, and unrelated words.
        outputs = {reference_transform(k, Token(src_word), lex)[0].text for k in ONE_TO_ONE}
        for tgt_word in sorted(outputs | _variants(src_word) | set(RECOGNIZER_WORDS[::25])):
            got = recognize_substitution(src_word, tgt_word)
            assert got is reference_recognize(src_word, tgt_word, lex), (src_word, tgt_word)
            recognized += got is not None
    assert recognized > 500


def test_one_to_one_transforms_match_reference():
    lex = default_lexicon()
    for word in RECOGNIZER_WORDS:
        for kind in ONE_TO_ONE:
            assert apply_transform(kind, Token(word)) == reference_transform(kind, Token(word), lex)


def test_whitespace_predicate_over_every_code_point():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        for word in (ch, "a" + ch, ch + "a", "a" + ch + "b"):
            with pytest.raises(ValueError, match="whitespace"):
                Token(word)
        with pytest.raises(MalformedTag):
            parse_tag("$APPEND_a" + ch + "b")
    # No other code point is treated as whitespace.
    for c in range(sys.maxunicode + 1):
        word = "a" + chr(c)
        assert _has_whitespace(word) == reference_has_whitespace(word)


def test_row_add_training_is_bitwise_add_at():
    # dim=8: a token of two or more letters has at least ten features, so
    # duplicate hash indices within one token are certain.
    text_pairs = [
        ("the cat sat on the mat", "the cat sat"),
        ("a big dog ran fast", "a dog ran"),
        ("he convert the files", "he converts files"),
        ("she wrote a long letter", "she writes a letter today"),
    ]
    corpus = [(tokenize(s), tokenize(t)) for s, t in text_pairs] * 3
    vocab = vocab_for(text_pairs)
    fast = stat_train(corpus, vocab, epochs=3, learning_rate=0.3, seed=5, dim=8)
    ref = reference_stat_train(corpus, vocab, epochs=3, learning_rate=0.3, seed=5, dim=8)
    assert_trains_as_reference(fast, ref, corpus)
    assert np.any(fast.cls_weights != 0)


# Words of 1-3 characters give tokens 8, 10 or 12 features; the sentinel has 13.
short_words = st.text("abAB", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    sentences=st.lists(st.lists(short_words, max_size=10), min_size=1, max_size=4),
    n_classes=st.integers(2, 70),
    dim=st.sampled_from([8, 4096]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sentence_predict_is_bitwise_per_token_reference(sentences, n_classes, dim, scale, seed):
    rng = np.random.default_rng(seed)
    trained = np.flatnonzero(rng.random(dim) < 0.5)  # the other buckets are all +0.0
    ref = DenseModel(seed % 1000, dim, np.zeros((dim, n_classes)),
                     rng.normal(size=n_classes) * scale, np.zeros(dim), float(rng.normal()) * scale)
    ref.cls_weights[trained] = rng.normal(size=(len(trained), n_classes)) * scale
    ref.det_weights[trained] = rng.normal(size=len(trained)) * scale
    model = StatTaggerModel(n_classes=n_classes, hash_seed=ref.hash_seed, dim=dim)
    model._set_rows(trained, np.vstack([ref.cls_weights[trained], np.zeros(n_classes)]),
                    np.append(ref.det_weights[trained], 0.0))
    model.cls_bias = ref.cls_bias.copy()
    model.det_bias = ref.det_bias
    assert_predicts_as_reference(model, ref, [TokenSeq.from_words(w) for w in sentences])


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.lists(short_words, max_size=6), st.lists(short_words, max_size=6)),
                   min_size=1, max_size=4),
    unseen=st.lists(st.lists(st.text("abxyz", min_size=1, max_size=3), max_size=8),
                    min_size=1, max_size=3),
    dim=st.sampled_from([8, 64, 4096]),
    cache_size=st.sampled_from([20, 2**16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compact_rows_train_and_predict_as_the_dense_reference(pairs, unseen, dim, cache_size,
                                                               seed):
    # dim=8 makes duplicate hashes within a token certain; "x", "y" and "z"
    # give features that training never saw; a cache of 20 features is
    # cleared within every sentence of more than one token.
    text_pairs = [(" ".join(src), " ".join(tgt)) for src, tgt in pairs]
    corpus = [(tokenize(s), tokenize(t)) for s, t in text_pairs]
    vocab = vocab_for(text_pairs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stat_tagger, "HASH_CACHE_SIZE", cache_size)
        fast = stat_train(corpus, vocab, epochs=2, learning_rate=0.3, seed=seed, dim=dim)
        ref = reference_stat_train(corpus, vocab, epochs=2, learning_rate=0.3, seed=seed, dim=dim)
        assert_trains_as_reference(fast, ref, corpus)
        seqs = [src for src, _ in corpus] + [TokenSeq.from_words(w) for w in unseen]
        assert_predicts_as_reference(fast, ref, seqs + seqs)  # the second round hits the cache


def _decode_outcomes(line: str, lengths: list[int], vocab_size: int):
    """The package's and the reference's decoding of one reply: arrays or the error."""
    vocab = TagVocabulary.from_counts({f"$APPEND_w{i}": 1 for i in range(vocab_size - 2)}, vocab_size)
    client = ExternalTaggerClient(_ScriptedTransport(vocab, [line]), vocab)
    seqs = [TokenSeq.from_words(["w"] * (n - 1)) for n in lengths]
    decoders = (
        lambda: client.predict_batch(seqs),
        lambda: reference_decode_reply(line + "\n", lengths, vocab_size),
    )
    outcomes = []
    for decode in decoders:
        try:
            preds = decode()
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append([
                (a.dtype, a.shape, a.tobytes()) for p in preds for a in (p.detect, p.dist)
            ])
    return outcomes


def _spellings(x: float) -> list[str]:
    """JSON spellings that all decode to ``x`` (to 0.0 for an integer ``-0``)."""
    texts = [repr(x), "%.17e" % x, "%.17E" % x]
    if x == 0.0:
        texts += ["0", "-0", "-0.0", "0e0", "0.0E+00"]
    if x == 1.0:
        texts += ["1", "1e0", "10E-1", "0.1e1"]
    return texts


json_space = st.text(" \t\n\r", max_size=2)


@st.composite
def json_number(draw, x: float) -> str:
    return draw(json_space) + draw(st.sampled_from(_spellings(x))) + draw(json_space)


@st.composite
def json_object(draw, items: list[tuple[str, str]]) -> str:
    extra = draw(st.sampled_from([[], [("note", '"x"')]]))  # unknown keys are ignored
    members = [
        f'{draw(json_space)}"{key}"{draw(json_space)}:{draw(json_space)}{value}{draw(json_space)}'
        for key, value in draw(st.permutations(items + extra))
    ]
    return "{" + ",".join(members) + "}"


def json_array(texts: list[str]) -> str:
    return "[" + ",".join(texts) + "]"


@st.composite
def probability_row(draw, width: int) -> list[float]:
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
    total = sum(weights)
    if total == 0.0:
        return [1.0] + [0.0] * (width - 1)
    return [w / total for w in weights]


detect_value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def peer_reply(draw):
    vocab_size = draw(st.integers(2, 6))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    predictions = []
    for n_tokens in lengths:
        detect = [draw(json_number(draw(detect_value))) for _ in range(n_tokens)]
        rows = [json_array([draw(json_number(x)) for x in draw(probability_row(vocab_size))])
                for _ in range(n_tokens)]
        predictions.append(draw(json_object([("detect", json_array(detect)), ("dist", json_array(rows))])))
    msg = draw(json_object([("id", "0"), ("predictions", json_array(predictions))]))
    return draw(json_space) + msg, lengths, vocab_size


@settings(max_examples=200, deadline=None)
@given(peer_reply())
def test_reply_decoding_is_bitwise_json_loads_reference(reply):
    line, lengths, vocab_size = reply
    ours, reference = _decode_outcomes(line, lengths, vocab_size)
    assert isinstance(reference, list), reference  # well-formed: decoded, not rejected
    assert ours == reference


_ROW = "[1.0, 0.0, 0.0]"

MALFORMED_DIST = {
    "ragged rows": f"[{_ROW}, [1.0, 0.0]]",
    "short rows": "[[1.0, 0.0], [1.0, 0.0]]",
    "long rows": "[[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]",
    "non-list row": f"[{_ROW}, 1.0]",
    "flat dist": "[1.0, 0.0]",
    "string cell": f'[["x", 0.0, 0.0], {_ROW}]',
    "null cell": f"[[null, 1.0, 0.0], {_ROW}]",
    "bool cells": f"[[true, true, false], {_ROW}]",
    "object cell": f"[[{{}}, 1.0, 0.0], {_ROW}]",
    "prediction as a cell": f'[[{{"detect": [0.0], "dist": [[1.0]]}}, 1.0, 0.0], {_ROW}]',
    "huge integer cell": f"[[{10**400}, 0.0, 0.0], {_ROW}]",
    "3-d dist": "[[[1.0], [0.0], [0.0]], [[1.0], [0.0], [0.0]]]",
    "empty dist": "[]",
    "empty rows": "[[], []]",
    "too few rows": f"[{_ROW}]",
    "too many rows": f"[{_ROW}, {_ROW}, {_ROW}]",
    "dist not a list": '"rows"',
    "NaN cell": f"[[NaN, 0.0, 0.0], {_ROW}]",
    "Infinity cell": f"[[Infinity, 0.0, 0.0], {_ROW}]",
    "-Infinity cell": f"[[-Infinity, 1.0, 0.0], {_ROW}]",
    "row sum off": f"[[0.5, 0.0, 0.0], {_ROW}]",
    "negative cell": f"[[1.5, -0.5, 0.0], {_ROW}]",
}


def _reply_with(dist: str, detect: str = "[0.0, 0.0]") -> str:
    return '{"id": 0, "predictions": [{"detect": %s, "dist": %s}]}' % (detect, dist)


MALFORMED_REPLIES = {name: _reply_with(dist) for name, dist in MALFORMED_DIST.items()}
MALFORMED_REPLIES.update({
    "missing detect": '{"id": 0, "predictions": [{"dist": [%s, %s]}]}' % (_ROW, _ROW),
    "short detect": _reply_with(f"[{_ROW}, {_ROW}]", detect="[0.0]"),
    "NaN detect": _reply_with(f"[{_ROW}, {_ROW}]", detect="[NaN, 0.0]"),
    "truncated line": _reply_with(f"[{_ROW}, {_ROW}]")[:-5],
    # A bad detect is reported before any cell of dist is converted.
    "short detect, string cell": _reply_with(MALFORMED_DIST["string cell"], detect="[0.0]"),
    "short detect, object cell": _reply_with(MALFORMED_DIST["object cell"], detect="[0.0]"),
    "short detect, huge integer cell": _reply_with(MALFORMED_DIST["huge integer cell"], detect="[0.0]"),
})


@pytest.mark.parametrize("name", sorted(MALFORMED_REPLIES))
def test_malformed_reply_raises_as_reference(name):
    ours, reference = _decode_outcomes(MALFORMED_REPLIES[name], [2], 3)
    assert isinstance(reference, tuple), reference  # rejected
    assert ours == reference


@pytest.mark.parametrize("dist", [f'[["1.0", "0", 0.0], {_ROW}]', f"[[true, false, false], {_ROW}]"])
def test_cells_numpy_converts_are_accepted_as_by_reference(dist):
    ours, reference = _decode_outcomes(_reply_with(dist), [2], 3)
    assert isinstance(reference, list), reference
    assert ours == reference


ENGINE_BACKENDS = {
    "growing": (lambda v: GrowingBackend(v, word="are"), InferenceConfig(max_iterations=3)),
    "all-keep": (AllKeepBackend, InferenceConfig.zero_tweaks()),
    "oracle": (lambda v: OracleBackend(tokenize("b"), v), InferenceConfig.zero_tweaks()),
    "gate": (lambda v: OracleBackend(tokenize("b"), v),
             InferenceConfig(min_edit_prob=1.1, max_iterations=4)),
    "failing": (FailingBackend, InferenceConfig.zero_tweaks()),
    "short-list": (ShortListBackend, InferenceConfig.zero_tweaks()),
}
ENGINE_SENTENCES = ["a b c", "x", "", "a poison b", "a a a a", "b"]


def _outcome(run, *args):
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ENGINE_BACKENDS))
def test_simplify_and_batch_match_per_sentence_reference(name, example_vocab):
    make, cfg = ENGINE_BACKENDS[name]
    backend = make(example_vocab)
    seqs = [tokenize(s) for s in ENGINE_SENTENCES]
    reference = [_outcome(reference_simplify, seq, backend, example_vocab, cfg) for seq in seqs]
    assert [_outcome(simplify, seq, backend, example_vocab, cfg) for seq in seqs] == reference
    batch = [
        (item.output, item.trace) if item.ok else (type(item.exception), str(item.exception))
        for item in simplify_batch(seqs, backend, example_vocab, cfg)
    ]
    assert batch == reference
