"""The fast paths against the straightforward implementations they replaced.

Alignment, the substitution recognizer, the word whitespace check, SGD
training, stat prediction and the peer reply decoder all have a faster form
in the package.  The slower forms are kept here as references; each test
requires exactly equal results (bitwise for trained weights and predicted
probabilities, the same exception and message for rejected replies),
because the fast paths do the same arithmetic.
"""

import json
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import vocab_for
from test_external import _ScriptedTransport
from tagsimp.align import AlignKind, AlignOp, align, extract_tags
from tagsimp.apply import (
    RECOGNIZER_KINDS,
    VerbLexicon,
    _pluralize,
    _singularize,
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
from tagsimp.errors import MalformedTag, ProtocolError
from tagsimp.external import ExternalTaggerClient
from tagsimp.stat_tagger import StatTaggerModel, _hash_feature, stat_train
from tagsimp.tagger import TagPrediction


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


def reference_indices(model: StatTaggerModel, seq: TokenSeq, position: int) -> np.ndarray:
    feats = reference_token_features(seq, position)
    return np.asarray([_hash_feature(f, model.hash_seed, model.dim) for f in feats], dtype=np.intp)


def reference_predict(model: StatTaggerModel, seq: TokenSeq) -> tuple[np.ndarray, np.ndarray]:
    """Per token: gather and sum the weight rows, then its own softmax and sigmoid."""
    dist = np.empty((len(seq), model.n_classes), dtype=np.float64)
    detect = np.empty(len(seq), dtype=np.float64)
    for i in range(len(seq)):
        idxs = reference_indices(model, seq, i)
        dist[i] = _softmax(model.cls_weights[idxs].sum(axis=0) + model.cls_bias)
        detect[i] = _sigmoid(float(model.det_weights[idxs].sum()) + model.det_bias)
    return detect, dist


def reference_stat_train(corpus, vocab, epochs, learning_rate, seed, dim) -> StatTaggerModel:
    """SGD with ``np.add.at`` scatter updates of the hashed feature rows."""
    model = StatTaggerModel(
        n_classes=len(vocab), hash_seed=seed, dim=dim, vocab_sha256=vocab.sha256()
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


def _reject_constant(name):
    raise ProtocolError(f"peer sent non-finite number {name}")


def reference_decode_reply(line: str, lengths: list[int], vocab_size: int) -> list[TagPrediction]:
    """The whole reply through ``json.loads``, then list checks and ``np.asarray``."""
    try:
        msg = json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"peer sent invalid JSON: {line!r}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"peer message is not an object: {msg!r}")
    if msg.get("id") != 0:
        raise ProtocolError(f"response id {msg.get('id')!r} does not echo 0")
    preds = msg.get("predictions")
    if not isinstance(preds, list) or len(preds) != len(lengths):
        got = len(preds) if isinstance(preds, list) else preds
        raise ProtocolError(f"expected {len(lengths)} predictions, got {got!r}")
    out = []
    for n_tokens, raw in zip(lengths, preds):
        if not isinstance(raw, dict) or "detect" not in raw or "dist" not in raw:
            raise ProtocolError(f"prediction must have detect and dist: {raw!r}")
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
    assert fast.cls_weights.tobytes() == ref.cls_weights.tobytes()
    assert fast.cls_bias.tobytes() == ref.cls_bias.tobytes()
    assert fast.det_weights.tobytes() == ref.det_weights.tobytes()
    assert np.float64(fast.det_bias).tobytes() == np.float64(ref.det_bias).tobytes()
    assert fast.epoch_losses == ref.epoch_losses
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
    model = StatTaggerModel(n_classes=n_classes, hash_seed=seed % 1000, dim=dim)
    model.cls_weights = rng.normal(size=(dim, n_classes)) * scale
    model.cls_bias = rng.normal(size=n_classes) * scale
    model.det_weights = rng.normal(size=dim) * scale
    model.det_bias = float(rng.normal()) * scale
    seqs = [TokenSeq.from_words(words) for words in sentences]
    preds = model.predict_batch(seqs)
    with np.errstate(over="ignore"):  # large weights saturate the reference sigmoid
        refs = [reference_predict(model, seq) for seq in seqs]
    assert len(preds) == len(seqs)
    for pred, (detect, dist) in zip(preds, refs):
        assert pred.detect.tobytes() == detect.tobytes()
        assert pred.dist.tobytes() == dist.tobytes()


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
