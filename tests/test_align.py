import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus_gen import longest_insert_run, synthetic_pairs
from tagsimp.align import (
    AlignKind,
    AlignOp,
    PairReader,
    align,
    build_vocab,
    extract_tags,
    filter_brackets,
)
from tagsimp.apply import apply_tags
from tagsimp.core import EditTag, KEEP_TAG, TagVocabulary, TokenSeq, serialize_tag, tokenize


def lev_distance(a, b):
    """Independent quadratic DP oracle (distance only)."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
        prev = cur
    return prev[len(b)]


class TestAlign:
    def test_identical(self):
        ops = align(tokenize("a b"), tokenize("a b"))
        assert ops == [
            AlignOp(AlignKind.EQUAL, 0, 0),
            AlignOp(AlignKind.EQUAL, 1, 1),
        ]

    def test_single_deletion(self):
        ops = align(tokenize("a b c"), tokenize("a c"))
        assert [op.kind for op in ops] == [
            AlignKind.EQUAL, AlignKind.DELETE, AlignKind.EQUAL,
        ]

    def test_example_substitutions(self):
        ops = align(tokenize("completed two collections"), tokenize("wrote two books"))
        assert [op.kind for op in ops] == [
            AlignKind.SUBSTITUTE, AlignKind.EQUAL, AlignKind.SUBSTITUTE,
        ]

    def test_monotone_and_total(self):
        rng = random.Random(11)
        for _ in range(200):
            src = tokenize(" ".join(rng.choice("abc") for _ in range(rng.randint(0, 8))))
            tgt = tokenize(" ".join(rng.choice("abc") for _ in range(rng.randint(0, 8))))
            ops = align(src, tgt)
            src_seen = [op.src_index for op in ops if op.src_index is not None]
            tgt_seen = [op.tgt_index for op in ops if op.tgt_index is not None]
            assert src_seen == list(range(len(src.words())))
            assert tgt_seen == list(range(len(tgt.words())))

    def test_cost_matches_independent_oracle(self):
        rng = random.Random(23)
        for _ in range(300):
            a = [rng.choice("abcd") for _ in range(rng.randint(0, 12))]
            b = [rng.choice("abcd") for _ in range(rng.randint(0, 12))]
            ops = align(TokenSeq.from_words(a), TokenSeq.from_words(b))
            assert sum(op.kind is not AlignKind.EQUAL for op in ops) == lev_distance(a, b)

    def test_insert_runs_anchor_on_equal_or_start(self):
        # the tie-break that makes one-pass APPENDs possible
        rng = random.Random(37)
        for _ in range(500):
            src = tokenize(" ".join(rng.choice("abc") for _ in range(rng.randint(0, 8))))
            tgt = tokenize(" ".join(rng.choice("abc") for _ in range(rng.randint(0, 8))))
            prev_kind = None
            for op in align(src, tgt):
                if op.kind is AlignKind.INSERT and prev_kind not in (None, AlignKind.EQUAL,
                                                                     AlignKind.INSERT):
                    pytest.fail(f"insert after {prev_kind} in {src.words()} -> {tgt.words()}")
                prev_kind = op.kind


class TestExtractTags:
    def test_identical_all_keep(self):
        s = tokenize("a b c")
        assert extract_tags(s, s) == (KEEP_TAG,) * 4

    def test_append_on_sentinel_defers_rest_of_run(self):
        src, tgt = tokenize("a"), tokenize("x y a")
        tags = extract_tags(src, tgt)
        assert tags == (EditTag.append("x"), KEEP_TAG)
        # applying and re-extracting converges in exactly two passes
        mid = apply_tags(src, tags)
        assert mid == tokenize("x a")
        assert apply_tags(mid, extract_tags(mid, tgt)) == tgt

    def test_shortening_example(self):
        tags = extract_tags(tokenize("is theoretically possible"), tokenize("is possible"))
        assert tags == (KEEP_TAG, KEEP_TAG, EditTag.delete(), KEEP_TAG)

    def test_length_contract(self):
        rng = random.Random(3)
        for _ in range(200):
            src = tokenize(" ".join(rng.choice("ab") for _ in range(rng.randint(0, 6))))
            tgt = tokenize(" ".join(rng.choice("ab") for _ in range(rng.randint(0, 6))))
            assert len(extract_tags(src, tgt)) == len(src)

    def test_vocab_degrades_to_keep(self):
        vocab = TagVocabulary.from_counts({}, capacity=2)  # only KEEP/DELETE
        tags = extract_tags(tokenize("a"), tokenize("b"), vocab=vocab)
        assert tags == (KEEP_TAG, KEEP_TAG)

    def test_substitution_prefers_transform(self):
        tags = extract_tags(tokenize("convert"), tokenize("converts"))
        assert serialize_tag(tags[1]) == "$TRANSFORM_VERB_VB_VBZ"

    def test_convergence_bound(self):
        for src_text, tgt_text in synthetic_pairs(300, seed=99):
            src, tgt = tokenize(src_text), tokenize(tgt_text)
            bound = max(1, longest_insert_run(align(src, tgt)))
            state = src
            for _ in range(bound):
                state = apply_tags(state, extract_tags(state, tgt))
            assert state == tgt, f"{src_text!r} did not reach {tgt_text!r} in {bound}"

    @settings(max_examples=300)
    @given(
        st.lists(st.sampled_from("ab"), max_size=7),
        st.lists(st.sampled_from("ab"), max_size=7),
    )
    def test_convergence_bound_property(self, src_words, tgt_words):
        # duplicate-heavy two-symbol inputs probe alignment tie-breaking hard
        src, tgt = TokenSeq.from_words(src_words), TokenSeq.from_words(tgt_words)
        bound = max(1, longest_insert_run(align(src, tgt)))
        state = src
        for _ in range(bound):
            state = apply_tags(state, extract_tags(state, tgt))
        assert state == tgt


class TestBuildVocab:
    def test_identity_corpus(self):
        s = tokenize("a b")
        vocab = build_vocab([(s, s)], capacity=100)
        assert [serialize_tag(t) for t in vocab] == ["$KEEP", "$DELETE"]

    def test_single_deletion_counted(self):
        vocab = build_vocab([(tokenize("a b"), tokenize("a"))], capacity=100)
        assert [serialize_tag(t) for t in vocab] == ["$KEEP", "$DELETE"]

    def test_example_pairs_vocab(self, example_vocab):
        forms = {serialize_tag(t) for t in example_vocab}
        assert "$REPLACE_wrote" in forms
        # "called ," enters as insert-before-substitution: the word lands as
        # an APPEND on the preceding kept token so the whole pair stays
        # reachable in one pass (see the insert-anchoring tie-break).
        assert "$APPEND_called" in forms
        assert "$REPLACE_," in forms

    def test_determinism(self, example_pairs):
        pairs = [(tokenize(s), tokenize(t)) for s, t in example_pairs]
        a = build_vocab(pairs, capacity=50)
        b = build_vocab(list(pairs), capacity=50)
        assert a.to_bytes() == b.to_bytes()


class TestFilterBrackets:
    def bracketed(self, text):
        return filter_brackets(tokenize(text)).words()

    def test_simple_span(self):
        assert self.bracketed("a -LRB- b -RRB- c") == ("a", "c")

    def test_nested_spans(self):
        assert self.bracketed("a -LRB- b -LRB- c -RRB- d -RRB- e") == ("a", "e")

    def test_unmatched_close_removed_alone(self):
        assert self.bracketed("a -RRB- b") == ("a", "b")

    def test_unmatched_open_removes_to_end(self):
        assert self.bracketed("a -LRB- b c") == ("a",)

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(["a", "b", "-LRB-", "-RRB-"]), max_size=12))
    def test_property_no_brackets_and_subsequence(self, words):
        out = filter_brackets(TokenSeq.from_words(words)).words()
        assert "-LRB-" not in out and "-RRB-" not in out
        it = iter(words)
        assert all(w in it for w in out)  # subsequence check


class TestPairReader:
    def test_reads_pairs_and_counts_skips(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a b\ta\nmalformed line\nx\ty\nat\tbt\textra\n", encoding="utf-8")
        reader = PairReader(path)
        pairs = list(reader)
        assert pairs == [("a b", "a"), ("x", "y")]
        assert reader.skipped == 2

    @pytest.mark.parametrize("text, pairs", [
        (b"the small cat\rsat here\tthe cat sat\n", [("the small cat\rsat here", "the cat sat")]),
        (b"a b\ta\r\nx\ty\r\n", [("a b", "a"), ("x", "y")]),
    ], ids=["bare-cr", "crlf"])
    def test_a_line_ends_only_at_lf(self, tmp_path, text, pairs):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(text)
        reader = PairReader(path)
        assert list(reader) == pairs
        assert reader.skipped == 0
