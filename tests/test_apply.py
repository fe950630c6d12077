import pytest
from hypothesis import given, strategies as st

from tagsimp.apply import (
    VerbLexicon,
    apply_tags,
    apply_transform,
    default_lexicon,
    recognize_substitution,
)
from tagsimp.core import EditTag, KEEP_TAG, Token, TokenSeq, TransformKind, tokenize
from tagsimp.errors import LengthMismatch


def seq(*words):
    return TokenSeq.from_words(words)


class TestApplyTags:
    def test_all_keep_identity(self):
        s = seq("a", "b")
        assert apply_tags(s, (KEEP_TAG,) * 3) == s

    def test_replace(self):
        out = apply_tags(seq("completed"), (KEEP_TAG, EditTag.replace("wrote")))
        assert out.words() == ("wrote",)

    def test_append_then_delete(self):
        out = apply_tags(seq("a"), (EditTag.append("x"), EditTag.delete()))
        assert out.words() == ("x",)

    def test_append_on_sentinel_inserts_first(self):
        out = apply_tags(seq("a"), (EditTag.append("x"), KEEP_TAG))
        assert out.words() == ("x", "a")

    def test_sentinel_is_indestructible(self):
        for tag in (EditTag.delete(), EditTag.replace("y"),
                    EditTag.grammar(TransformKind.CASE_UPPER)):
            out = apply_tags(seq("a"), (tag, KEEP_TAG))
            assert out.words() == ("a",)
            assert out[0].is_start

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            apply_tags(seq("a"), (KEEP_TAG,))

    def test_merge_space_consumes_next_token(self):
        out = apply_tags(
            seq("web", "site"),
            (KEEP_TAG, EditTag.grammar(TransformKind.MERGE_SPACE), KEEP_TAG),
        )
        assert out.words() == ("website",)

    def test_merge_hyphen(self):
        out = apply_tags(
            seq("well", "known"),
            (KEEP_TAG, EditTag.grammar(TransformKind.MERGE_HYPHEN), KEEP_TAG),
        )
        assert out.words() == ("well-known",)

    def test_merge_skips_deleted_token(self):
        # the merge consumes the next *emitted* token, not the next position
        out = apply_tags(
            seq("a", "b", "c"),
            (KEEP_TAG, EditTag.grammar(TransformKind.MERGE_SPACE),
             EditTag.delete(), KEEP_TAG),
        )
        assert out.words() == ("ac",)

    def test_trailing_merge_is_inapplicable(self):
        out = apply_tags(seq("a"), (KEEP_TAG, EditTag.grammar(TransformKind.MERGE_SPACE)))
        assert out.words() == ("a",)

    def test_merge_consumes_token_not_its_appended_payload(self):
        out = apply_tags(
            seq("a", "b"),
            (KEEP_TAG, EditTag.grammar(TransformKind.MERGE_SPACE), EditTag.append("x")),
        )
        assert out.words() == ("ab", "x")

    def test_chained_merges(self):
        out = apply_tags(
            seq("a", "b", "c"),
            (KEEP_TAG, EditTag.grammar(TransformKind.MERGE_SPACE),
             EditTag.grammar(TransformKind.MERGE_SPACE), KEEP_TAG),
        )
        assert out.words() == ("abc",)

    def test_split_hyphen(self):
        out = apply_tags(seq("well-known"), (KEEP_TAG, EditTag.grammar(TransformKind.SPLIT_HYPHEN)))
        assert out.words() == ("well", "known")

    @given(st.lists(st.sampled_from(["aa", "bb", "cc"]), min_size=0, max_size=6))
    def test_all_keep_identity_property(self, words):
        s = TokenSeq.from_words(words)
        assert apply_tags(s, (KEEP_TAG,) * len(s)) == s


class TestTransforms:
    def test_verb_vb_vbz(self):
        assert apply_transform(TransformKind.VERB_VB_VBZ, Token("convert")) == [Token("converts")]

    def test_verb_inverse(self):
        assert apply_transform(TransformKind.VERB_VBZ_VB, Token("converts")) == [Token("convert")]
        assert apply_transform(TransformKind.VERB_VBD_VB, Token("wrote")) == [Token("write")]

    def test_out_of_lexicon_untouched(self):
        assert apply_transform(TransformKind.VERB_VB_VBZ, Token("zzzgloop")) == [Token("zzzgloop")]

    def test_case_capital(self):
        assert apply_transform(TransformKind.CASE_CAPITAL, Token("paris")) == [Token("Paris")]

    def test_case_lower(self):
        assert apply_transform(TransformKind.CASE_LOWER, Token("Paris")) == [Token("paris")]

    def test_case_involution(self):
        word = Token("paris")
        up = apply_transform(TransformKind.CASE_CAPITAL, word)[0]
        assert apply_transform(TransformKind.CASE_LOWER, up) == [word]

    @pytest.mark.parametrize(
        "word,plural",
        [("cat", "cats"), ("box", "boxes"), ("church", "churches"), ("baby", "babies"),
         ("boy", "boys")],
    )
    def test_plural(self, word, plural):
        assert apply_transform(TransformKind.PLURAL, Token(word)) == [Token(plural)]
        assert apply_transform(TransformKind.SINGULAR, Token(plural)) == [Token(word)]

    def test_singular_inapplicable(self):
        assert apply_transform(TransformKind.SINGULAR, Token("class")) == [Token("class")]

    def test_sentinel_rejected(self):
        with pytest.raises(ValueError):
            apply_transform(TransformKind.CASE_LOWER, TokenSeq.from_words([])[0])

    def test_custom_lexicon_file(self, tmp_path):
        path = tmp_path / "verbs.tsv"
        path.write_text("frob\tVBZ\tfrobs\n", encoding="utf-8")
        lex = VerbLexicon.from_path(path)
        assert apply_transform(TransformKind.VERB_VB_VBZ, Token("frob"), lexicon=lex) == [
            Token("frobs")
        ]
        # the packaged default does not know this verb
        assert apply_transform(TransformKind.VERB_VB_VBZ, Token("frob")) == [Token("frob")]

    def test_custom_lexicon_file_reads_crlf_as_lf(self, tmp_path):
        path = tmp_path / "verbs.tsv"
        path.write_bytes(b"# comment\r\nfrob\tVBZ\tfrobs\r\n\r\n")
        lex = VerbLexicon.from_path(path)
        assert lex.inflect("frob", "VBZ") == "frobs"

    def test_custom_lexicon_file_keeps_a_bare_cr_inside_its_line(self, tmp_path):
        path = tmp_path / "verbs.tsv"
        path.write_bytes(b"frob\tVBZ\tfrobs\rgrok\tVBZ\tgroks\n")
        with pytest.raises(ValueError, match="needs 3 tab-separated fields"):
            VerbLexicon.from_path(path)


class TestRecognizers:
    def test_verb_recognized(self):
        assert recognize_substitution("convert", "converts") is TransformKind.VERB_VB_VBZ

    def test_case_recognized_before_verbs(self):
        assert recognize_substitution("paris", "Paris") is TransformKind.CASE_CAPITAL

    def test_plural_recognized(self):
        assert recognize_substitution("cat", "cats") is TransformKind.PLURAL

    def test_unrelated_words_not_recognized(self):
        assert recognize_substitution("completed", "wrote") is None

    def test_identical_words_not_recognized(self):
        assert recognize_substitution("cat", "cat") is None

    def test_recognized_transform_reproduces_target(self):
        # contract behind extraction: a recognized transform must apply exactly
        lex = default_lexicon()
        for src, tgt in [("convert", "converts"), ("go", "went"), ("US", "us"),
                         ("cat", "cats"), ("boxes", "box")]:
            kind = recognize_substitution(src, tgt, lex)
            assert kind is not None
            assert apply_transform(kind, Token(src), lexicon=lex) == [Token(tgt)]


class TestSinglePassExactness:
    def test_short_insert_runs_apply_exactly(self):
        from corpus_gen import longest_insert_run
        from tagsimp.align import align, extract_tags

        import random
        rng = random.Random(5)
        checked = 0
        for _ in range(400):
            src = tokenize(" ".join(rng.choice("abcd") for _ in range(rng.randint(0, 7))))
            tgt = tokenize(" ".join(rng.choice("abcd") for _ in range(rng.randint(0, 7))))
            if longest_insert_run(align(src, tgt)) <= 1:
                checked += 1
                assert apply_tags(src, extract_tags(src, tgt)) == tgt
        assert checked > 100
