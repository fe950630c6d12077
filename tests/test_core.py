import pytest
from hypothesis import given, strategies as st

from tagsimp.core import (
    EditKind,
    EditTag,
    KEEP_TAG,
    DELETE_TAG,
    TagVocabulary,
    Token,
    TokenSeq,
    TransformKind,
    detokenize,
    parse_tag,
    serialize_tag,
    tokenize,
)
from tagsimp.errors import MalformedTag


class TestTokenize:
    def test_whitespace_split(self):
        seq = tokenize("he also wrote")
        assert seq.words() == ("he", "also", "wrote")
        assert seq[0].is_start and seq[0].text == "$START"

    def test_empty_sentence(self):
        assert tokenize("").words() == ()
        assert len(tokenize("")) == 1

    def test_whitespace_runs_collapse(self):
        assert tokenize("a  b").words() == ("a", "b")
        assert tokenize(" a\tb c ").words() == ("a", "b", "c")

    def test_detokenize(self):
        assert detokenize(tokenize("he also")) == "he also"
        assert detokenize(tokenize("")) == ""

    def test_roundtrip_on_example_sentence(self, example_pairs):
        sentence = example_pairs[3][0]
        assert sentence.startswith("hinterrhein is")
        assert detokenize(tokenize(sentence)) == sentence

    @given(st.lists(st.text(alphabet="abcxyz_$-", min_size=1), max_size=8))
    def test_roundtrip_normal_form(self, words):
        text = " ".join(words)
        assert detokenize(tokenize(text)) == text


class TestTokenInvariants:
    def test_no_whitespace_in_token(self):
        with pytest.raises(ValueError):
            Token("a b")
        with pytest.raises(ValueError):
            Token("")

    def test_sentinel_text_pinned(self):
        with pytest.raises(ValueError):
            Token("other", is_start=True)

    def test_single_sentinel(self):
        with pytest.raises(ValueError):
            TokenSeq((Token("$START", is_start=True), Token("$START", is_start=True)))
        with pytest.raises(ValueError):
            TokenSeq((Token("a"),))


class TestTagSerialization:
    def test_parse_examples(self):
        assert parse_tag("$APPEND_just") == EditTag.append("just")
        assert parse_tag("$TRANSFORM_VERB_VB_VBZ") == EditTag.grammar(TransformKind.VERB_VB_VBZ)
        assert parse_tag("$REPLACE_a_b") == EditTag.replace("a_b")
        assert parse_tag("$KEEP") == KEEP_TAG
        assert parse_tag("$DELETE") == DELETE_TAG

    def test_serialize_examples(self):
        assert serialize_tag(EditTag.append("just")) == "$APPEND_just"
        assert serialize_tag(EditTag.grammar(TransformKind.CASE_LOWER)) == "$TRANSFORM_CASE_LOWER"

    @pytest.mark.parametrize(
        "bad",
        ["KEEP", "$APPEND", "$APPEND_", "$BOGUS_x", "$TRANSFORM_NOPE", "$", "$REPLACE"],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedTag):
            parse_tag(bad)

    @given(st.text(alphabet="abc_xyz", min_size=1).filter(lambda s: not s.isspace()))
    def test_payload_roundtrip(self, payload):
        for ctor in (EditTag.append, EditTag.replace):
            tag = ctor(payload)
            assert parse_tag(serialize_tag(tag)) == tag

    def test_all_transform_roundtrips(self):
        for kind in TransformKind:
            tag = EditTag.grammar(kind)
            assert parse_tag(serialize_tag(tag)) == tag

    def test_kind_payload_consistency(self):
        with pytest.raises(ValueError):
            EditTag(EditKind.KEEP, payload="x")
        with pytest.raises(ValueError):
            EditTag(EditKind.APPEND)
        with pytest.raises(ValueError):
            EditTag(EditKind.TRANSFORM)


class TestVocabulary:
    def test_top_k_by_count(self):
        counts = {"$KEEP": 10, "$DELETE": 5, "$APPEND_a": 3, "$REPLACE_b": 1}
        vocab = TagVocabulary.from_counts(counts, capacity=3)
        assert [serialize_tag(t) for t in vocab] == ["$KEEP", "$DELETE", "$APPEND_a"]

    def test_empty_counts(self):
        vocab = TagVocabulary.from_counts({}, capacity=5000)
        assert [serialize_tag(t) for t in vocab] == ["$KEEP", "$DELETE"]

    def test_lexicographic_tie_break(self):
        counts = {"$APPEND_x": 2, "$APPEND_a": 2}
        vocab = TagVocabulary.from_counts(counts, capacity=4)
        assert [serialize_tag(t) for t in vocab] == [
            "$KEEP", "$DELETE", "$APPEND_a", "$APPEND_x",
        ]

    def test_keep_delete_pinned_regardless_of_counts(self):
        vocab = TagVocabulary.from_counts({"$REPLACE_z": 99}, capacity=2)
        assert len(vocab) == 2
        assert vocab.id_of(KEEP_TAG) == 0
        assert vocab.id_of(DELETE_TAG) == 1

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            TagVocabulary.from_counts({}, capacity=1)

    def test_load_reads_crlf_as_lf(self, tmp_path):
        vocab = TagVocabulary.from_counts({"$APPEND_a": 2, "$REPLACE_b": 1}, capacity=10)
        path = tmp_path / "crlf.vocab"
        path.write_bytes(vocab.to_bytes().replace(b"\n", b"\r\n"))
        assert TagVocabulary.load(path).to_bytes() == vocab.to_bytes()

    def test_load_keeps_a_bare_cr_inside_its_line(self, tmp_path):
        path = tmp_path / "cr.vocab"
        path.write_bytes(b"$KEEP\n$DELETE\r$APPEND_a\n")
        with pytest.raises(MalformedTag):
            TagVocabulary.load(path)

    def test_file_bytes_deterministic(self, tmp_path):
        counts = {"$APPEND_a": 4, "$REPLACE_b": 2, "$APPEND_c": 4}
        a, b = tmp_path / "a.vocab", tmp_path / "b.vocab"
        TagVocabulary.from_counts(counts, capacity=10).save(a)
        TagVocabulary.from_counts(dict(reversed(counts.items())), capacity=10).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_load_roundtrip(self, tmp_path):
        vocab = TagVocabulary.from_counts({"$APPEND_a": 1}, capacity=10)
        path = tmp_path / "v.vocab"
        vocab.save(path)
        loaded = TagVocabulary.load(path)
        assert loaded.tags == vocab.tags
        assert loaded.sha256() == vocab.sha256()

    def test_line_number_is_id(self, tmp_path):
        vocab = TagVocabulary.from_counts({"$APPEND_a": 2, "$REPLACE_b": 1}, capacity=10)
        path = tmp_path / "v.vocab"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["$KEEP", "$DELETE", "$APPEND_a", "$REPLACE_b"]
        for i, line in enumerate(lines):
            assert vocab.id_of(parse_tag(line)) == i

    def test_index_inverse(self):
        vocab = TagVocabulary.from_counts({"$APPEND_a": 1, "$DELETE": 9}, capacity=5)
        for i, tag in enumerate(vocab):
            assert vocab.id_of(tag) == i
            assert vocab.tag_of(i) == tag
