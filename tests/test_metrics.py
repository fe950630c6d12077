import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from easse_standin import standin_sari
from sari_oracle import oracle_sari
from tagsimp.errors import EmptyCorpus, NoWords
from tagsimp.metrics import (
    EvalRecord,
    evaluate,
    fkgl,
    read_eval_tsv,
    sari,
    syllables,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Frozen from tests/sari_oracle.py on the toy record (worked by hand:
# add = 11/12, keep = 59/66, delete = 13/15, sari = 589/660).
TOY_RECORD = EvalRecord("a b c d", "a b d", ("a b d", "a d"))
TOY_EXPECTED = {
    "sari": 89.24242424242425,
    "add": 91.66666666666667,
    "keep": 89.39393939393939,
    "delete": 86.66666666666667,
}


class TestSari:
    def test_toy_record_frozen_value(self):
        report = sari([TOY_RECORD])
        assert report.sari == pytest.approx(TOY_EXPECTED["sari"], abs=1e-9)
        assert report.add_f1 == pytest.approx(TOY_EXPECTED["add"], abs=1e-9)
        assert report.keep_f1 == pytest.approx(TOY_EXPECTED["keep"], abs=1e-9)
        assert report.del_f1 == pytest.approx(TOY_EXPECTED["delete"], abs=1e-9)

    def test_perfect_match_scores_100_exactly(self):
        report = sari([EvalRecord("a b c d", "a b d", ("a b d",))])
        assert report.sari == 100.0
        assert report.add_f1 == 100.0 and report.keep_f1 == 100.0 and report.del_f1 == 100.0

    def test_identity_source_reference_scores_100_exactly(self):
        report = sari([EvalRecord("a b c", "a b c", ("a b c",))])
        assert report.sari == 100.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            sari([])

    def test_reference_permutation_invariance(self):
        refs = ("a b", "b c d", "a d")
        base = sari([EvalRecord("a b c", "a c", refs)])
        for perm in itertools.permutations(refs):
            assert sari([EvalRecord("a b c", "a c", perm)]).sari == pytest.approx(
                base.sari, abs=1e-12
            )

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(17)
        for _ in range(150):
            records = []
            for _ in range(rng.randint(1, 3)):
                def sent():
                    return " ".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
                records.append((sent(), sent(), [sent() for _ in range(rng.randint(1, 3))]))
            mine = sari([EvalRecord(s, o, tuple(r)) for s, o, r in records])
            expected = oracle_sari(records)
            assert mine.sari == pytest.approx(expected["sari"], abs=1e-9)
            assert mine.add_f1 == pytest.approx(expected["add"], abs=1e-9)
            assert mine.keep_f1 == pytest.approx(expected["keep"], abs=1e-9)
            assert mine.del_f1 == pytest.approx(expected["delete"], abs=1e-9)

    def test_reference_lineage_anchor(self):
        # documented output of the public reference implementations for this
        # example (deletion scored by precision in that lineage)
        anchor = [(
            "About 95 species are currently accepted .",
            "About 95 you now get in .",
            ["About 95 species are currently known .",
             "About 95 species are now accepted .",
             "95 species are now accepted ."],
        )]
        assert standin_sari(anchor, f1_deletion=False)["sari"] == pytest.approx(
            26.953601953601954, abs=1e-9
        )

    def test_crosscheck_fixture_within_tolerance(self):
        fixture = json.loads((FIXTURES / "sari_crosscheck.json").read_text())
        records = [
            EvalRecord(r["source"], r["system"], tuple(r["references"]))
            for r in fixture["records"]
        ]
        report = sari(records)
        assert report.sari == pytest.approx(fixture["expected"]["sari"], abs=0.1)

    @settings(max_examples=100)
    @given(st.data())
    def test_scores_bounded(self, data):
        words = st.sampled_from(["a", "b", "c"])
        sent = st.lists(words, max_size=5).map(" ".join)
        record = EvalRecord(
            data.draw(sent), data.draw(sent),
            tuple(data.draw(st.lists(sent, min_size=1, max_size=3))),
        )
        report = sari([record])
        for value in (report.sari, report.add_f1, report.keep_f1, report.del_f1):
            assert 0.0 <= value <= 100.0


class TestSyllables:
    @pytest.mark.parametrize(
        "word,count",
        [("cat", 1), ("simple", 2), (",", 1), ("the", 1), ("table", 2),
         ("ale", 1), ("style", 1), ("readability", 5), ("queue", 1), ("a", 1)],
    )
    def test_examples(self, word, count):
        assert syllables(word) == count

    def test_always_positive(self):
        for word in ("b", "zzz", "''", "x-y", "mmm"):
            assert syllables(word) >= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            syllables("")


class TestFkgl:
    def test_four_monosyllables(self):
        assert fkgl(["a a a a"]) == pytest.approx(-2.23, abs=1e-9)

    def test_duplication_invariance_exact(self):
        corpus = ["the cat sat on the mat .", "dogs bark loudly ."]
        assert fkgl(corpus) == fkgl(corpus * 2)

    def test_simpler_output_scores_lower(self, example_pairs):
        originals = [src for src, _ in example_pairs]
        simplified = [tgt for _, tgt in example_pairs]
        assert fkgl(simplified) < fkgl(originals)

    def test_monotone_in_sentence_length(self):
        short = ["a b", "c d"]
        long = ["a b c d", "c d a b"]
        assert fkgl(short) < fkgl(long)

    def test_errors(self):
        with pytest.raises(EmptyCorpus):
            fkgl([])
        with pytest.raises(NoWords):
            fkgl(["", " "])


class TestEvaluate:
    def test_identity_keeps_most(self):
        records = [EvalRecord("a b c", "a b c", ("a b", "a b c d"))]
        report = evaluate(records, with_fkgl=False)
        assert report.sari.keep_f1 >= report.sari.add_f1
        assert report.sari.keep_f1 >= report.sari.del_f1
        assert report.fkgl is None

    def test_mean_output_length(self):
        records = [
            EvalRecord("x", "a b", ("a",)),
            EvalRecord("y", "a b c d", ("a",)),
        ]
        assert evaluate(records).mean_output_words == 3.0

    def test_tsv_stable(self):
        records = [EvalRecord("a b", "a", ("a",))]
        a = evaluate(records).to_tsv()
        b = evaluate(records).to_tsv()
        assert a == b
        header, row = a.strip().split("\n")
        assert header.split("\t") == [
            "sari", "add_f1", "del_f1", "keep_f1", "fkgl", "mean_output_words",
        ]
        assert len(row.split("\t")) == 6

    def test_pretty_contains_scores(self):
        text = evaluate([EvalRecord("a b", "a b", ("a b",))]).pretty()
        assert "sari" in text and "100.00" in text


class TestEvalTsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "eval.tsv"
        path.write_text("a b\ta\ta\ta b\n\nx\tx\tx\n", encoding="utf-8")
        assert read_eval_tsv(path) == [
            EvalRecord("a b", "a", ("a", "a b")),
            EvalRecord("x", "x", ("x",)),
        ]

    @pytest.mark.parametrize("text, records", [
        (b"a b\rc\ta b\ta b\n", [EvalRecord("a b\rc", "a b", ("a b",))]),
        (b"a b\ta\ta\r\nx\tx\tx\r\n", [EvalRecord("a b", "a", ("a",)), EvalRecord("x", "x", ("x",))]),
    ], ids=["bare-cr", "crlf"])
    def test_a_line_ends_only_at_lf(self, tmp_path, text, records):
        path = tmp_path / "eval.tsv"
        path.write_bytes(text)
        assert read_eval_tsv(path) == records

    def test_too_few_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_eval_tsv(path)
