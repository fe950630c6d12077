"""Corpus-level evaluation: SARI (overall and per-operation F1) and FKGL.

SARI follows the EASSE convention: correctly added, kept and deleted
n-grams (n = 1..4) of the system output are scored against the input and a
set of references with fractional reference counts, per-operation F1, and
corpus-level accumulation of the precision/recall numerators and
denominators.  A vacuous case (nothing to do and nothing done) scores
perfect agreement, so an output that equals a lone reference scores 100.

FKGL is the Flesch-Kincaid grade level over the system output only:
0.39 * words-per-sentence + 11.8 * syllables-per-word - 15.59, with a
small vowel-group syllable counter.  Lower means simpler.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import open_lines
from .errors import EmptyCorpus, NoWords

NGRAM_MAX = 4
_OPS = ("add", "keep", "delete")
_VOWELS = frozenset("aeiouy")


@dataclass(frozen=True)
class EvalRecord:
    """One evaluation unit: source sentence, system output, references."""

    source: str
    system: str
    references: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.references:
            raise ValueError("an EvalRecord needs at least one reference")


@dataclass(frozen=True)
class SariReport:
    """SARI scores on the 0..100 scale, with per-n components."""

    sari: float
    add_f1: float
    keep_f1: float
    del_f1: float
    add_by_n: tuple[float, float, float, float]
    keep_by_n: tuple[float, float, float, float]
    del_by_n: tuple[float, float, float, float]


def _ngrams(sentence: str, n: int) -> Counter:
    toks = sentence.split()
    return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))


class _PrTally:
    """Accumulated precision/recall numerators and denominators."""

    __slots__ = ("p_num", "p_den", "r_num", "r_den")

    def __init__(self) -> None:
        self.p_num = self.p_den = self.r_num = self.r_den = 0.0

    def f1(self) -> float:
        if self.p_den > 0:
            precision = self.p_num / self.p_den
        else:
            precision = 1.0 if self.r_den == 0 else 0.0
        if self.r_den > 0:
            recall = self.r_num / self.r_den
        else:
            recall = 1.0 if self.p_den == 0 else 0.0
        if precision == 0.0 and recall == 0.0:
            return 0.0
        return 2 * precision * recall / (precision + recall)


def _tally_record(tallies: dict, record: EvalRecord, n: int) -> None:
    src = _ngrams(record.source, n)
    out = _ngrams(record.system, n)
    numref = len(record.references)
    ref_total: Counter = Counter()
    for ref in record.references:
        ref_total.update(_ngrams(ref, n))
    ref = {g: c / numref for g, c in ref_total.items()}

    add = tallies["add"]
    candidates = set(out) - set(src)
    add.p_num += sum(1 for g in candidates if g in ref)
    add.p_den += len(candidates)
    add.r_num += sum(1 for g in candidates if g in ref)
    add.r_den += sum(1 for g in ref if g not in src)

    keep = tallies["keep"]
    for g, src_count in src.items():
        ref_count = ref.get(g, 0.0)
        cand = min(src_count, out.get(g, 0))
        if cand > 0:
            keep.p_num += min(cand, ref_count) / cand
            keep.p_den += 1
        keep.r_num += min(cand, ref_count)
        keep.r_den += min(src_count, ref_count)

    delete = tallies["delete"]
    for g, src_count in src.items():
        ref_count = ref.get(g, 0.0)
        cand = src_count - out.get(g, 0)
        good = max(0.0, cand - ref_count)
        alld = src_count - ref_count
        if cand > 0:
            delete.p_num += good / cand
            delete.p_den += 1
        if alld > 0:
            delete.r_num += good / alld
            delete.r_den += 1


def sari(records: Sequence[EvalRecord]) -> SariReport:
    """Corpus-level SARI over whitespace tokens, exactly as given."""
    if not records:
        raise EmptyCorpus("sari needs at least one record")
    by_n: dict[str, list[float]] = {op: [] for op in _OPS}
    for n in range(1, NGRAM_MAX + 1):
        tallies = {op: _PrTally() for op in _OPS}
        for record in records:
            _tally_record(tallies, record, n)
        for op in _OPS:
            by_n[op].append(tallies[op].f1() * 100.0)
    add_f1, keep_f1, del_f1 = (sum(by_n[op]) / NGRAM_MAX for op in _OPS)
    return SariReport(
        sari=(add_f1 + keep_f1 + del_f1) / 3.0,
        add_f1=add_f1,
        keep_f1=keep_f1,
        del_f1=del_f1,
        add_by_n=tuple(by_n["add"]),
        keep_by_n=tuple(by_n["keep"]),
        del_by_n=tuple(by_n["delete"]),
    )


def syllables(word: str) -> int:
    """Vowel-group syllable count with a terminal silent-e rule; minimum 1.

    A final 'e' is silent unless it closes a consonant + "le" cluster;
    tokens without any letters count as one syllable.
    """
    if not word:
        raise ValueError("syllables requires a non-empty word")
    w = word.lower()
    if not any(ch.isalpha() for ch in w):
        return 1
    groups = 0
    in_group = False
    for ch in w:
        if ch in _VOWELS:
            if not in_group:
                groups += 1
            in_group = True
        else:
            in_group = False
    silent_e = w.endswith("e") and not (
        len(w) >= 3 and w.endswith("le") and w[-3] not in _VOWELS
    )
    if silent_e and groups > 1:
        groups -= 1
    return max(groups, 1)


def fkgl(sentences: Sequence[str]) -> float:
    """Flesch-Kincaid grade level of the output sentences."""
    if not sentences:
        raise EmptyCorpus("fkgl needs at least one sentence")
    words = [w for sentence in sentences for w in sentence.split()]
    if not words:
        raise NoWords("fkgl needs at least one word")
    total_syllables = sum(syllables(w) for w in words)
    return (
        0.39 * (len(words) / len(sentences))
        + 11.8 * (total_syllables / len(words))
        - 15.59
    )


@dataclass(frozen=True)
class EvalReport:
    """SARI block plus readability and mean output length."""

    sari: SariReport
    fkgl: float | None
    mean_output_words: float

    def to_tsv(self) -> str:
        header = ["sari", "add_f1", "del_f1", "keep_f1", "fkgl", "mean_output_words"]
        fkgl_text = "" if self.fkgl is None else f"{self.fkgl:.4f}"
        row = [
            f"{self.sari.sari:.4f}",
            f"{self.sari.add_f1:.4f}",
            f"{self.sari.del_f1:.4f}",
            f"{self.sari.keep_f1:.4f}",
            fkgl_text,
            f"{self.mean_output_words:.4f}",
        ]
        return "\t".join(header) + "\n" + "\t".join(row) + "\n"

    def pretty(self) -> str:
        rows = [
            ("sari", f"{self.sari.sari:.2f}"),
            ("add_f1", f"{self.sari.add_f1:.2f}"),
            ("del_f1", f"{self.sari.del_f1:.2f}"),
            ("keep_f1", f"{self.sari.keep_f1:.2f}"),
        ]
        if self.fkgl is not None:
            rows.append(("fkgl", f"{self.fkgl:.2f}"))
        rows.append(("mean_output_words", f"{self.mean_output_words:.2f}"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def evaluate(records: Sequence[EvalRecord], with_fkgl: bool = True) -> EvalReport:
    report = sari(records)
    grade = fkgl([r.system for r in records]) if with_fkgl else None
    mean_len = sum(len(r.system.split()) for r in records) / len(records)
    return EvalReport(sari=report, fkgl=grade, mean_output_words=mean_len)


def read_eval_tsv(path) -> list[EvalRecord]:
    """source<TAB>system<TAB>ref1[<TAB>ref2 ...] per line."""
    records = []
    with open_lines(path) as lines:
        for lineno, line in enumerate(lines, 1):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                raise ValueError(f"{path}:{lineno}: need source, system and >=1 reference")
            records.append(EvalRecord(fields[0], fields[1], tuple(fields[2:])))
    return records
