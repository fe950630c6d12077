"""Word-level alignment of sentence pairs and extraction of per-token edit tags.

The aligner is a unit-cost Levenshtein DP over words with a fixed backtrace
preference (EQUAL/SUBSTITUTE over DELETE over INSERT at ties).  That
preference pushes every run of insertions leftward until it sits right
after a matching word (or at the sentence start), which is what lets the
extracted tags attach an APPEND to a kept token and converge over
iterations: each pass realizes one token of every insert run, so a pair is
reconstructed in at most ``max(1, longest insert run)`` passes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .apply import VerbLexicon, recognize_substitution
from .core import (
    EditTag,
    KEEP_TAG,
    TagSeq,
    TagVocabulary,
    Token,
    TokenSeq,
    open_lines,
    serialize_tag,
)

OPEN_BRACKET = "-LRB-"
CLOSE_BRACKET = "-RRB-"


class AlignKind(Enum):
    EQUAL = "EQUAL"
    SUBSTITUTE = "SUBSTITUTE"
    DELETE = "DELETE"
    INSERT = "INSERT"


@dataclass(frozen=True)
class AlignOp:
    """One alignment step over word positions (sentinels excluded)."""

    kind: AlignKind
    src_index: int | None = None
    tgt_index: int | None = None

    def __post_init__(self) -> None:
        has_src = self.src_index is not None
        has_tgt = self.tgt_index is not None
        if self.kind in (AlignKind.EQUAL, AlignKind.SUBSTITUTE) and not (has_src and has_tgt):
            raise ValueError(f"{self.kind.value} needs both indices")
        if self.kind is AlignKind.DELETE and (not has_src or has_tgt):
            raise ValueError("DELETE carries only src_index")
        if self.kind is AlignKind.INSERT and (has_src or not has_tgt):
            raise ValueError("INSERT carries only tgt_index")


def align(src: TokenSeq, tgt: TokenSeq) -> list[AlignOp]:
    """Minimum-edit alignment of the word lists with a deterministic backtrace."""
    a = src.words()
    b = tgt.words()
    n, m = len(a), len(b)
    dist = [list(range(m + 1))] + [[i] + [0] * m for i in range(1, n + 1)]
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        ai = a[i - 1]
        left = i
        # min(diag, up, left) compared inline: a call per cell dominates the DP.
        for j in range(1, m + 1):
            cell = prev[j - 1] if ai == b[j - 1] else prev[j - 1] + 1
            up = prev[j] + 1
            if up < cell:
                cell = up
            if left + 1 < cell:
                cell = left + 1
            row[j] = left = cell

    ops: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            equal = a[i - 1] == b[j - 1]
            if dist[i][j] == dist[i - 1][j - 1] + (0 if equal else 1):
                kind = AlignKind.EQUAL if equal else AlignKind.SUBSTITUTE
                ops.append(AlignOp(kind, src_index=i - 1, tgt_index=j - 1))
                i -= 1
                j -= 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(AlignOp(AlignKind.DELETE, src_index=i - 1))
            i -= 1
            continue
        ops.append(AlignOp(AlignKind.INSERT, tgt_index=j - 1))
        j -= 1
    ops.reverse()
    return ops


def extract_tags(
    src: TokenSeq,
    tgt: TokenSeq,
    vocab: TagVocabulary | None = None,
    lexicon: VerbLexicon | None = None,
) -> TagSeq:
    """Derive one edit tag per source position (sentinel included).

    Substitutions become a grammatical TRANSFORM when a recognizer exactly
    explains the change, otherwise REPLACE.  Only the first token of an
    insert run becomes an APPEND (on the word it follows, or on the
    sentinel); the rest of the run is left to later passes.  With a
    vocabulary, out-of-vocabulary tags degrade to KEEP.
    """
    tags: list[EditTag] = [KEEP_TAG] * len(src)
    tgt_words = tgt.words()
    last_src = -1  # word index of the last consumed source token
    prev_was_insert = False
    for op in align(src, tgt):
        if op.kind is AlignKind.INSERT:
            if not prev_was_insert:
                tags[last_src + 1] = EditTag.append(tgt_words[op.tgt_index])
            prev_was_insert = True
            continue
        prev_was_insert = False
        if op.kind is AlignKind.EQUAL:
            tags[op.src_index + 1] = KEEP_TAG
        elif op.kind is AlignKind.DELETE:
            tags[op.src_index + 1] = EditTag.delete()
        else:
            src_word = src[op.src_index + 1].text
            tgt_word = tgt_words[op.tgt_index]
            kind = recognize_substitution(src_word, tgt_word, lexicon)
            tags[op.src_index + 1] = (
                EditTag.grammar(kind) if kind is not None else EditTag.replace(tgt_word)
            )
        last_src = op.src_index
    if vocab is not None:
        tags = [tag if tag in vocab else KEEP_TAG for tag in tags]
    return tuple(tags)


def build_vocab(
    corpus: Iterable[tuple[TokenSeq, TokenSeq]],
    capacity: int,
    lexicon: VerbLexicon | None = None,
) -> TagVocabulary:
    """Count extracted tags over a parallel corpus and rank them."""
    counts: Counter[str] = Counter()
    for src, tgt in corpus:
        counts.update(serialize_tag(tag) for tag in extract_tags(src, tgt, lexicon=lexicon))
    return TagVocabulary.from_counts(counts, capacity)


def filter_brackets(seq: TokenSeq) -> TokenSeq:
    """Drop every span opened by ``-LRB-`` and closed by its matching ``-RRB-``.

    Nesting is handled by depth counting; an unmatched opener removes
    through the end of the sentence and an unmatched closer is removed
    alone.
    """
    kept: list[Token] = []
    depth = 0
    for tok in seq.tokens[1:]:
        if tok.text == OPEN_BRACKET:
            depth += 1
        elif tok.text == CLOSE_BRACKET:
            if depth > 0:
                depth -= 1
        elif depth == 0:
            kept.append(tok)
    return TokenSeq((seq.tokens[0],) + tuple(kept))


class PairReader:
    """Streams ``source<TAB>target`` pairs from a UTF-8 TSV file.

    Lines that do not have exactly two fields are skipped; the running
    number of skipped lines is kept in :attr:`skipped`.
    """

    def __init__(self, path):
        self.path = path
        self.skipped = 0

    def __iter__(self) -> Iterator[tuple[str, str]]:
        with open_lines(self.path) as lines:
            for line in lines:
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    self.skipped += 1
                    continue
                yield fields[0], fields[1]
