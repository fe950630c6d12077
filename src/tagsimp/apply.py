"""Tag application: the interpreter that turns (sentence, tag sequence) into
the edited sentence, plus the grammatical transforms and their recognizers.

Verb-form transforms are lexicon-driven (see :class:`VerbLexicon`); words
missing from the lexicon pass through unchanged.  Plural/singular transforms
are suffix heuristics and deliberately approximate.  MERGE transforms join
the tagged token with the next emitted token; SPLIT_HYPHEN breaks a token
at its hyphens.
"""

from __future__ import annotations

from importlib import resources
from typing import Callable, Iterable

from .core import (
    START_TOKEN,
    EditKind,
    EditTag,
    TagSeq,
    Token,
    TokenSeq,
    TransformKind,
    open_lines,
)
from .errors import LengthMismatch

_VOWELS = "aeiou"
_ES_SUFFIXES = ("s", "x", "z", "ch", "sh")


class VerbLexicon:
    """Verb inflection table: ``base<TAB>form_tag<TAB>inflected`` per line."""

    def __init__(self, rows: Iterable[tuple[str, str, str]] = ()):
        self._inflect: dict[tuple[str, str], str] = {}
        self._uninflect: dict[tuple[str, str], str] = {}
        for base, form, inflected in rows:
            self._inflect[(base, form)] = inflected
            self._uninflect[(inflected, form)] = base

    @classmethod
    def from_path(cls, path) -> "VerbLexicon":
        with open_lines(path) as lines:
            return cls._from_lines(lines)

    @classmethod
    def _from_lines(cls, lines: Iterable[str]) -> "VerbLexicon":
        rows = []
        for line in lines:
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"verb lexicon line needs 3 tab-separated fields: {line!r}")
            rows.append((parts[0], parts[1], parts[2]))
        return cls(rows)

    def inflect(self, base: str, form: str) -> str | None:
        return self._inflect.get((base, form))

    def uninflect(self, inflected: str, form: str) -> str | None:
        return self._uninflect.get((inflected, form))


_default_lexicon: VerbLexicon | None = None


def default_lexicon() -> VerbLexicon:
    """The packaged verb-form lexicon, loaded once."""
    global _default_lexicon
    if _default_lexicon is None:
        data = resources.files("tagsimp").joinpath("data/verb_forms.tsv")
        _default_lexicon = VerbLexicon._from_lines(data.read_text(encoding="utf-8").splitlines())
    return _default_lexicon


def _pluralize(word: str) -> str:
    if word.endswith("y") and len(word) > 1 and word[-2].lower() not in _VOWELS:
        return word[:-1] + "ies"
    if word.endswith(_ES_SUFFIXES):
        return word + "es"
    return word + "s"


def _singularize(word: str) -> str | None:
    if word.endswith("ies") and len(word) > 3:
        return word[:-3] + "y"
    if word.endswith("es") and word[:-2].endswith(_ES_SUFFIXES):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 1:
        return word[:-1]
    return None


def merge_separator(kind: TransformKind) -> str | None:
    if kind is TransformKind.MERGE_SPACE:
        return ""
    if kind is TransformKind.MERGE_HYPHEN:
        return "-"
    return None


# The one-word output of each 1:1 transform, given the text and the lexicon.
_WORD_TRANSFORMS: dict[TransformKind, Callable[[str, VerbLexicon], str]] = {
    TransformKind.CASE_CAPITAL: lambda text, lex: text[:1].upper() + text[1:],
    TransformKind.CASE_LOWER: lambda text, lex: text.lower(),
    TransformKind.CASE_UPPER: lambda text, lex: text.upper(),
    TransformKind.VERB_VB_VBZ: lambda text, lex: lex.inflect(text, "VBZ") or text,
    TransformKind.VERB_VB_VBD: lambda text, lex: lex.inflect(text, "VBD") or text,
    TransformKind.VERB_VBZ_VB: lambda text, lex: lex.uninflect(text, "VBZ") or text,
    TransformKind.VERB_VBD_VB: lambda text, lex: lex.uninflect(text, "VBD") or text,
    TransformKind.PLURAL: lambda text, lex: _pluralize(text),
    TransformKind.SINGULAR: lambda text, lex: _singularize(text) or text,
}


def apply_transform(
    kind: TransformKind,
    token: Token,
    *,
    lookahead: Token | None = None,
    lexicon: VerbLexicon | None = None,
) -> list[Token]:
    """Apply one grammatical transform to a token.

    Returns the replacement tokens; an inapplicable transform returns the
    token unchanged.  MERGE kinds join with ``lookahead`` when one is given
    and are inapplicable otherwise.
    """
    if token.is_start:
        raise ValueError("transforms do not apply to the start sentinel")
    text = token.text

    sep = merge_separator(kind)
    if sep is not None:
        if lookahead is None:
            return [token]
        return [Token(text + sep + lookahead.text)]

    if kind is TransformKind.SPLIT_HYPHEN:
        parts = [p for p in text.split("-") if p]
        if len(parts) < 2:
            return [token]
        return [Token(p) for p in parts]
    lex = lexicon if lexicon is not None else default_lexicon()
    return [Token(_WORD_TRANSFORMS[kind](text, lex))]


# The 1:1 transforms in declaration order, which is recognizer precedence.  MERGE
# and SPLIT change token counts, so they cannot explain a one-word substitution.
RECOGNIZER_KINDS = tuple(k for k in TransformKind if k in _WORD_TRANSFORMS)


def recognize_substitution(
    src_word: str, tgt_word: str, lexicon: VerbLexicon | None = None
) -> TransformKind | None:
    """First transform (in declaration order) that maps ``src_word`` to ``tgt_word``."""
    if src_word == tgt_word:
        return None
    lex = lexicon if lexicon is not None else default_lexicon()
    for kind in RECOGNIZER_KINDS:
        if _WORD_TRANSFORMS[kind](src_word, lex) == tgt_word:
            return kind
    return None


def apply_tags(
    seq: TokenSeq, tags: TagSeq, lexicon: VerbLexicon | None = None
) -> TokenSeq:
    """Execute a tag sequence against a sentence, left to right.

    KEEP emits the token, DELETE emits nothing, REPLACE emits its payload,
    APPEND emits the token then its payload, TRANSFORM emits the transform
    output.  The sentinel is always preserved: only an APPEND on it has an
    effect (inserting at position 1).  A MERGE transform joins its token
    with the next emitted token, whatever position that token comes from.
    """
    if len(tags) != len(seq):
        raise LengthMismatch(f"{len(tags)} tags for {len(seq)} tokens")

    out: list[Token] = []
    pending_sep: str | None = None

    def emit(tok: Token) -> None:
        nonlocal pending_sep
        if pending_sep is not None:
            out[-1] = Token(out[-1].text + pending_sep + tok.text)
            pending_sep = None
        else:
            out.append(tok)

    for i, (token, tag) in enumerate(zip(seq, tags)):
        if i == 0:
            # Sentinel: preserved regardless; APPEND inserts at position 1.
            if tag.kind is EditKind.APPEND:
                emit(Token(tag.payload))
            continue
        if tag.kind is EditKind.KEEP:
            emit(token)
        elif tag.kind is EditKind.DELETE:
            pass
        elif tag.kind is EditKind.REPLACE:
            emit(Token(tag.payload))
        elif tag.kind is EditKind.APPEND:
            emit(token)
            emit(Token(tag.payload))
        else:
            sep = merge_separator(tag.transform)
            if sep is not None:
                emit(token)
                pending_sep = sep
            else:
                for tok in apply_transform(tag.transform, token, lexicon=lexicon):
                    emit(tok)

    # A merge with nothing following is inapplicable; the token already stands.
    return TokenSeq((START_TOKEN,) + tuple(out))
