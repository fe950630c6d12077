"""Core domain types: tokens, edit tags, and the edit-tag vocabulary.

A sentence is a sequence of whitespace-free word tokens behind a synthetic
``$START`` sentinel at position 0.  The sentinel exists so that an APPEND
edit can insert material before the first real word.  Edit tags are a closed
set of per-token operations (keep, delete, append a word, replace with a
word, or apply a grammatical transform) with a stable textual serialization
such as ``$APPEND_just`` or ``$TRANSFORM_VERB_VB_VBZ``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MalformedTag

START_TEXT = "$START"


class EditKind(Enum):
    KEEP = "KEEP"
    DELETE = "DELETE"
    APPEND = "APPEND"
    REPLACE = "REPLACE"
    TRANSFORM = "TRANSFORM"


class TransformKind(Enum):
    """Token-independent grammatical transforms.

    Declaration order doubles as recognizer precedence during tag
    extraction, so it must stay stable.
    """

    CASE_CAPITAL = "CASE_CAPITAL"
    CASE_LOWER = "CASE_LOWER"
    CASE_UPPER = "CASE_UPPER"
    VERB_VB_VBZ = "VERB_VB_VBZ"
    VERB_VB_VBD = "VERB_VB_VBD"
    VERB_VBZ_VB = "VERB_VBZ_VB"
    VERB_VBD_VB = "VERB_VBD_VB"
    PLURAL = "PLURAL"
    SINGULAR = "SINGULAR"
    MERGE_SPACE = "MERGE_SPACE"
    MERGE_HYPHEN = "MERGE_HYPHEN"
    SPLIT_HYPHEN = "SPLIT_HYPHEN"


def _has_whitespace(word: str) -> bool:
    # For a non-empty word: str.split() splits exactly where str.isspace() holds.
    return word.split() != [word]


def _check_word(word: str, what: str) -> None:
    if not word:
        raise ValueError(f"{what} must be non-empty")
    if _has_whitespace(word):
        raise ValueError(f"{what} must not contain whitespace: {word!r}")


@dataclass(frozen=True)
class Token:
    """One word of a sentence; ``is_start`` marks the position-0 sentinel."""

    text: str
    is_start: bool = False

    def __post_init__(self) -> None:
        _check_word(self.text, "token text")
        if self.is_start and self.text != START_TEXT:
            raise ValueError(f"start sentinel must be {START_TEXT!r}, got {self.text!r}")


START_TOKEN = Token(START_TEXT, is_start=True)


@dataclass(frozen=True)
class TokenSeq:
    """A tokenized sentence: the start sentinel followed by the words."""

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        if not self.tokens or not self.tokens[0].is_start:
            raise ValueError("a TokenSeq must begin with the start sentinel")
        if any(tok.is_start for tok in self.tokens[1:]):
            raise ValueError("only position 0 may carry the start sentinel")

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "TokenSeq":
        return cls((START_TOKEN,) + tuple(Token(w) for w in words))

    def words(self) -> tuple[str, ...]:
        """Token texts without the sentinel."""
        return tuple(tok.text for tok in self.tokens[1:])

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __getitem__(self, i: int) -> Token:
        return self.tokens[i]


def tokenize(text: str) -> TokenSeq:
    """Split on runs of Unicode whitespace and prepend the sentinel."""
    return TokenSeq.from_words(text.split())


def detokenize(seq: TokenSeq) -> str:
    """Join the non-sentinel tokens with single spaces."""
    return " ".join(seq.words())


@dataclass(frozen=True)
class EditTag:
    """One edit operation attachable to a token position.

    ``payload`` is present exactly for APPEND/REPLACE and ``transform``
    exactly for TRANSFORM tags.
    """

    kind: EditKind
    payload: str | None = None
    transform: TransformKind | None = None

    def __post_init__(self) -> None:
        if self.kind in (EditKind.APPEND, EditKind.REPLACE):
            if self.payload is None:
                raise ValueError(f"{self.kind.value} tag requires a payload word")
            _check_word(self.payload, "tag payload")
            if self.transform is not None:
                raise ValueError("payload tags carry no transform")
        elif self.kind is EditKind.TRANSFORM:
            if self.transform is None:
                raise ValueError("TRANSFORM tag requires a transform kind")
            if self.payload is not None:
                raise ValueError("TRANSFORM tags carry no payload")
        else:
            if self.payload is not None or self.transform is not None:
                raise ValueError(f"{self.kind.value} tag carries no payload or transform")

    @classmethod
    def keep(cls) -> "EditTag":
        return KEEP_TAG

    @classmethod
    def delete(cls) -> "EditTag":
        return DELETE_TAG

    @classmethod
    def append(cls, word: str) -> "EditTag":
        return cls(EditKind.APPEND, payload=word)

    @classmethod
    def replace(cls, word: str) -> "EditTag":
        return cls(EditKind.REPLACE, payload=word)

    @classmethod
    def grammar(cls, transform: TransformKind) -> "EditTag":
        return cls(EditKind.TRANSFORM, transform=transform)


KEEP_TAG = EditTag(EditKind.KEEP)
DELETE_TAG = EditTag(EditKind.DELETE)

# A tag sequence annotates a TokenSeq position-for-position (sentinel included).
TagSeq = tuple[EditTag, ...]


def serialize_tag(tag: EditTag) -> str:
    if tag.kind is EditKind.KEEP:
        return "$KEEP"
    if tag.kind is EditKind.DELETE:
        return "$DELETE"
    if tag.kind is EditKind.APPEND:
        return f"$APPEND_{tag.payload}"
    if tag.kind is EditKind.REPLACE:
        return f"$REPLACE_{tag.payload}"
    assert tag.transform is not None
    return f"$TRANSFORM_{tag.transform.value}"


def parse_tag(s: str) -> EditTag:
    """Parse a serialized tag; inverse of :func:`serialize_tag`.

    Payloads may themselves contain underscores, so the split happens on
    the first underscore after the operation name.
    """
    if not s.startswith("$"):
        raise MalformedTag(f"tag must start with '$': {s!r}")
    body = s[1:]
    if body == "KEEP":
        return KEEP_TAG
    if body == "DELETE":
        return DELETE_TAG
    op, sep, rest = body.partition("_")
    if not sep or not rest:
        raise MalformedTag(f"missing payload in tag {s!r}")
    if op == "APPEND" or op == "REPLACE":
        if _has_whitespace(rest):
            raise MalformedTag(f"payload contains whitespace in tag {s!r}")
        return EditTag.append(rest) if op == "APPEND" else EditTag.replace(rest)
    if op == "TRANSFORM":
        try:
            return EditTag.grammar(TransformKind(rest))
        except ValueError:
            raise MalformedTag(f"unknown transform in tag {s!r}") from None
    raise MalformedTag(f"unknown operation in tag {s!r}")


class TagVocabulary:
    """Ordered, frequency-ranked closed set of edit tags with stable ids.

    Id 0 is always ``$KEEP`` and id 1 always ``$DELETE``; the remaining
    slots hold the most frequent tags of the corpus the vocabulary was
    built from, ties broken lexicographically on the serialized form.
    """

    def __init__(self, tags: Sequence[EditTag]):
        tags = tuple(tags)
        if len(tags) < 2 or tags[0] != KEEP_TAG or tags[1] != DELETE_TAG:
            raise ValueError("vocabulary must start with $KEEP, $DELETE")
        self.tags: tuple[EditTag, ...] = tags
        self.index: dict[EditTag, int] = {tag: i for i, tag in enumerate(tags)}
        if len(self.index) != len(tags):
            raise ValueError("vocabulary contains duplicate tags")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], capacity: int) -> "TagVocabulary":
        """Build from serialized-tag frequencies; KEEP/DELETE are always ids 0 and 1."""
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        ranked = sorted(
            (
                (-count, form)
                for form, count in counts.items()
                if form not in ("$KEEP", "$DELETE")
            ),
        )
        chosen = [parse_tag(form) for _, form in ranked[: capacity - 2]]
        return cls([KEEP_TAG, DELETE_TAG] + chosen)

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[EditTag]:
        return iter(self.tags)

    def __contains__(self, tag: EditTag) -> bool:
        return tag in self.index

    def id_of(self, tag: EditTag) -> int:
        return self.index[tag]

    def tag_of(self, tag_id: int) -> EditTag:
        return self.tags[tag_id]

    def to_bytes(self) -> bytes:
        """Canonical file encoding: one serialized tag per line, line number = id."""
        return "".join(serialize_tag(tag) + "\n" for tag in self.tags).encode("utf-8")

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "TagVocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
        return cls([parse_tag(line) for line in lines])
