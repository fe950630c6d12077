"""Seeded synthetic parallel corpus for the benchmark workloads.

The lexicon holds LEXICON_SIZE lowercase consonant-vowel words, so no two
words are related by a case, plural or verb transform and every edit
extracts as KEEP, DELETE, APPEND or REPLACE.  Each word has a role fixed by
the seed: complex words are rewritten to a fixed simpler synonym and filler
words are dropped, which gives a trained tagger real patterns to learn.
Random substitutions and insertions spread APPEND/REPLACE payloads over the
whole lexicon, so a vocabulary built from the training split fills to its
full width (about 4.4k-5k tags), which sets the width of every dense row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LEXICON_SIZE = 3000
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
COMPLEX_SHARE = 0.20
FILLER_SHARE = 0.08
RULE_RATE = 0.9
SUB_NOISE = 0.15
INS_NOISE = 0.15
MIN_WORDS, MAX_WORDS = 6, 16


def make_lexicon(rng: random.Random) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words: set[str] = set()
    while len(words) < LEXICON_SIZE:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(2, 3))))
    return sorted(words)


@dataclass(frozen=True)
class Generator:
    """Draws (source, target) sentence pairs from one seeded lexicon."""

    lexicon: tuple[str, ...]
    synonyms: dict[str, str]
    fillers: frozenset[str]

    @classmethod
    def from_seed(cls, seed: int) -> "Generator":
        rng = random.Random(seed)
        lexicon = make_lexicon(rng)
        shuffled = lexicon[:]
        rng.shuffle(shuffled)
        n_complex = int(COMPLEX_SHARE * len(lexicon))
        n_filler = int(FILLER_SHARE * len(lexicon))
        complex_words = shuffled[:n_complex]
        fillers = shuffled[n_complex : n_complex + n_filler]
        plain = shuffled[n_complex + n_filler :]
        synonyms = {w: rng.choice(plain) for w in complex_words}
        return cls(tuple(lexicon), synonyms, frozenset(fillers))

    def pair(self, rng: random.Random, length: int) -> tuple[str, str]:
        src = [rng.choice(self.lexicon) for _ in range(length)]
        tgt: list[str] = []
        for word in src:
            if word in self.fillers and rng.random() < RULE_RATE:
                continue
            if word in self.synonyms and rng.random() < RULE_RATE:
                tgt.append(self.synonyms[word])
            elif rng.random() < SUB_NOISE:
                tgt.append(rng.choice(self.lexicon))
            else:
                tgt.append(word)
            if rng.random() < INS_NOISE:
                tgt.append(rng.choice(self.lexicon))
        return " ".join(src), " ".join(tgt)

    def pairs(self, n: int, rng: random.Random) -> list[tuple[str, str]]:
        """``n`` pairs whose source lengths cycle evenly through the length range.

        Only the order of the lengths is random, so every seed gives the same
        number of input words.
        """
        span = MAX_WORDS - MIN_WORDS + 1
        lengths = [MIN_WORDS + i % span for i in range(n)]
        rng.shuffle(lengths)
        return [self.pair(rng, length) for length in lengths]
