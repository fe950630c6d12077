"""Deterministic synthetic parallel corpus for roundtrip and engine tests.

Pairs are built by mutating a random source sentence with deletions,
substitutions and insert runs.  Adjacent edits can concatenate insert runs
in the alignment, so each pair is rejection-sampled until its actual
longest insert run stays within ``max_insert_run``; this keeps every pair
reachable inside the engine's iteration range.
"""

import random

from tagsimp.align import AlignKind, align
from tagsimp.core import tokenize

WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
]


def longest_insert_run(ops) -> int:
    """Length of the longest run of consecutive INSERT ops in an alignment."""
    best = run = 0
    for op in ops:
        run = run + 1 if op.kind is AlignKind.INSERT else 0
        best = max(best, run)
    return best


def _mutate(rng, max_insert_run):
    length = rng.randint(1, 12)
    src = [rng.choice(WORDS) for _ in range(length)]
    tgt = []
    for word in src:
        roll = rng.random()
        if roll < 0.15:
            continue  # delete
        if roll < 0.30:
            tgt.append(rng.choice(WORDS))  # substitute
        else:
            tgt.append(word)
        if rng.random() < 0.20:
            for _ in range(rng.randint(1, max_insert_run)):
                tgt.append(rng.choice(WORDS))
    if rng.random() < 0.15:  # insert run before the first word
        tgt = [rng.choice(WORDS) for _ in range(rng.randint(1, max_insert_run))] + tgt
    return " ".join(src), " ".join(tgt)


def synthetic_pairs(n_pairs: int, seed: int, max_insert_run: int = 4):
    """Yield (source_sentence, target_sentence) strings."""
    rng = random.Random(seed)
    for _ in range(n_pairs):
        while True:
            src, tgt = _mutate(rng, max_insert_run)
            ops = align(tokenize(src), tokenize(tgt))
            if longest_insert_run(ops) <= max_insert_run:
                yield src, tgt
                break
