"""Test-only tagger backends."""

import numpy as np

from tagsimp.core import EditTag
from tagsimp.tagger import TagPrediction, oracle_predict


class NoisyCorpusOracle:
    """Corpus oracle whose per-token predictions are randomly corrupted.

    With probability ``noise_prob`` a token's distribution row is replaced
    by a random distribution and its detection by a random value, fixed at
    construction time (same input always gets the same prediction).
    Sentences outside the corpus get clean all-KEEP predictions.
    """

    def __init__(self, pairs, vocab, noise_prob=0.2, seed=0, lexicon=None):
        self.vocab = vocab
        self.lexicon = lexicon
        rng = np.random.default_rng(seed)
        self.cached = {}
        for src, tgt in pairs:
            pred = oracle_predict(src, tgt, vocab, lexicon)
            detect = pred.detect.copy()
            dist = pred.dist.copy()
            for i in range(len(detect)):
                if rng.random() < noise_prob:
                    row = rng.random(len(vocab))
                    dist[i] = row / row.sum()
                    detect[i] = rng.random()
            self.cached[src.words()] = TagPrediction(detect=detect, dist=dist)

    def predict_batch(self, seqs):
        out = []
        for seq in seqs:
            pred = self.cached.get(seq.words())
            if pred is None:
                pred = oracle_predict(seq, seq, self.vocab, self.lexicon)
            out.append(pred)
        return out


class GrowingBackend:
    """Always appends one fixed word to the last token: never reaches a fixpoint.

    Keeps the engine busy for the full iteration budget, which makes the
    per-iteration cost of the loop measurable.
    """

    def __init__(self, vocab, word="again"):
        self.vocab = vocab
        self.append_id = vocab.id_of(EditTag.append(word))

    def predict_batch(self, seqs):
        out = []
        for seq in seqs:
            dist = np.zeros((len(seq), len(self.vocab)))
            dist[:, 0] = 1.0
            dist[-1, 0] = 0.0
            dist[-1, self.append_id] = 1.0
            detect = np.zeros(len(seq))
            detect[-1] = 1.0
            out.append(TagPrediction(detect=detect, dist=dist))
        return out


class AllKeepBackend:
    def __init__(self, vocab):
        self.vocab = vocab

    def predict_batch(self, seqs):
        out = []
        for seq in seqs:
            dist = np.zeros((len(seq), len(self.vocab)))
            dist[:, 0] = 1.0
            out.append(TagPrediction(detect=np.zeros(len(seq)), dist=dist))
        return out


class FailingBackend:
    """Raises for sentences containing a poison word; otherwise all-KEEP."""

    def __init__(self, vocab, poison="poison"):
        self.inner = AllKeepBackend(vocab)
        self.poison = poison

    def predict_batch(self, seqs):
        for seq in seqs:
            if self.poison in seq.words():
                raise RuntimeError(f"cannot tag {self.poison!r}")
        return self.inner.predict_batch(seqs)


class ShortListBackend:
    """All-KEEP, but drops the last prediction of every call."""

    def __init__(self, vocab):
        self.inner = AllKeepBackend(vocab)

    def predict_batch(self, seqs):
        return self.inner.predict_batch(seqs)[:-1]


def tag_accuracy(pred, gold_tags, vocab):
    """Fraction of positions whose unbiased argmax equals the gold tag."""
    ids = np.argmax(pred.dist, axis=1)
    gold = [vocab.id_of(t) for t in gold_tags]
    return float(np.mean([int(i) == g for i, g in zip(ids, gold)]))
