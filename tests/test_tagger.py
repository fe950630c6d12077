import itertools

import numpy as np
import pytest

from conftest import vocab_for
from tagsimp.core import EditTag, serialize_tag, tokenize
from tagsimp.errors import InvariantViolation, ShapeMismatch
from tagsimp.tagger import (
    CorpusOracleBackend,
    OracleBackend,
    TagPrediction,
    ensemble_combine,
    oracle_predict,
)


class TestTagPrediction:
    def test_row_sum_enforced(self):
        with pytest.raises(InvariantViolation):
            TagPrediction(detect=np.zeros(1), dist=np.array([[0.25, 0.25]]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            TagPrediction(detect=np.zeros(2), dist=np.array([[1.0, 0.0]]))

    def test_detect_range(self):
        with pytest.raises(InvariantViolation):
            TagPrediction(detect=np.array([1.5]), dist=np.array([[1.0, 0.0]]))

    def test_nan_detect_rejected(self):
        # A NaN detection fails every comparison, so it would slip past the
        # minimum-edit gate if it were accepted.
        with pytest.raises(InvariantViolation, match="outside"):
            TagPrediction(detect=np.array([np.nan, 0.0]), dist=np.array([[1.0, 0.0]] * 2))

    @pytest.mark.parametrize("row", [[np.nan, 1.0], [np.nan, np.nan]])
    def test_non_finite_dist_row_rejected(self, row):
        with pytest.raises(InvariantViolation):
            TagPrediction(detect=np.zeros(2), dist=np.array([[1.0, 0.0], row]))


class TestOraclePredict:
    def test_identical_pair(self):
        vocab = vocab_for([("a b", "a b")])
        pred = oracle_predict(tokenize("a b"), tokenize("a b"), vocab)
        assert pred.detect.tolist() == [0.0, 0.0, 0.0]
        assert np.argmax(pred.dist, axis=1).tolist() == [0, 0, 0]

    def test_deletion_pair(self):
        vocab = vocab_for([("a b", "a")])
        pred = oracle_predict(tokenize("a b"), tokenize("a"), vocab)
        assert pred.detect.tolist() == [0.0, 0.0, 1.0]
        assert np.argmax(pred.dist, axis=1).tolist() == [0, 0, 1]

    def test_example_pair_one_hot_replace(self, example_pairs, example_vocab):
        src, tgt = example_pairs[0]
        pred = oracle_predict(tokenize(src), tokenize(tgt), example_vocab)
        position = tokenize(src).words().index("completed") + 1
        tag_id = int(np.argmax(pred.dist[position]))
        assert serialize_tag(example_vocab.tag_of(tag_id)) == "$REPLACE_wrote"
        assert pred.detect[position] == 1.0

    def test_rows_are_one_hot(self, example_pairs, example_vocab):
        for src, tgt in example_pairs:
            pred = oracle_predict(tokenize(src), tokenize(tgt), example_vocab)
            assert np.all(np.isin(pred.dist, [0.0, 1.0]))
            assert np.allclose(pred.dist.sum(axis=1), 1.0)


class TestEnsembleCombine:
    def one_hot(self, ids, n):
        dist = np.zeros((len(ids), n))
        for i, j in enumerate(ids):
            dist[i, j] = 1.0
        return TagPrediction(detect=np.zeros(len(ids)), dist=dist)

    def test_mean_of_one_is_identity(self):
        p = self.one_hot([0, 1], 3)
        combined = ensemble_combine([p])
        assert np.array_equal(combined.dist, p.dist)
        assert np.array_equal(combined.detect, p.detect)

    def test_two_model_average(self):
        a = self.one_hot([0], 2)
        b = self.one_hot([1], 2)
        combined = ensemble_combine([a, b])
        assert combined.dist.tolist() == [[0.5, 0.5]]

    def test_majority_over_all_one_hot_triples(self):
        # argmax of the mean equals the majority vote whenever one exists
        for votes in itertools.product([0, 1], repeat=3):
            preds = [self.one_hot([v], 2) for v in votes]
            combined = ensemble_combine(preds)
            majority = int(sum(votes) >= 2)
            assert int(np.argmax(combined.dist[0])) == majority

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = []
        for _ in range(3):
            rows = rng.random((4, 5))
            rows /= rows.sum(axis=1, keepdims=True)
            preds.append(TagPrediction(detect=rng.random(4), dist=rows))
        a = ensemble_combine(preds)
        b = ensemble_combine(preds[::-1])
        assert np.allclose(a.dist, b.dist) and np.allclose(a.detect, b.detect)

    def test_idempotent_on_identical_inputs(self):
        p = self.one_hot([1, 0], 2)
        combined = ensemble_combine([p, p, p])
        assert np.array_equal(combined.dist, p.dist)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ensemble_combine([self.one_hot([0], 2), self.one_hot([0, 1], 2)])
        with pytest.raises(ShapeMismatch):
            ensemble_combine([])


class TestBackends:
    def test_oracle_backend_tracks_fixed_target(self):
        vocab = vocab_for([("a b c", "a c x"), ("a c", "a c x")])
        backend = OracleBackend(tokenize("a c x"), vocab)
        pred = backend.predict_batch([tokenize("a b c")])[0]
        assert np.argmax(pred.dist, axis=1).tolist() != [0, 0, 0, 0]
        # intermediate state still aims at the same target
        pred2 = backend.predict_batch([tokenize("a c")])[0]
        tag = vocab.tag_of(int(np.argmax(pred2.dist[2])))
        assert tag == EditTag.append("x")

    def test_corpus_oracle_fallback_all_keep(self):
        vocab = vocab_for([("a b", "a")])
        backend = CorpusOracleBackend([(tokenize("a b"), tokenize("a"))], vocab)
        known = backend.predict_batch([tokenize("a b")])[0]
        assert np.argmax(known.dist, axis=1).tolist() == [0, 0, 1]
        unknown = backend.predict_batch([tokenize("z z z")])[0]
        assert np.argmax(unknown.dist, axis=1).tolist() == [0, 0, 0, 0]
        assert unknown.detect.tolist() == [0.0, 0.0, 0.0, 0.0]
