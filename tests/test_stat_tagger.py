import warnings

import numpy as np
import pytest

from conftest import vocab_for
from tagsimp.core import tokenize
from tagsimp.errors import EmptyCorpus
from tagsimp.stat_tagger import StatTaggerModel, sentence_features, stat_train

DIM = 2 ** 12  # small hash space keeps these tests quick


def pairs_of(text_pairs):
    return [(tokenize(s), tokenize(t)) for s, t in text_pairs]


class TestFeatures:
    def test_window_and_affixes(self):
        feats = sentence_features(tokenize("alpha beta gamma"))[2]
        assert "w=beta" in feats
        assert "lw=beta" in feats
        assert "w-1=alpha" in feats
        assert "w+1=gamma" in feats
        assert "w-2=$START" in feats
        assert "w+2=<pad>" in feats
        assert "pre3=bet" in feats and "suf3=eta" in feats

    def test_sentinel_marker(self):
        feats = sentence_features(tokenize("a"))[0]
        assert "start" in feats


class TestTraining:
    def test_memorizes_single_pattern(self):
        corpus = pairs_of([("a b", "a")] * 200)
        vocab = vocab_for([("a b", "a")])
        model = stat_train(corpus, vocab, epochs=3, learning_rate=0.5, seed=1, dim=DIM)
        pred = model.predict_batch([tokenize("a b")])[0]
        assert np.argmax(pred.dist, axis=1).tolist() == [0, 0, 1]  # KEEP KEEP DELETE
        assert pred.detect[2] > 0.9

    def test_zero_epochs_uniform(self):
        vocab = vocab_for([("a b", "b a x")])
        model = stat_train(pairs_of([("a b", "b a x")]), vocab, epochs=0,
                           learning_rate=0.1, seed=1, dim=DIM)
        pred = model.predict_batch([tokenize("a b")])[0]
        assert np.all(np.abs(pred.dist - 1.0 / len(vocab)) < 1e-6)

    def test_same_seed_byte_identical_files(self, tmp_path):
        corpus = [("a b c", "a c"), ("x y", "x")]
        vocab = vocab_for(corpus)
        a_path, b_path = tmp_path / "a.model", tmp_path / "b.model"
        stat_train(pairs_of(corpus), vocab, epochs=2, learning_rate=0.2, seed=7,
                   dim=DIM).save(a_path)
        stat_train(pairs_of(corpus), vocab, epochs=2, learning_rate=0.2, seed=7,
                   dim=DIM).save(b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        corpus = [("a b c", "a c"), ("x y", "x")]
        vocab = vocab_for(corpus)
        a = stat_train(pairs_of(corpus), vocab, epochs=2, learning_rate=0.2, seed=7, dim=DIM)
        b = stat_train(pairs_of(corpus), vocab, epochs=2, learning_rate=0.2, seed=8, dim=DIM)
        assert not np.array_equal(a.cls_weights, b.cls_weights)

    def test_loss_non_increasing_on_one_pattern(self):
        corpus = pairs_of([("a b", "a")] * 50)
        vocab = vocab_for([("a b", "a")])
        model = stat_train(corpus, vocab, epochs=8, learning_rate=0.05, seed=3, dim=DIM)
        losses = model.epoch_losses
        assert len(losses) == 8
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))

    def test_empty_corpus(self):
        vocab = vocab_for([("a", "a")])
        with pytest.raises(EmptyCorpus):
            stat_train([], vocab, epochs=1, learning_rate=0.1, seed=1, dim=DIM)


class TestPredict:
    def test_saturated_detection_is_zero_without_warning(self):
        model = StatTaggerModel(n_classes=3, hash_seed=0, dim=8)
        model.det_bias = -1000.0  # exp(1000) overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (pred,) = model.predict_batch([tokenize("a b")])
        assert pred.detect.tolist() == [0.0, 0.0, 0.0]


class TestModelFile:
    def test_save_load_roundtrip_predictions(self, tmp_path):
        corpus = [("a b c", "a c"), ("x y", "y x")]
        vocab = vocab_for(corpus)
        model = stat_train(pairs_of(corpus), vocab, epochs=3, learning_rate=0.2,
                           seed=5, dim=DIM)
        path = tmp_path / "m.model"
        model.save(path)
        loaded = StatTaggerModel.load(path)
        assert loaded.vocab_sha256 == vocab.sha256()
        for seq in (tokenize("a b c"), tokenize("q")):
            a = model.predict_batch([seq])[0]
            b = loaded.predict_batch([seq])[0]
            assert np.array_equal(a.dist, b.dist)
            assert np.array_equal(a.detect, b.detect)

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_bytes(b"not a model\n")
        with pytest.raises(ValueError):
            StatTaggerModel.load(path)
