import json
import warnings

import numpy as np
import pytest

from conftest import vocab_for
from tagsimp.core import tokenize
from tagsimp.errors import EmptyCorpus
from tagsimp import stat_tagger
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
        model = StatTaggerModel(n_classes=len(vocab), hash_seed=1, dim=DIM)  # untrained
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

    @pytest.mark.parametrize("dim, epochs, learning_rate, seed", [
        (0, 1, 0.1, 1),
        (DIM, 0, 0.1, 1),
        (DIM, -3, 0.1, 1),
        (DIM, 1, float("nan"), 1),
        (DIM, 1, float("inf"), 1),
        (DIM, 1, 0.0, 1),
        (DIM, 1, -0.1, 1),
        (DIM, 1, 0.1, -1),  # the hash key is the seed's 8 bytes
        (DIM, 1, 0.1, 2 ** 64),
    ], ids=["dim-0", "epochs-0", "epochs-negative", "lr-nan", "lr-inf", "lr-0", "lr-negative",
            "seed-negative", "seed-2**64"])
    def test_bad_arguments_raise_before_the_corpus_is_read(self, dim, epochs, learning_rate, seed):
        def corpus():
            raise AssertionError("the corpus was read")
            yield

        vocab = vocab_for([("a b", "a")])
        with pytest.raises(ValueError):
            stat_train(corpus(), vocab, epochs=epochs, learning_rate=learning_rate,
                       seed=seed, dim=dim)


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


DROP = object()


def write_model_file(path, meta=None, arrays=None):
    """A model file of 3 classes over 8 hash buckets, with parts replaced.

    A meta key set to ``DROP`` is left out; an array set to ``None`` ends the
    file before it.
    """
    meta = {"n_classes": 3, "hash_seed": 1, "dim": 8, "vocab_sha256": "", **(meta or {})}
    meta = {key: value for key, value in meta.items() if value is not DROP}
    arrays = {"cls_weights": np.zeros((8, 3)), "cls_bias": np.zeros(3),
              "det_weights": np.zeros(8), "det_bias": np.float64(0.0), **(arrays or {})}
    with open(path, "wb") as fh:
        fh.write(stat_tagger._MAGIC)
        fh.write(json.dumps(meta).encode("utf-8") + b"\n")
        for array in arrays.values():
            if array is None:
                break
            np.save(fh, array)


def with_value(shape, index, value):
    array = np.zeros(shape)
    array[index] = value
    return array


class TestMalformedModelFile:
    def test_a_well_formed_file_loads(self, tmp_path):
        write_model_file(tmp_path / "m.model")
        model = StatTaggerModel.load(tmp_path / "m.model")
        assert model.cls_weights.shape == (8, 3) and model.det_bias == 0.0

    @pytest.mark.parametrize("meta", [
        {"dim": DROP},
        {"dim": "8"},
        {"n_classes": 3.0},
        {"n_classes": True},
        {"hash_seed": -1},
        {"hash_seed": 2 ** 64},
        {"vocab_sha256": 5},
    ], ids=["dim-missing", "dim-string", "n_classes-float", "n_classes-bool",
            "hash_seed-negative", "hash_seed-too-big", "vocab_sha256-number"])
    def test_bad_meta(self, tmp_path, meta):
        write_model_file(tmp_path / "m.model", meta)
        with pytest.raises(ValueError, match="model meta"):
            StatTaggerModel.load(tmp_path / "m.model")

    def test_meta_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(stat_tagger._MAGIC + b"[3, 1, 8]\n")
        with pytest.raises(ValueError, match="JSON object"):
            StatTaggerModel.load(path)

    @pytest.mark.parametrize("arrays", [
        {"cls_weights": np.zeros((7, 3))},
        {"cls_weights": np.zeros((8, 3), dtype=np.float32)},
        {"cls_bias": np.zeros(4)},
        {"det_weights": np.zeros((8, 1))},
        {"det_bias": np.zeros(1)},
    ], ids=["cls_weights-too-few-rows", "cls_weights-float32", "cls_bias-too-long",
            "det_weights-2d", "det_bias-1d"])
    def test_wrong_shape_or_dtype(self, tmp_path, arrays):
        write_model_file(tmp_path / "m.model", arrays=arrays)
        with pytest.raises(ValueError, match="must be float64 of shape"):
            StatTaggerModel.load(tmp_path / "m.model")

    @pytest.mark.parametrize("arrays", [
        {"cls_weights": with_value((8, 3), (7, 2), np.nan)},
        {"cls_bias": with_value(3, 0, np.inf)},
        {"det_weights": with_value(8, 4, -np.inf)},
        {"det_bias": np.float64(np.nan)},
    ], ids=["cls_weights-nan", "cls_bias-inf", "det_weights-minus-inf", "det_bias-nan"])
    def test_non_finite_values(self, tmp_path, monkeypatch, arrays):
        monkeypatch.setattr(stat_tagger, "_FINITE_CHECK_SIZE", 5)  # the last block is checked
        write_model_file(tmp_path / "m.model", arrays=arrays)
        with pytest.raises(ValueError, match="non-finite"):
            StatTaggerModel.load(tmp_path / "m.model")

    def test_an_archive_in_place_of_an_array(self, tmp_path):
        path = tmp_path / "m.model"
        write_model_file(path, arrays={"cls_weights": None})
        with open(path, "ab") as fh:
            np.savez(fh, cls_weights=np.zeros((8, 3)))
        with pytest.raises(ValueError, match="cls_weights is not an array"):
            StatTaggerModel.load(path)

    def test_a_file_that_ends_before_an_array(self, tmp_path):
        write_model_file(tmp_path / "m.model", arrays={"cls_weights": None})
        with pytest.raises(ValueError, match="ends before cls_weights"):
            StatTaggerModel.load(tmp_path / "m.model")


class TestHashCache:
    CAP = 60

    def model(self):
        rng = np.random.default_rng(4)
        model = StatTaggerModel(n_classes=7, hash_seed=3, dim=64)
        model.cls_weights = rng.normal(size=(64, 7))
        model.det_weights = rng.normal(size=64)
        return model

    def sentences(self):
        words = [f"w{i}" for i in range(40)]
        seqs = [tokenize(" ".join(words[i : i + 3])) for i in range(0, 36, 2)]
        seqs.insert(9, tokenize(" ".join(words)))  # more distinct features than the cap
        return seqs

    def test_size_never_exceeds_the_cap(self, monkeypatch):
        monkeypatch.setattr(stat_tagger, "HASH_CACHE_SIZE", self.CAP)
        model = self.model()
        sizes = []
        for seq in self.sentences():
            model.predict_batch([seq])
            sizes.append(len(model._hash_cache))
        assert max(sizes) <= self.CAP
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was cleared

    def test_predictions_are_bitwise_equal_across_a_clear(self, monkeypatch):
        unbounded = [self.model().predict_batch([seq])[0] for seq in self.sentences()]
        monkeypatch.setattr(stat_tagger, "HASH_CACHE_SIZE", self.CAP)
        model = self.model()
        for seq, ref in zip(self.sentences(), unbounded):
            pred = model.predict_batch([seq])[0]
            assert pred.detect.tobytes() == ref.detect.tobytes()
            assert pred.dist.tobytes() == ref.dist.tobytes()
