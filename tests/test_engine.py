import weakref

import numpy as np
import pytest

from backends import AllKeepBackend, FailingBackend, GrowingBackend, ShortListBackend
from conftest import vocab_for
from test_reference_equivalence import reference_simplify
from tagsimp.core import EditTag, KEEP_TAG, detokenize, serialize_tag, tokenize
from tagsimp.engine import (
    InferenceConfig,
    decode_step,
    simplify,
    simplify_batch,
)
from tagsimp.errors import ShapeMismatch
from tagsimp.tagger import OracleBackend, TagPrediction, oracle_predict


def rows(vocab, *entries):
    dist = np.array(entries, dtype=float)
    return TagPrediction(detect=np.ones(dist.shape[0]), dist=dist)


class TestInferenceConfig:
    def test_iteration_bounds(self):
        with pytest.raises(ValueError):
            InferenceConfig(max_iterations=0)
        with pytest.raises(ValueError):
            InferenceConfig(max_iterations=6)

    def test_text_roundtrip(self):
        cfg = InferenceConfig(keep_bias=-0.66, delete_bias=-0.84,
                              min_edit_prob=0.04, max_iterations=2)
        again = InferenceConfig.from_text(cfg.to_text())
        assert again == cfg

    @pytest.mark.parametrize("name", ["keep_bias", "delete_bias", "min_edit_prob"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tweaks_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            InferenceConfig.from_text(f"{name} = {value}\n")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            InferenceConfig(**{name: float(value)})

    def test_from_text_with_comments_and_unknown_keys(self):
        cfg = InferenceConfig.from_text("# comment\nkeep_bias = 0.5\n\nmax_iterations=2\n")
        assert cfg.keep_bias == 0.5 and cfg.max_iterations == 2
        with pytest.raises(ValueError):
            InferenceConfig.from_text("bogus = 1\n")


class TestDecodeStep:
    def test_zero_tweaks_pass_one_hots_through(self, example_pairs, example_vocab):
        src, tgt = example_pairs[0]
        pred = oracle_predict(tokenize(src), tokenize(tgt), example_vocab)
        tags, gated = decode_step(pred, example_vocab, InferenceConfig.zero_tweaks())
        assert not gated
        assert tags == tuple(
            example_vocab.tag_of(int(i)) for i in np.argmax(pred.dist, axis=1)
        )

    def test_gate_above_one_always_fires(self, example_vocab):
        pred = oracle_predict(tokenize("a b"), tokenize("b"), example_vocab)
        cfg = InferenceConfig(min_edit_prob=1.1, max_iterations=1)
        tags, gated = decode_step(pred, example_vocab, cfg)
        assert gated and all(t == KEEP_TAG for t in tags)

    def test_bias_arithmetic(self):
        vocab = vocab_for([("a", "x")])  # KEEP, DELETE, REPLACE_x
        replace_id = vocab.id_of(EditTag.replace("x"))
        assert replace_id == 2
        row = [0.4, 0.15, 0.45]
        pred = rows(vocab, row)
        tags, _ = decode_step(pred, vocab, InferenceConfig(keep_bias=-0.66, max_iterations=1))
        assert serialize_tag(tags[0]) == "$REPLACE_x"
        tags, _ = decode_step(pred, vocab, InferenceConfig(keep_bias=0.2, max_iterations=1))
        assert tags[0] == KEEP_TAG

    def test_tie_broken_by_lower_id(self):
        vocab = vocab_for([("a", "x")])
        pred = rows(vocab, [0.3, 0.3, 0.4])
        tags, _ = decode_step(pred, vocab, InferenceConfig(keep_bias=0.1, max_iterations=1))
        assert tags[0] == KEEP_TAG  # 0.4 tie between KEEP and REPLACE_x -> id 0

    def test_shape_mismatch(self):
        vocab = vocab_for([("a", "x")])
        pred = TagPrediction(detect=np.zeros(1), dist=np.array([[1.0, 0.0]]))
        with pytest.raises(ShapeMismatch):
            decode_step(pred, vocab, InferenceConfig.zero_tweaks())

    def test_keep_bias_monotone_in_keep_count(self):
        rng = np.random.default_rng(12)
        vocab = vocab_for([("a b", "x")])
        for _ in range(50):
            dist = rng.random((6, len(vocab)))
            dist /= dist.sum(axis=1, keepdims=True)
            pred = TagPrediction(detect=rng.random(6), dist=dist)
            counts = []
            for bias in np.linspace(-1.0, 1.0, 9):
                tags, _ = decode_step(pred, vocab,
                                      InferenceConfig(keep_bias=float(bias), max_iterations=1))
                counts.append(sum(t == KEEP_TAG for t in tags))
            assert counts == sorted(counts)


class TestSimplify:
    def test_oracle_reaches_reference(self, example_pairs, example_vocab):
        src, tgt = example_pairs[0]
        backend = OracleBackend(tokenize(tgt), example_vocab)
        out, trace = simplify(tokenize(src), backend, example_vocab,
                              InferenceConfig.zero_tweaks())
        assert detokenize(out) == tgt
        assert 1 <= len(trace.steps) <= 5

    def test_gated_sentence_unchanged(self, example_vocab):
        backend = OracleBackend(tokenize("b"), example_vocab)
        cfg = InferenceConfig(min_edit_prob=1.1, max_iterations=4)
        out, trace = simplify(tokenize("a b"), backend, example_vocab, cfg)
        assert detokenize(out) == "a b"
        assert len(trace.steps) == 1 and trace.steps[0].gated

    def test_all_keep_backend_stops_after_one(self, example_vocab):
        backend = AllKeepBackend(example_vocab)
        out, trace = simplify(tokenize("a b"), backend, example_vocab,
                              InferenceConfig.zero_tweaks())
        assert detokenize(out) == "a b"
        assert len(trace.steps) == 1

    def test_trace_replay_reproduces_output(self, example_pairs, example_vocab):
        for src, tgt in example_pairs:
            backend = OracleBackend(tokenize(tgt), example_vocab)
            out, trace = simplify(tokenize(src), backend, example_vocab,
                                  InferenceConfig.zero_tweaks())
            assert trace.replay() == out
            assert trace.output == out

    def test_idempotent_at_fixpoint(self, example_pairs, example_vocab):
        src, tgt = example_pairs[3]
        backend = OracleBackend(tokenize(tgt), example_vocab)
        cfg = InferenceConfig.zero_tweaks()
        out, _ = simplify(tokenize(src), backend, example_vocab, cfg)
        again, trace = simplify(out, backend, example_vocab, cfg)
        assert again == out
        assert len(trace.steps) == 1

    def test_trace_serializes(self, example_vocab):
        backend = OracleBackend(tokenize("b"), example_vocab)
        _, trace = simplify(tokenize("a b"), backend, example_vocab,
                            InferenceConfig.zero_tweaks())
        payload = trace.to_dict()
        assert payload["steps"][0]["input"] == ["a", "b"]
        assert all(tag.startswith("$") for tag in payload["steps"][0]["tags"])


class TestSimplifyBatch:
    def corpus(self):
        return [tokenize(s) for s in ("a b c", "x", "", "a a a a")]

    def test_matches_sequential_for_any_parallelism(self, example_vocab):
        backend = GrowingBackend(example_vocab, word="are")
        cfg = InferenceConfig(max_iterations=3)
        seqs = self.corpus()
        sequential = [reference_simplify(s, backend, example_vocab, cfg)[0] for s in seqs]
        for parallelism in (1, 2, 4, 7):
            batch = simplify_batch(seqs, backend, example_vocab, cfg, parallelism)
            assert [item.output for item in batch] == sequential

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_no_prediction_outlives_its_pass(self, example_vocab, parallelism):
        inner = GrowingBackend(example_vocab, word="are")  # every sentence runs every pass

        class Watching:
            """Fails a call while any array returned in an earlier pass is alive."""

            def __init__(self):
                self.calls = 0  # one call per pass
                self.returned = []  # (pass, weakref) of every array handed out
                self.alive = []

            def predict_batch(self, seqs):
                this_pass = self.calls
                self.calls += 1
                self.alive += [
                    p for p, ref in self.returned if p < this_pass and ref() is not None
                ]
                preds = inner.predict_batch(seqs)
                self.returned += [
                    (this_pass, weakref.ref(a)) for pred in preds
                    for a in (pred.detect, pred.dist)
                ]
                return preds

        backend = Watching()
        seqs = [tokenize(s) for s in ("a b c", "x", "a a a a", "b c")]
        results = simplify_batch(seqs, backend, example_vocab,
                                 InferenceConfig(max_iterations=4), parallelism)
        assert all(len(item.trace.steps) == 4 for item in results)
        assert backend.calls == 4
        assert backend.alive == []

    def test_empty_batch(self, example_vocab):
        assert simplify_batch([], AllKeepBackend(example_vocab), example_vocab,
                              InferenceConfig.zero_tweaks()) == []
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            simplify_batch([], AllKeepBackend(example_vocab), example_vocab,
                           InferenceConfig.zero_tweaks(), 0)

    def test_errors_reported_per_sentence(self, example_vocab):
        backend = FailingBackend(example_vocab)
        seqs = [tokenize("a b"), tokenize("poison here"), tokenize("c")]
        results = simplify_batch(seqs, backend, example_vocab, InferenceConfig.zero_tweaks())
        assert results[0].ok and results[2].ok
        assert not results[1].ok and "poison" in results[1].error
        assert detokenize(results[0].output) == "a b"

    def test_short_prediction_list_fails_every_sentence_of_the_call(self, example_vocab):
        seqs = [tokenize("a b"), tokenize("c d"), tokenize("e")]
        results = simplify_batch(seqs, ShortListBackend(example_vocab), example_vocab,
                                 InferenceConfig.zero_tweaks())
        assert [item.error for item in results] == [
            "ShapeMismatch: backend returned 0 predictions for a batch of 1"
        ] * 3
        assert all(item.output is None and item.trace is None for item in results)

    @pytest.mark.parametrize("min_edit_prob", [0.0, 0.5], ids=["ungated", "gated"])
    def test_prediction_rows_must_match_the_sentence(self, example_vocab, min_edit_prob):
        inner = AllKeepBackend(example_vocab)

        class OneRowShort:
            """All-KEEP, but a sentence holding "short" gets one row too few."""

            def predict_batch(self, seqs):
                return [
                    TagPrediction(detect=p.detect[:-1], dist=p.dist[:-1])
                    if "short" in seq.words() else p
                    for seq, p in zip(seqs, inner.predict_batch(seqs))
                ]

        seqs = [tokenize("a b c"), tokenize("a short one"), tokenize("x")]
        results = simplify_batch(seqs, OneRowShort(), example_vocab,
                                 InferenceConfig(min_edit_prob=min_edit_prob))
        assert [item.ok for item in results] == [True, False, True]
        assert results[1].error == "ShapeMismatch: prediction has 3 rows for 4 tokens"
        assert [item.trace.replay() for item in (results[0], results[2])] == [seqs[0], seqs[2]]

    def test_failed_one_sentence_call_is_not_retried(self, example_vocab):
        class AlwaysFailing:
            calls = 0

            def predict_batch(self, seqs):
                self.calls += 1
                raise RuntimeError("down")

        backend = AlwaysFailing()
        with pytest.raises(RuntimeError, match="down"):
            simplify(tokenize("a b"), backend, example_vocab, InferenceConfig.zero_tweaks())
        assert backend.calls == 1
        results = simplify_batch([tokenize("a b")], backend, example_vocab,
                                 InferenceConfig.zero_tweaks())
        assert results[0].error == "RuntimeError: down"
        assert backend.calls == 2
        # A failed call of two sentences is retried once per sentence.
        results = simplify_batch([tokenize("a"), tokenize("b")], backend, example_vocab,
                                 InferenceConfig.zero_tweaks())
        assert [item.error for item in results] == ["RuntimeError: down"] * 2
        assert backend.calls == 2 + 3

    def test_last_active_sentence_failing_is_called_once_per_pass(self, example_vocab):
        keep, grow = AllKeepBackend(example_vocab), GrowingBackend(example_vocab, word="are")

        class FailsWhenAlone:
            """Keeps "x", grows other sentences, fails a one-sentence call of three words."""

            calls = 0

            def predict_batch(self, seqs):
                self.calls += 1
                if len(seqs) == 1 and len(seqs[0].words()) >= 3:
                    raise RuntimeError("too long")
                return [(keep if s.words() == ("x",) else grow).predict_batch([s])[0]
                        for s in seqs]

        backend = FailsWhenAlone()
        results = simplify_batch([tokenize("x"), tokenize("a b")], backend, example_vocab,
                                 InferenceConfig(max_iterations=5))
        assert results[0].ok and results[1].error == "RuntimeError: too long"
        assert backend.calls == 2  # pass 1 ends "x" and grows "a b"; pass 2 fails once

    def test_gate_monotonicity_in_edited_sentences(self, example_vocab):
        rng = np.random.default_rng(5)

        class RandomBackend:
            def predict_batch(self, seqs):
                preds = []
                for seq in seqs:
                    dist = rng.random((len(seq), len(example_vocab)))
                    dist /= dist.sum(axis=1, keepdims=True)
                    preds.append(TagPrediction(detect=rng.random(len(seq)), dist=dist))
                return preds

        seqs = [tokenize(f"w{i} w{i+1} w{i+2}") for i in range(30)]
        preds = RandomBackend().predict_batch(seqs)

        class Replay:
            def predict_batch(self, batch):
                return [preds[seqs.index(s)] for s in batch]

        edited_counts = []
        for threshold in np.linspace(0.0, 1.05, 8):
            cfg = InferenceConfig(min_edit_prob=float(threshold), max_iterations=1)
            results = simplify_batch(seqs, Replay(), example_vocab, cfg)
            edited = sum(
                1 for item in results if not item.trace.steps[0].gated
            )
            edited_counts.append(edited)
        assert edited_counts == sorted(edited_counts, reverse=True)
