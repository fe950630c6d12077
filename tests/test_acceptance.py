"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from backends import GrowingBackend, NoisyCorpusOracle, tag_accuracy
from corpus_gen import longest_insert_run, synthetic_pairs
from sari_oracle import oracle_sari
from tagsimp.align import align, extract_tags, filter_brackets
from tagsimp.apply import apply_tags
from tagsimp.bench import bench
from tagsimp.cli import main as cli_main
from tagsimp.core import (
    EditKind,
    KEEP_TAG,
    TagVocabulary,
    TokenSeq,
    detokenize,
    serialize_tag,
    tokenize,
)
from tagsimp.engine import InferenceConfig, decode_step, simplify
from tagsimp.metrics import EvalRecord, fkgl, sari
from tagsimp.tagger import OracleBackend, TagPrediction, ensemble_combine
from tagsimp.tune import tune

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus_pairs():
    """500 synthetic pairs plus the five example pairs, tokenized."""
    pairs = [
        (tokenize(s), tokenize(t)) for s, t in synthetic_pairs(500, seed=20240501)
    ]
    with open(FIXTURES / "example_pairs.tsv", encoding="utf-8") as fh:
        for line in fh:
            src, tgt = line.rstrip("\n").split("\t")
            pairs.append((tokenize(src), tokenize(tgt)))
    assert len(pairs) == 505
    return pairs


def iterate_to_target(src: TokenSeq, tgt: TokenSeq, bound: int):
    """Replay the extract/apply loop, returning (reached, passes, tag_history)."""
    state = src
    history = []
    for _ in range(bound):
        tags = extract_tags(state, tgt)
        history.append(tags)
        state = apply_tags(state, tags)
        if state == tgt:
            return True, len(history), history
    return state == tgt, len(history), history


@pytest.fixture(scope="module")
def roundtrip_runs(corpus_pairs):
    """Roundtrip results per pair, plus the wall time of the whole loop."""
    runs = []
    start = time.perf_counter()
    for src, tgt in corpus_pairs:
        bound = max(1, longest_insert_run(align(src, tgt)))
        reached, passes, history = iterate_to_target(src, tgt, bound)
        runs.append((src, tgt, bound, reached, passes, history))
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def oracle_vocab(roundtrip_runs):
    """Vocabulary counted over every pass of the roundtrip trajectories."""
    counts = Counter()
    for _, _, _, _, _, history in roundtrip_runs[0]:
        for tags in history:
            counts.update(serialize_tag(t) for t in tags)
    return TagVocabulary.from_counts(counts, capacity=5000)


def test_criterion_1_roundtrip_convergence(roundtrip_runs):
    runs, elapsed = roundtrip_runs
    failures = [
        (detokenize(src), detokenize(tgt))
        for src, tgt, bound, reached, _, _ in runs
        if not reached
    ]
    ok = not failures and elapsed < 5.0
    report(
        1,
        ok,
        f"{len(runs) - len(failures)}/{len(runs)} pairs reached the target "
        f"within max(1, insert-run) passes in {elapsed:.2f}s (< 5s)"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_2_oracle_end_to_end(corpus_pairs, oracle_vocab):
    cfg = InferenceConfig.zero_tweaks()
    mismatches = 0
    first = None
    for src, tgt in corpus_pairs:
        backend = OracleBackend(tgt, oracle_vocab)
        out, _ = simplify(src, backend, oracle_vocab, cfg)
        if detokenize(out) != detokenize(tgt):
            mismatches += 1
            first = first or (detokenize(src), detokenize(out), detokenize(tgt))
    report(
        2,
        mismatches == 0,
        f"engine + oracle backend reproduced {len(corpus_pairs) - mismatches}"
        f"/{len(corpus_pairs)} references exactly"
        + (f"; first mismatch: {first}" if first else ""),
    )


def test_criterion_3_sari_oracle_equivalence():
    alphabet = ["a", "b", "c"]
    sentences = [""]
    for length in (1, 2):
        sentences += [" ".join(p) for p in itertools.product(alphabet, repeat=length)]

    cases = 0
    worst = 0.0
    for src, out, ref in itertools.product(sentences, repeat=3):
        expected = oracle_sari([(src, out, [ref])])
        got = sari([EvalRecord(src, out, (ref,))])
        worst = max(
            worst,
            abs(got.sari - expected["sari"]),
            abs(got.add_f1 - expected["add"]),
            abs(got.keep_f1 - expected["keep"]),
            abs(got.del_f1 - expected["delete"]),
        )
        cases += 1

    rng = random.Random(42)

    def sentence():
        return " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))

    while cases < 10_000:
        record = (sentence(), sentence(), [sentence() for _ in range(rng.randint(1, 3))])
        expected = oracle_sari([record])
        got = sari([EvalRecord(record[0], record[1], tuple(record[2]))])
        worst = max(worst, abs(got.sari - expected["sari"]))
        cases += 1

    fixture = json.loads((FIXTURES / "sari_crosscheck.json").read_text())
    records = [
        EvalRecord(r["source"], r["system"], tuple(r["references"]))
        for r in fixture["records"]
    ]
    cross_diff = abs(sari(records).sari - fixture["expected"]["sari"])

    ok = worst < 1e-9 and cross_diff <= 0.1
    report(
        3,
        ok,
        f"{cases} oracle cases, worst |diff| {worst:.2e} (< 1e-9); "
        f"20-record cross-check fixture |diff| {cross_diff:.2e} (<= 0.1)",
    )


def test_criterion_4_sari_boundary_values():
    perfect = sari([EvalRecord("a b c d", "a b d", ("a b d",))])
    identity = sari([EvalRecord("a b c", "a b c", ("a b c",))])
    ok = perfect.sari == 100.0 and identity.sari == 100.0
    report(
        4,
        ok,
        f"perfect-match sari {perfect.sari!r}, identity sari {identity.sari!r} "
        "(both exactly 100.0)",
    )


def test_criterion_5_fkgl():
    value = fkgl(["a a a a"])
    corpus = ["the cat sat on the mat .", "simple sentences score lower ."]
    ok = abs(value - (-2.23)) < 1e-9 and fkgl(corpus) == fkgl(corpus * 2)
    report(
        5,
        ok,
        f"fkgl(4 monosyllables) = {value:.12f} (within 1e-9 of -2.23); "
        "duplication invariance exact",
    )


def test_criterion_6_tweak_monotonicity():
    rng = np.random.default_rng(7)
    n_classes = 8
    keep_violations = 0
    delete_violations = 0
    gate_violations = 0
    vocab = TagVocabulary.from_counts(
        {f"$APPEND_w{i}": 10 - i for i in range(n_classes - 2)}, capacity=n_classes
    )
    biases = np.linspace(-1.0, 1.0, 7)
    thresholds = np.linspace(0.0, 1.05, 7)
    predictions = []
    for _ in range(1000):
        n_tokens = int(rng.integers(1, 9))
        dist = rng.random((n_tokens, n_classes))
        dist /= dist.sum(axis=1, keepdims=True)
        predictions.append(TagPrediction(detect=rng.random(n_tokens), dist=dist))

    for pred in predictions:
        keep_counts, delete_counts, gated_flags = [], [], []
        for bias in biases:
            tags, _ = decode_step(
                pred, vocab, InferenceConfig(keep_bias=float(bias), max_iterations=1)
            )
            keep_counts.append(sum(t.kind is EditKind.KEEP for t in tags))
            tags, _ = decode_step(
                pred, vocab, InferenceConfig(delete_bias=float(bias), max_iterations=1)
            )
            delete_counts.append(sum(t.kind is EditKind.DELETE for t in tags))
        for threshold in thresholds:
            _, gated = decode_step(
                pred, vocab,
                InferenceConfig(min_edit_prob=float(threshold), max_iterations=1),
            )
            gated_flags.append(gated)
        if keep_counts != sorted(keep_counts):
            keep_violations += 1
        if delete_counts != sorted(delete_counts):
            delete_violations += 1
        if gated_flags != sorted(gated_flags):  # False -> True transitions only
            gate_violations += 1

    ok = keep_violations == delete_violations == gate_violations == 0
    report(
        6,
        ok,
        "1000 random predictions: "
        f"keep-bias violations {keep_violations}, delete-bias violations "
        f"{delete_violations}, gate violations {gate_violations} (all 0)",
    )


def _tuning_dev_pairs():
    pairs = [(s, t) for s, t in synthetic_pairs(20, seed=90, max_insert_run=2)]
    identities = [
        "the house is red .",
        "dogs bark .",
        "we eat bread every day .",
        "the sun is hot .",
        "birds can fly far .",
        "water flows down .",
        "the road is long .",
        "she reads books .",
        "rain falls in autumn .",
        "he walks to work .",
    ]
    pairs += [(s, s) for s in identities]
    return pairs


def test_criterion_7_tuning_dominance():
    pairs_text = _tuning_dev_pairs()
    token_pairs = [(tokenize(s), tokenize(t)) for s, t in pairs_text]
    vocab = TagVocabulary.from_counts(
        Counter(
            serialize_tag(t)
            for src, tgt in token_pairs
            for t in extract_tags(src, tgt)
        ),
        capacity=5000,
    )
    backend = NoisyCorpusOracle(token_pairs, vocab, noise_prob=0.2, seed=1234)
    dev = [(s, (t,)) for s, t in pairs_text]
    result = tune(dev, backend, vocab, budget=24, seed=11)
    zero = result.log[0]
    ok = result.dev_sari > zero.dev_sari
    report(
        7,
        ok,
        f"tuned dev SARI {result.dev_sari:.4f} > zero-tweak {zero.dev_sari:.4f} "
        f"(gain {result.dev_sari - zero.dev_sari:+.4f})",
    )


def test_criterion_8_ensemble_gain():
    pairs = [(tokenize(s), tokenize(t)) for s, t in synthetic_pairs(500, seed=321)]
    vocab = TagVocabulary.from_counts(
        Counter(
            serialize_tag(t) for src, tgt in pairs for t in extract_tags(src, tgt)
        ),
        capacity=5000,
    )
    constituents = [
        NoisyCorpusOracle(pairs, vocab, noise_prob=0.2, seed=seed)
        for seed in (101, 102, 103)
    ]
    totals = [0.0] * len(constituents)
    ensemble_total = 0.0
    count = 0
    for src, tgt in pairs:
        gold = extract_tags(src, tgt, vocab=vocab)
        preds = [backend.predict_batch([src])[0] for backend in constituents]
        combined = ensemble_combine(preds)
        weight = len(gold)
        for i, pred in enumerate(preds):
            totals[i] += tag_accuracy(pred, gold, vocab) * weight
        ensemble_total += tag_accuracy(combined, gold, vocab) * weight
        count += weight
    constituent_acc = [t / count for t in totals]
    ensemble_acc = ensemble_total / count
    ok = all(ensemble_acc >= acc for acc in constituent_acc)
    report(
        8,
        ok,
        f"ensemble tag accuracy {ensemble_acc:.4f} >= constituents "
        + ", ".join(f"{acc:.4f}" for acc in constituent_acc),
    )


def test_criterion_9_benchmark_trend(tmp_path):
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
    corpus = [
        TokenSeq.from_words(words * 2 + words[: i % 8]) for i in range(144)
    ]
    vocab = TagVocabulary.from_counts({"$APPEND_again": 5}, capacity=10)
    backend = GrowingBackend(vocab, word="again")
    import gc

    # One bench call times the caps one after another, so a slow spell of the
    # host can land on a single cap and flatten the trend.  Repeat the whole
    # sweep and keep each cap's fastest run mean: a spell slows one sweep, but
    # the 25% step in work from cap 4 to cap 5 shows in every one.
    gc.disable()
    try:
        sweeps = [
            bench(corpus, backend, vocab, InferenceConfig.zero_tweaks(), batch_size=48, runs=2)
            for _ in range(5)
        ]
    finally:
        gc.enable()
    means = [min(m for rep in sweeps for m in rep.rows[c].run_means) for c in range(5)]
    increasing = all(b > a for a, b in zip(means, means[1:]))
    executed = [[row.mean_iterations_executed for row in rep.rows] for rep in sweeps]
    iterations_rise = all(all(b > a for a, b in zip(ex, ex[1:])) for ex in executed)

    # parallelism must not change a single output byte
    corpus_tsv = tmp_path / "train.tsv"
    corpus_tsv.write_text(
        "the small cat sat quietly .\tthe cat sat .\n"
        "he quickly wrote a letter .\the wrote a letter .\n",
        encoding="utf-8",
    )
    vocab_path = tmp_path / "tags.vocab"
    model_path = tmp_path / "m.model"
    assert cli_main(["build-vocab", str(corpus_tsv), str(vocab_path)]) == 0
    assert cli_main([
        "--seed", "2", "train-stat", str(corpus_tsv), str(model_path),
        "--vocab", str(vocab_path), "--epochs", "3", "--lr", "0.5",
        "--hash-dim", "4096",
    ]) == 0
    inputs = tmp_path / "in.txt"
    inputs.write_text(
        "".join(f"the small cat sat quietly on mat {i} .\n" for i in range(32)),
        encoding="utf-8",
    )
    outputs = []
    for par in ("1", "4"):
        out_path = tmp_path / f"out{par}.txt"
        assert cli_main([
            "simplify", str(inputs), str(out_path),
            "--backend", "stat", "--vocab", str(vocab_path),
            "--model", str(model_path), "--parallelism", par,
        ]) == 0
        outputs.append(out_path.read_bytes())

    ok = increasing and iterations_rise and outputs[0] == outputs[1]
    report(
        9,
        ok,
        "fastest mean per-batch seconds by iteration cap over 5 sweeps "
        + ", ".join(f"{m:.4f}" for m in means)
        + f" (strictly increasing: {increasing}); mean iterations executed "
        + ", ".join(f"{x:.2f}" for x in executed[0])
        + f" (strictly rising in every sweep: {iterations_rise}); parallelism 1 vs 4 outputs "
        f"byte-identical: {outputs[0] == outputs[1]}",
    )


def test_criterion_10_bracket_filter_property():
    rng = random.Random(8)
    words = ["a", "b", "c", "d", "-LRB-", "-RRB-"]
    violations = 0
    for _ in range(10_000):
        tokens = [rng.choice(words) for _ in range(rng.randint(0, 14))]
        out = filter_brackets(TokenSeq.from_words(tokens)).words()
        if "-LRB-" in out or "-RRB-" in out:
            violations += 1
            continue
        it = iter(tokens)
        if not all(w in it for w in out):
            violations += 1
    report(
        10,
        violations == 0,
        f"10000 bracket-noised sentences: {violations} violations "
        "(no bracket tokens in output; output is a subsequence of input)",
    )
