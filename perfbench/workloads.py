"""The benchmark's workloads, their timed loops and the metrics they report.

Load model: a closed loop with one client and one request in flight, and
``parallelism=1``.  A simplify request is one batch of lines through
``tokenize``, ``simplify_batch`` and ``detokenize``, writing one trace JSON
line per sentence.  A tune request is one ``tune()`` call over the dev set.

Each run sets up SETUP_REPEATS times, one set-up alive at a time, and keeps
the last one.  It then runs the inputs once untimed (the reference pass:
warms the stat tagger's hash cache and fixes the reference outputs and their
digest), then times requests, cycling over the inputs, for the requested
number of seconds.
Every timed output must equal the reference pass byte for byte and replay
from its trace.  In a traced run, cycles alternate between traced and
untraced, so the same inputs give both the per-layer numbers and the
tracing overhead.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tagsimp import (
    EditKind,
    EvalRecord,
    ExternalTaggerClient,
    InferenceConfig,
    StatTaggerModel,
    TagPrediction,
    build_vocab,
    detokenize,
    sari,
    simplify_batch,
    stat_train,
    tokenize,
    tune,
)

import corpus
import probes

# The package re-exports functions named like some of its modules.
engine_module = importlib.import_module("tagsimp.engine")
tune_module = importlib.import_module("tagsimp.tune")

BENCH_DIR = Path(__file__).resolve().parent
PEER = BENCH_DIR / "peer.py"
DIGESTS = BENCH_DIR / "digests.json"

# The world (lexicon, word roles, training pairs, vocabulary and stat model)
# is the same for every seed; the seed draws only the request inputs.  A
# model trained per seed made SARI and throughput spread about 20% across
# seeds, which would hide any change smaller than that.
WORLD_SEED = 0
VOCAB_CAPACITY = 5000
TRAIN_PAIRS = 3000  # vocabulary corpus: enough edits to fill the vocabulary
FIT_PAIRS = 100  # stat_train subset: training cost is per sample, not per tag
HASH_DIM = 4096
EPOCHS = 1
LEARNING_RATE = 0.5
SETUP_REPEATS = 3
TUNE_BUDGET = 2
TUNE_SEED = 0
RECONCILE_SHARE = 0.10
# Zero tweaks and up to five passes: the stat model's sentences average
# about 1.9 passes, the peer's about 2.9.
CONFIG = InferenceConfig.zero_tweaks()


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "stat" or "peer"
    inputs: int  # sentences per cycle (dev sentences for tune)
    batch: int  # sentences per simplify request; 0 for a tune request


# A simplify request is 128 lines: the default ``--batch-size`` of
# ``tagsimp bench``.  ``tagsimp simplify`` sends its whole input as one
# batch, so any file of 128 lines or more makes requests at least this
# large.  At this size the dense rows of one request dominate peak memory.
BATCH = 128

WORKLOADS = {
    w.name: w
    for w in (
        Workload("stat-simplify", "stat", inputs=512, batch=BATCH),
        Workload("peer-simplify", "peer", inputs=256, batch=BATCH),
        Workload("stat-tune", "stat", inputs=48, batch=0),
    )
}

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = (
    ("sentences_per_s", "1/s"),
    ("tokens_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sari", "points"),
)
PER_LAYER = (
    ("core.tokenize_s", "s"),
    ("core.detokenize_s", "s"),
    ("engine.simplify_batch_s", "s"),
    ("engine.self_s", "s"),
    ("engine.trace_json_s", "s"),
    ("engine.passes", "count"),
    ("engine.passes_per_sentence", "ratio"),
    ("engine.backend_batch_mean", "ratio"),
    ("engine.exit_gated", "count"),
    ("engine.exit_all_keep", "count"),
    ("engine.exit_fixpoint", "count"),
    ("engine.exit_cap", "count"),
    ("engine.decode_step_s", "s"),
    ("engine.decode_step_calls", "count"),
    ("apply.apply_tags_s", "s"),
    ("apply.apply_tags_calls", "count"),
    ("tagger.validate_s", "s"),
    ("tagger.dense_mb_per_request", "MB"),
    ("stat_tagger.predict_s", "s"),
    ("stat_tagger.predict_calls", "count"),
    ("stat_tagger.tokens_per_s", "1/s"),
    ("stat_tagger.train_s", "s"),
    ("stat_tagger.load_s", "s"),
    ("external.predict_s", "s"),
    ("external.send_s", "s"),
    ("external.recv_wait_s", "s"),
    ("external.client_cpu_s", "s"),
    ("external.round_trips", "count"),
    ("external.bytes_out", "B"),
    ("external.bytes_in", "B"),
    ("external.bytes_in_per_token", "B"),
    ("external.rtt_ms_p50", "ms"),
    ("external.rtt_ms_p90", "ms"),
    ("external.handshake_s", "s"),
    ("external.peer_rss_mb", "MB"),
    ("tune.configs_evaluated", "count"),
    ("tune.backend_calls", "count"),
    ("tune.sentences_tagged", "count"),
    ("tune.distinct_sentences", "count"),
    ("tune.useful_ratio", "ratio"),
    ("metrics.sari_s", "s"),
    ("metrics.sari_calls", "count"),
    ("align.build_vocab_s", "s"),
    ("trace.request_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchmarkFailure(Exception):
    """The program failed in a way no result can be reported for."""


# ---------------------------------------------------------------- set-up


@dataclass
class Setup:
    inputs: list[tuple[str, str]]
    vocab: object
    backend: object
    transport: object | None
    seconds: dict[str, float]

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


def set_up(w: Workload, seed: int, out_dir: Path, tracer: probes.Tracer | None) -> Setup:
    """Generate inputs, build the vocabulary and the backend; time each part."""
    seconds: dict[str, float] = {}
    start = perf_counter()
    gen = corpus.Generator.from_seed(WORLD_SEED)
    train = gen.pairs(TRAIN_PAIRS, random.Random(f"{WORLD_SEED}/train"))
    rng = random.Random(f"{seed}/inputs")
    if w.batch:  # lengths cycle within each request: every request holds the same words
        inputs = [pair for _ in range(w.inputs // w.batch) for pair in gen.pairs(w.batch, rng)]
    else:
        inputs = gen.pairs(w.inputs, rng)
    train_seqs = [(tokenize(s), tokenize(t)) for s, t in train]
    t = perf_counter()
    vocab = build_vocab(train_seqs, VOCAB_CAPACITY)
    seconds["build_vocab"] = perf_counter() - t
    vocab_path = out_dir / "tags.vocab"
    vocab.save(vocab_path)
    transport = None
    if w.backend == "stat":
        t = perf_counter()
        model = stat_train(
            train_seqs[:FIT_PAIRS], vocab, EPOCHS, LEARNING_RATE, WORLD_SEED, dim=HASH_DIM
        )
        seconds["train"] = perf_counter() - t
        model_path = out_dir / "stat.model"
        model.save(model_path)
        del model
        t = perf_counter()
        backend = StatTaggerModel.load(model_path)
        seconds["load"] = perf_counter() - t
    else:
        transport = probes.PipeTransport([sys.executable, str(PEER), str(vocab_path)])
        if tracer is not None:
            transport = probes.TimingTransport(transport, tracer)
        t = perf_counter()
        try:
            backend = ExternalTaggerClient(transport, vocab)
        except BaseException:
            transport.close()
            raise
        seconds["handshake"] = perf_counter() - t
    seconds["setup"] = perf_counter() - start
    return Setup(inputs, vocab, backend, transport, seconds)


# ---------------------------------------------------------------- checks


def exit_reason(trace) -> str:
    """Why the engine stopped, checked in the engine's own order."""
    last = trace.steps[-1]
    if last.gated:
        return "gated"
    if all(tag.kind is EditKind.KEEP for tag in last.tags):
        return "all_keep"
    if last.output == last.input:
        return "fixpoint"
    return "cap"


@dataclass
class EngineCounts:
    """What the returned traces say the engine did."""

    sentences: int = 0
    passes: int = 0
    applied: int = 0  # non-gated steps, each one apply_tags call
    backend_calls: int = 0
    exits: Counter = field(default_factory=Counter)
    bad_caps: int = 0

    def add(self, trace, cfg: InferenceConfig) -> None:
        reason = exit_reason(trace)
        self.sentences += 1
        self.passes += len(trace.steps)
        self.applied += sum(not step.gated for step in trace.steps)
        self.exits[reason] += 1
        steps = len(trace.steps)
        if steps > cfg.max_iterations or (reason == "cap" and steps != cfg.max_iterations):
            self.bad_caps += 1


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------- requests


class Calls:
    """The public calls a request makes; wrapped with spans when traced."""

    def __init__(self, tracer: probes.Tracer | None):
        wrap = tracer.wrap if tracer is not None else (lambda _name, fn: fn)
        self.tokenize = wrap("core.tokenize", tokenize)
        self.detokenize = wrap("core.detokenize", detokenize)
        self.simplify_batch = wrap("engine.simplify_batch", simplify_batch)
        self.trace_json = wrap("engine.trace_json", _write_traces)
        self.tune = wrap("tune.tune", tune)
        self.simplify_request = wrap("request", simplify_request)
        self.tune_request = wrap("request", self.tune)


def _write_traces(items, fh) -> list[str]:
    lines = [json.dumps(item.trace.to_dict()) if item.ok else "null" for item in items]
    fh.write("".join(line + "\n" for line in lines))
    return lines


def simplify_request(lines, backend, vocab, cfg, fh, calls: Calls):
    seqs = [calls.tokenize(line) for line in lines]
    items = calls.simplify_batch(seqs, backend, vocab, cfg, 1)
    outputs = [calls.detokenize(item.output) if item.ok else None for item in items]
    return items, outputs, calls.trace_json(items, fh)


def tune_text(result) -> str:
    """The chosen config and the whole tune log, every float in full."""
    rows = [result.config.to_text(), repr(result.dev_sari)]
    for e in result.log:
        c = e.config
        rows.append(
            f"{e.sample_id}\t{c.keep_bias!r}\t{c.delete_bias!r}\t{c.min_edit_prob!r}"
            f"\t{c.max_iterations}\t{e.dev_sari!r}"
        )
    return "\n".join(rows)


# ---------------------------------------------------------------- run


@dataclass
class Timed:
    """Request times and per-cycle totals of one mode (traced or untraced)."""

    request_s: list[float] = field(default_factory=list)
    cycles: list[tuple[int, int, float]] = field(default_factory=list)  # sentences, words, s
    _open: tuple[int, int, float] = (0, 0, 0.0)

    def add(self, seconds: float, sentences: int, words: int, ends_cycle: bool) -> None:
        self.request_s.append(seconds)
        n, k, t = self._open
        self._open = (n + sentences, k + words, t + seconds)
        if ends_cycle:
            self.cycles.append(self._open)
            self._open = (0, 0, 0.0)

    @property
    def seconds(self) -> float:
        return sum(self.request_s)

    @property
    def sentences(self) -> int:
        return sum(c[0] for c in self.cycles) + self._open[0]

    def rate(self, which: int) -> float:
        """Median over complete cycles of sentences (0) or words (1) per second.

        Every cycle runs the same inputs, so the median discards cycles a
        noisy neighbour slowed without mixing inputs of different cost.
        """
        return statistics.median(c[which] / c[2] for c in self.cycles)


@dataclass
class Run:
    """Everything one run measured."""

    workload: Workload
    seed: int
    traced: bool
    setups: list[dict[str, float]] = field(default_factory=list)
    untraced: Timed = field(default_factory=Timed)
    traced_t: Timed = field(default_factory=Timed)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    sari: float = 0.0
    engine: EngineCounts = field(default_factory=EngineCounts)
    tune_configs: int = 0
    tune_distinct: int = 0
    proxy: probes.ProxyBackend | None = None
    transport: probes.TimingTransport | None = None
    tracer: probes.Tracer | None = None
    peak_rss_mb: float = 0.0
    peer_rss_mb: float = 0.0
    vocab_size: int = 0

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def run_workload(name: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> Run:
    w = WORKLOADS[name]
    run = Run(w, seed, traced)
    tracer = probes.Tracer() if traced else None
    run.tracer = tracer
    for _ in range(SETUP_REPEATS - 1):
        spare = set_up(w, seed, out_dir, tracer)
        run.setups.append(spare.seconds)
        spare.close()
        del spare  # frees its model, so peak_rss_mb sees one set-up plus serving
    setup = set_up(w, seed, out_dir, tracer)
    run.setups.append(setup.seconds)
    run.vocab_size = len(setup.vocab)
    try:
        if w.batch:
            _run_simplify(run, setup, seconds, out_dir)
        else:
            _run_tune(run, setup, seconds)
    finally:
        setup.close()
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.peer_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    expected = recorded_digest(name, seed)
    if expected is not None and expected != run.digest:
        run.fail(run.attempted - run.failed, f"output digest {run.digest} != recorded {expected}")
    return run


def _patches(tracer: probes.Tracer) -> list[tuple]:
    """Spans inside the engine: decode, apply and prediction validation."""
    return [
        (engine_module, "decode_step", tracer.wrap("engine.decode_step", engine_module.decode_step)),
        (engine_module, "apply_tags", tracer.wrap("apply.apply_tags", engine_module.apply_tags)),
        (TagPrediction, "__post_init__", tracer.wrap("tagger.validate", TagPrediction.__post_init__)),
    ]


def _proxy(run: Run, setup: Setup) -> probes.ProxyBackend:
    span = "stat_tagger.predict" if run.workload.backend == "stat" else "external.predict"
    run.proxy = probes.ProxyBackend(setup.backend, run.tracer, span, distinct=not run.workload.batch)
    if isinstance(setup.transport, probes.TimingTransport):
        run.transport = setup.transport
    return run.proxy


def _run_simplify(run: Run, setup: Setup, seconds: float, out_dir: Path) -> None:
    w = run.workload
    lines = [src for src, _ in setup.inputs]
    batches = [lines[i : i + w.batch] for i in range(0, len(lines), w.batch)]
    plain = Calls(None)
    with open(out_dir / "traces.jsonl", "w", encoding="utf-8") as fh:
        ref_out: list[str | None] = []
        ref_trace: list[str] = []
        for batch in batches:
            items, outs, trace_lines = simplify_request(batch, setup.backend, setup.vocab, CONFIG, fh, plain)
            for item in items:
                if not item.ok:
                    raise BenchmarkFailure(f"reference pass failed: {item.error}")
            ref_out += outs
            ref_trace += trace_lines
        run.digest = digest([f"{o}\t{t}" for o, t in zip(ref_out, ref_trace)])
        run.sari = sari(
            [EvalRecord(src, out, (tgt,)) for (src, tgt), out in zip(setup.inputs, ref_out)]
        ).sari

        traced_calls = Calls(run.tracer) if run.traced else None
        patches = _patches(run.tracer) if run.traced else None
        proxy = _proxy(run, setup) if run.traced else None
        deadline = perf_counter() + seconds
        request = 0
        while True:
            cycle, b = divmod(request, len(batches))
            if b == 0 and cycle and perf_counter() >= deadline and not (run.traced and cycle % 2):
                break
            traced = run.traced and cycle % 2 == 0
            batch = batches[b]
            with probes.tracing(run.tracer, request, patches) if traced else nullcontext():
                start = perf_counter()
                if traced:
                    items, outs, trace_lines = traced_calls.simplify_request(
                        batch, proxy, setup.vocab, CONFIG, fh, traced_calls
                    )
                else:
                    items, outs, trace_lines = simplify_request(
                        batch, setup.backend, setup.vocab, CONFIG, fh, plain
                    )
                elapsed = perf_counter() - start
            (run.traced_t if traced else run.untraced).add(
                elapsed, len(batch), sum(len(line.split()) for line in batch), b == len(batches) - 1
            )
            base = b * w.batch
            run.attempted += len(batch)
            for j, item in enumerate(items):
                if not item.ok:
                    run.fail(1, f"sentence {base + j}: {item.error}")
                elif item.trace.replay() != item.output:
                    run.fail(1, f"sentence {base + j}: trace replay differs from output")
                elif outs[j] != ref_out[base + j] or trace_lines[j] != ref_trace[base + j]:
                    run.fail(1, f"sentence {base + j}: output differs from the reference pass")
                elif traced:
                    run.engine.add(item.trace, CONFIG)
            if traced and all(item.ok for item in items):
                run.engine.backend_calls += max(len(item.trace.steps) for item in items)
            request += 1


def _run_tune(run: Run, setup: Setup, seconds: float) -> None:
    w = run.workload
    dev = [(src, (tgt,)) for src, tgt in setup.inputs]
    dev_words = sum(len(src.split()) for src, _ in dev)
    ref = tune(dev, setup.backend, setup.vocab, TUNE_BUDGET, TUNE_SEED)
    ref_text = tune_text(ref)
    run.digest = digest([ref_text])
    run.sari = ref.dev_sari

    captured: list[tuple[object, object, InferenceConfig]] = []
    if run.traced:
        tracer = run.tracer
        patches = _patches(tracer)
        traced_simplify = tracer.wrap("engine.simplify_batch", tune_module.simplify)

        def capture(seq, backend, vocab, cfg, lexicon=None):
            out, trace = traced_simplify(seq, backend, vocab, cfg, lexicon)
            captured.append((out, trace, cfg))
            return out, trace

        patches += [
            (tune_module, "simplify", capture),
            (tune_module, "tokenize", tracer.wrap("core.tokenize", tune_module.tokenize)),
            (tune_module, "detokenize", tracer.wrap("core.detokenize", tune_module.detokenize)),
            (tune_module, "sari", tracer.wrap("metrics.sari", tune_module.sari)),
        ]
        traced_calls = Calls(tracer)
        proxy = _proxy(run, setup)

    deadline = perf_counter() + seconds
    request = 0
    while not request or perf_counter() < deadline or (run.traced and request % 2 == 1):
        traced = run.traced and request % 2 == 0
        if traced:
            proxy.counts.distinct.clear()
        with probes.tracing(tracer, request, patches) if traced else nullcontext():
            start = perf_counter()
            if traced:
                result = traced_calls.tune_request(dev, proxy, setup.vocab, TUNE_BUDGET, TUNE_SEED)
            else:
                result = tune(dev, setup.backend, setup.vocab, TUNE_BUDGET, TUNE_SEED)
            elapsed = perf_counter() - start
        configs = len(result.log)
        sentences = len(dev) * configs
        if traced:
            run.tune_configs += configs
            run.tune_distinct += len(proxy.counts.distinct)
            for out, trace, cfg in captured:
                if trace.replay() != out:
                    run.fail(1, "tune: trace replay differs from output")
                run.engine.add(trace, cfg)
                run.engine.backend_calls += len(trace.steps)
            captured.clear()
        (run.traced_t if traced else run.untraced).add(
            elapsed, sentences, dev_words * configs, True
        )
        run.attempted += sentences
        if tune_text(result) != ref_text:
            run.fail(sentences, "tune: config or log differs from the reference call")
        request += 1


# ---------------------------------------------------------------- metrics


def _median_setup(run: Run, part: str) -> float:
    values = [s[part] for s in run.setups if part in s]
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    t = run.untraced
    return {
        "sentences_per_s": t.rate(0),
        "tokens_per_s": t.rate(1),
        "request_ms_p50": statistics.median(t.request_s) * 1000,
        "setup_s": _median_setup(run, "setup"),
        "peak_rss_mb": run.peak_rss_mb,
        "sari": run.sari,
    }


def tail_latency(request_s: list[float]) -> dict:
    """p90 only where at least ten samples lie beyond it."""
    n = len(request_s)
    if n >= 2:
        p90 = statistics.quantiles(request_s, n=10)[8]
        beyond = sum(1 for r in request_s if r > p90)
        if beyond >= 10:
            return {"request_ms_p90": p90 * 1000, "samples": n, "beyond_p90": beyond}
    return {"request_ms_p90": None, "samples": n,
            "note": "omitted: fewer than ten samples beyond the 90th percentile"}


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced cycles, plus reconciliation problems."""
    layers = run.tracer.layers()
    lay = lambda name: layers.get(name, probes.Layer())  # noqa: E731
    t = run.traced_t
    proxy = run.proxy.counts
    predict = lay("stat_tagger.predict" if run.workload.backend == "stat" else "external.predict")
    send, recv = lay("external.send"), lay("external.recv")
    tr = run.transport
    rtt = tr.rtt_s if tr is not None else []
    eng = run.engine
    requests = len(t.request_s)
    m = {
        "core.tokenize_s": lay("core.tokenize").seconds,
        "core.detokenize_s": lay("core.detokenize").seconds,
        "engine.simplify_batch_s": lay("engine.simplify_batch").seconds,
        "engine.self_s": lay("engine.simplify_batch").self_seconds,
        "engine.trace_json_s": lay("engine.trace_json").seconds,
        "engine.passes": eng.passes,
        "engine.passes_per_sentence": eng.passes / eng.sentences if eng.sentences else 0.0,
        "engine.backend_batch_mean": proxy.sentences / proxy.calls if proxy.calls else 0.0,
        "engine.exit_gated": eng.exits["gated"],
        "engine.exit_all_keep": eng.exits["all_keep"],
        "engine.exit_fixpoint": eng.exits["fixpoint"],
        "engine.exit_cap": eng.exits["cap"],
        "engine.decode_step_s": lay("engine.decode_step").seconds,
        "engine.decode_step_calls": lay("engine.decode_step").calls,
        "apply.apply_tags_s": lay("apply.apply_tags").seconds,
        "apply.apply_tags_calls": lay("apply.apply_tags").calls,
        "tagger.validate_s": lay("tagger.validate").seconds,
        "tagger.dense_mb_per_request": proxy.dense_bytes / requests / 1e6,
        "stat_tagger.predict_s": lay("stat_tagger.predict").seconds,
        "stat_tagger.predict_calls": lay("stat_tagger.predict").calls,
        "stat_tagger.tokens_per_s": (
            proxy.tokens / predict.seconds if run.workload.backend == "stat" and predict.calls else 0.0
        ),
        "stat_tagger.train_s": _median_setup(run, "train"),
        "stat_tagger.load_s": _median_setup(run, "load"),
        "external.predict_s": lay("external.predict").seconds,
        "external.send_s": send.seconds,
        "external.recv_wait_s": recv.seconds,
        "external.client_cpu_s": (
            lay("external.predict").seconds - send.seconds - recv.seconds if tr else 0.0
        ),
        "external.round_trips": tr.round_trips if tr else 0,
        "external.bytes_out": tr.bytes_out if tr else 0,
        "external.bytes_in": tr.bytes_in if tr else 0,
        "external.bytes_in_per_token": tr.bytes_in / proxy.tokens if tr else 0.0,
        "external.rtt_ms_p50": statistics.median(rtt) * 1000 if rtt else 0.0,
        "external.rtt_ms_p90": statistics.quantiles(rtt, n=10)[8] * 1000 if len(rtt) > 1 else 0.0,
        "external.handshake_s": _median_setup(run, "handshake"),
        "external.peer_rss_mb": run.peer_rss_mb if tr else 0.0,
        "tune.configs_evaluated": run.tune_configs,
        "tune.backend_calls": proxy.calls if not run.workload.batch else 0,
        "tune.sentences_tagged": proxy.sentences if not run.workload.batch else 0,
        "tune.distinct_sentences": run.tune_distinct,
        "tune.useful_ratio": (
            run.tune_distinct / proxy.sentences if not run.workload.batch else 0.0
        ),
        "metrics.sari_s": lay("metrics.sari").seconds,
        "metrics.sari_calls": lay("metrics.sari").calls,
        "align.build_vocab_s": _median_setup(run, "build_vocab"),
        "trace.request_s": t.seconds,
        "trace.unattributed_share": unattributed(layers, t.seconds),
        "trace.overhead_ratio": t.rate(1) / run.untraced.rate(1),
    }
    return m, reconcile(run, layers, m)


def unattributed(layers: dict, request_s: float) -> float:
    """Share of the timed request time that no layer span below the request covers."""
    covered = sum(layer.self_seconds for name, layer in layers.items() if name != "request")
    return (request_s - covered) / request_s


def reconcile(run: Run, layers: dict, m: dict) -> list[str]:
    """Layer spans must cover the request time and agree with the traces."""
    problems = []
    w = run.workload
    eng = run.engine
    proxy = run.proxy.counts
    t = run.traced_t
    share = m["trace.unattributed_share"]
    if not -1e-9 <= share <= RECONCILE_SHARE:
        problems.append(f"layer self times leave {share:.1%} of traced request time unattributed")

    def same(what: str, a, b) -> None:
        if a != b:
            problems.append(f"{what}: {a} != {b}")

    same("engine.passes vs decode_step calls", eng.passes, m["engine.decode_step_calls"])
    same("exit counts vs sentences", sum(eng.exits.values()), eng.sentences)
    same("exit_cap sentences not at the iteration cap", eng.bad_caps, 0)
    same("apply_tags calls vs non-gated steps", m["apply.apply_tags_calls"], eng.applied)
    same("backend calls vs iterations in the traces", proxy.calls, eng.backend_calls)
    validated = layers.get("tagger.validate", probes.Layer()).calls
    same("validated predictions vs sentences tagged", validated, proxy.sentences)
    same("sentences tagged vs engine passes", proxy.sentences, eng.passes)
    if w.backend == "peer":
        same("external.round_trips vs backend calls", run.transport.round_trips, proxy.calls)
    if w.batch:
        same("tokenize calls vs sentences", layers["core.tokenize"].calls, t.sentences)
        same("traced sentences vs exit counts", eng.sentences, t.sentences)
    else:
        same("sari calls vs configs evaluated", m["metrics.sari_calls"], run.tune_configs)
        same("tokenize calls vs dev sentences x configs", layers["core.tokenize"].calls, t.sentences)
    return problems


# Request-time layers that do not contain one another.
_DISJOINT = (
    "core.tokenize_s",
    "core.detokenize_s",
    "engine.self_s",
    "engine.trace_json_s",
    "engine.decode_step_s",
    "apply.apply_tags_s",
)


def stress_check(run: Run, m: dict) -> dict:
    """Whether the workload's chosen layer dominates, as the workload's rationale says."""
    if run.workload.name == "stat-simplify":
        top = m["stat_tagger.predict_s"]
        others = [m[k] for k in _DISJOINT]
        return {"claim": "stat_tagger.predict_s is the largest layer", "holds": top > max(others)}
    if run.workload.name == "peer-simplify":
        top = m["external.recv_wait_s"] + m["external.client_cpu_s"]
        others = [m[k] for k in _DISJOINT] + [m["external.send_s"]]
        return {"claim": "external.recv_wait_s + external.client_cpu_s is the largest layer",
                "holds": top > max(others)}
    return {"claim": "tune.useful_ratio < 0.5", "holds": m["tune.useful_ratio"] < 0.5}


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(root),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, if the checkout itself is a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"
