"""Self-tests of the benchmark's probes, peer and bookkeeping, at small sizes."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import corpus
import probes
import run
import workloads as wl
from peer import Peer
from tagsimp import ExternalTaggerClient, build_vocab, tokenize

BENCH_DIR = Path(__file__).resolve().parent


class Recorder:
    """Inner transport that keeps every line it passes on."""

    def __init__(self, inner):
        self.inner = inner
        self.sent: list[str] = []
        self.received: list[str] = []

    def send_line(self, line):
        self.sent.append(line)
        self.inner.send_line(line)

    def recv_line(self):
        line = self.inner.recv_line()
        self.received.append(line)
        return line

    def close(self):
        self.inner.close()


@pytest.fixture
def small_vocab(tmp_path):
    gen = corpus.Generator.from_seed(7)
    pairs = [(tokenize(s), tokenize(t)) for s, t in gen.pairs(120, random.Random(7))]
    vocab = build_vocab(pairs, 5000)
    path = tmp_path / "tags.vocab"
    vocab.save(path)
    return vocab, path, gen


def test_timing_transport_counts_the_bytes_on_the_wire(small_vocab):
    vocab, path, gen = small_vocab
    tracer = probes.Tracer()
    recorder = Recorder(probes.PipeTransport([sys.executable, str(BENCH_DIR / "peer.py"), str(path)]))
    timing = probes.TimingTransport(recorder, tracer)
    client = ExternalTaggerClient(timing, vocab)
    try:
        assert timing.bytes_out == timing.bytes_in == timing.round_trips == 0  # handshake untraced
        handshake = len(recorder.sent), len(recorder.received)
        tracer.enabled = True
        rng = random.Random(3)
        for n in (1, 3, 2):
            client.predict_batch([tokenize(gen.pair(rng, 9)[0]) for _ in range(n)])
        tracer.enabled = False
    finally:
        client.close()
    sent = recorder.sent[handshake[0]:]
    received = recorder.received[handshake[1]:]
    assert timing.bytes_out == sum(len(line.encode("utf-8")) + 1 for line in sent)
    assert timing.bytes_in == sum(len(line.encode("utf-8")) for line in received)
    assert all(line.endswith("\n") for line in received)
    assert timing.round_trips == len(timing.rtt_s) == 3
    layers = tracer.layers()
    assert layers["external.send"].calls == layers["external.recv"].calls == 3


def test_peer_hello_hashes_file_bytes_and_replies_deterministically(small_vocab):
    vocab, path, gen = small_vocab
    data = path.read_bytes()
    peer = Peer(data)
    assert peer.sha256 == hashlib.sha256(data).hexdigest() == vocab.sha256()
    assert peer.width == len(vocab)
    rng = random.Random(5)
    sentences = [["$START"] + gen.pair(rng, 9)[0].split() for _ in range(20)]
    request = {"id": 4, "sentences": sentences}
    reply = json.loads(peer.reply(request))
    assert peer.reply(request) == Peer(data).reply(request)
    assert reply["id"] == 4 and len(reply["predictions"]) == len(sentences)
    for sentence, pred in zip(sentences, reply["predictions"]):
        assert len(pred["detect"]) == len(pred["dist"]) == len(sentence)
        assert all(len(row) == len(vocab) and sum(row) == 1.0 for row in pred["dist"])


def test_peer_edits_settle_within_three_passes(small_vocab):
    _, path, gen = small_vocab
    peer = Peer(path.read_bytes())
    payload = {i: tag.split("_", 1)[1] for i, tag in enumerate(path.read_text().splitlines())
               if tag.startswith("$REPLACE_")}
    for word in gen.lexicon:
        for _ in range(2):
            tag_id = peer.tag_id(word, 1)
            if tag_id == 0:
                break
            word = payload[tag_id]
        assert peer.tag_id(word, 1) == 0


def test_tracer_self_time_subtracts_children():
    tracer = probes.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()  # disabled: nothing recorded
    tracer.enabled = True
    outer()
    layers = tracer.layers()
    assert layers["inner"].calls == 2 and layers["outer"].calls == 1
    total = layers["outer"].self_seconds + layers["inner"].seconds
    assert total == pytest.approx(layers["outer"].seconds)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(wl.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(wl.PER_LAYER)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "TRAIN_PAIRS", 150)
    monkeypatch.setattr(wl, "FIT_PAIRS", 20)
    monkeypatch.setattr(wl, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl, "DIGESTS", tmp_path / "digests.json")
    small = {name: wl.Workload(w.name, w.backend, inputs=8, batch=w.batch and 4)
             for name, w in wl.WORKLOADS.items()}
    monkeypatch.setattr(wl, "WORKLOADS", small)
    out = tmp_path / "out"
    out.mkdir()
    return out


@pytest.mark.parametrize("name", ["stat-simplify", "peer-simplify", "stat-tune"])
def test_traced_run_reconciles(tiny, name):
    result = wl.run_workload(name, 11, 0.05, True, tiny)
    assert result.failed == 0 and result.problems == []
    layers, problems = wl.per_layer(result)
    assert problems == []
    assert layers["engine.passes"] == layers["engine.decode_step_calls"] > 0
    assert result.untraced.request_s and result.traced_t.request_s


def test_reconciliation_fails_when_a_wrapper_stops_seeing_calls(tiny, monkeypatch):
    real = wl._patches

    def without_decode(tracer):
        return [patch for patch in real(tracer) if patch[1] != "decode_step"]

    monkeypatch.setattr(wl, "_patches", without_decode)
    result = wl.run_workload("stat-simplify", 11, 0.05, True, tiny)
    _, problems = wl.per_layer(result)
    assert any("decode_step" in p for p in problems)


def test_recorded_digest_mismatch_fails_every_sentence(tiny):
    wl.DIGESTS.write_text(json.dumps({"stat-simplify": {"11": "0" * 64}}))
    result = wl.run_workload("stat-simplify", 11, 0.05, False, tiny)
    assert result.attempted > 0 and result.failed == result.attempted
