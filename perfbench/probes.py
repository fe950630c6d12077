"""Measurement probes the benchmark puts around the package's public calls.

Nothing here imports the package: spans are recorded by wrapping callables
(module functions patched for the traced cycles only, or calls the
benchmark makes itself), a proxy stands in for any ``TaggerBackend``, and
the peer is reached through a pipe transport the benchmark owns, optionally
wrapped in a transport that times and counts every line.
"""

from __future__ import annotations

import subprocess
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Sequence
from unittest import mock


class Tracer:
    """Spans ``(name, start, end, parent, request)`` kept in memory.

    Only calls made while ``enabled`` is set are recorded; a span's parent
    is the innermost span open when it started.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        self.spans: list[tuple | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[idx] = (name, start, end, parent, self.request)

        return traced

    def layers(self) -> dict[str, "Layer"]:
        """Per span name: total seconds, self seconds and call count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, Layer] = defaultdict(Layer)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            layer = out[name]
            layer.seconds += end - start
            layer.self_seconds += end - start - child[idx]
            layer.calls += 1
        return out


@dataclass
class Layer:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


@contextmanager
def tracing(tracer: Tracer, request: int, patches: Sequence[tuple]) -> Iterator[None]:
    """Trace one request: each ``(owner, attr, replacement)`` patched in, the tracer on."""
    with ExitStack() as stack:
        for owner, attr, replacement in patches:
            stack.enter_context(mock.patch.object(owner, attr, replacement))
        tracer.request = request
        tracer.enabled = True
        try:
            yield
        finally:
            tracer.enabled = False


@dataclass
class BackendCounts:
    calls: int = 0
    sentences: int = 0
    tokens: int = 0
    dense_bytes: int = 0
    distinct: set = field(default_factory=set)


class ProxyBackend:
    """A ``TaggerBackend`` that records a span and counts around another one.

    The counting is a span of its own, ``bench.count``, so that it is charged
    neither to the backend nor to the engine that calls it.  Distinct
    sentences are collected only when ``distinct`` is set.
    """

    def __init__(self, inner, tracer: Tracer, span: str, distinct: bool = False):
        self.counts = BackendCounts()
        self._predict = tracer.wrap(span, inner.predict_batch)
        self._count = tracer.wrap("bench.count", self._count_call)
        self._tracer = tracer
        self._distinct = distinct

    def predict_batch(self, seqs: Sequence) -> list:
        preds = self._predict(seqs)
        if self._tracer.enabled:
            self._count(seqs, preds)
        return preds

    def _count_call(self, seqs: Sequence, preds: list) -> None:
        c = self.counts
        c.calls += 1
        c.sentences += len(seqs)
        c.tokens += sum(map(len, seqs))
        c.dense_bytes += sum(pred.dist.size for pred in preds) * 8
        if self._distinct:
            c.distinct.update(tuple(tok.text for tok in seq) for seq in seqs)


class PipeTransport:
    """The package's ``Transport`` over the stdio of a peer process we own."""

    def __init__(self, argv: Sequence[str]):
        self._proc = subprocess.Popen(
            list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def send_line(self, line: str) -> None:
        self._proc.stdin.write(line.encode("utf-8") + b"\n")
        self._proc.stdin.flush()

    def recv_line(self) -> str:
        raw = self._proc.stdout.readline()
        if not raw:
            raise EOFError("peer closed its output")
        return raw.decode("utf-8")

    def close(self) -> None:
        """Close the peer's input and wait for it to exit."""
        try:
            self._proc.stdin.close()
        except OSError:  # the peer already exited
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class TimingTransport:
    """Wraps a transport: spans and byte counts for every line while tracing.

    Bytes are the UTF-8 encoded lines plus their newline, which is what the
    pipe carries.  A round trip runs from the start of a send to the end of
    the receive that follows it.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer
        self._send = tracer.wrap("external.send", inner.send_line)
        self._recv = tracer.wrap("external.recv", inner.recv_line)
        self.bytes_out = 0
        self.bytes_in = 0
        self.round_trips = 0
        self.rtt_s: list[float] = []
        self._sent_at: float | None = None

    def send_line(self, line: str) -> None:
        if not self._tracer.enabled:
            return self.inner.send_line(line)
        self._sent_at = perf_counter()
        self._send(line)
        self.bytes_out += len(line.encode("utf-8")) + 1

    def recv_line(self) -> str:
        if not self._tracer.enabled:
            return self.inner.recv_line()
        line = self._recv()
        self.bytes_in += len(line.encode("utf-8")) + (0 if line.endswith("\n") else 1)
        if self._sent_at is not None:
            self.round_trips += 1
            self.rtt_s.append(perf_counter() - self._sent_at)
            self._sent_at = None
        return line

    def close(self) -> None:
        self.inner.close()
