import contextlib
import gc
import io
import json
import socket
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import vocab_for
from tagsimp.core import TagVocabulary, TokenSeq, tokenize
from tagsimp.errors import InvariantViolation, PeerUnavailable, ProtocolError
from tagsimp import external
from tagsimp.external import (
    ExternalTaggerClient,
    LineTransport,
    SubprocessTransport,
    TcpTransport,
)

PEER = Path(__file__).parent / "peer_main.py"


@pytest.fixture()
def vocab_file(tmp_path):
    vocab = vocab_for([("a b", "a x")])
    path = tmp_path / "tags.vocab"
    vocab.save(path)
    return vocab, path


def client_for(vocab, path, mode):
    return ExternalTaggerClient.from_command(
        [sys.executable, str(PEER), str(path), mode], vocab
    )


class TestSubprocessPeer:
    def test_identity_behavior(self, vocab_file):
        vocab, path = vocab_file
        client = client_for(vocab, path, "ok")
        try:
            preds = client.predict_batch([tokenize("a b"), tokenize("x")])
            assert len(preds) == 2
            for seq, pred in zip((tokenize("a b"), tokenize("x")), preds):
                assert len(pred) == len(seq)
                assert np.argmax(pred.dist, axis=1).tolist() == [0] * len(seq)
        finally:
            client.close()

    def test_batch_order_and_ids_across_requests(self, vocab_file):
        vocab, path = vocab_file
        client = client_for(vocab, path, "ok")
        try:
            for _ in range(3):  # ids must keep echoing across calls
                preds = client.predict_batch([tokenize("a")])
                assert len(preds) == 1
        finally:
            client.close()

    def test_wrong_prediction_count(self, vocab_file):
        vocab, path = vocab_file
        client = client_for(vocab, path, "wrong-count")
        try:
            with pytest.raises(ProtocolError):
                client.predict_batch([tokenize("a"), tokenize("b")])
        finally:
            client.close()

    def test_bad_row_sum(self, vocab_file):
        vocab, path = vocab_file
        client = client_for(vocab, path, "bad-sum")
        try:
            with pytest.raises(InvariantViolation):
                client.predict_batch([tokenize("a")])
        finally:
            client.close()

    def test_garbage_response(self, vocab_file):
        vocab, path = vocab_file
        client = client_for(vocab, path, "garbage")
        try:
            with pytest.raises(ProtocolError):
                client.predict_batch([tokenize("a")])
        finally:
            client.close()

    def test_handshake_mismatch(self, vocab_file):
        vocab, path = vocab_file
        with pytest.raises(ProtocolError):
            client_for(vocab, path, "wrong-hash")

    def test_peer_death(self, vocab_file):
        vocab, path = vocab_file
        client = client_for(vocab, path, "die")
        try:
            with pytest.raises(PeerUnavailable):
                client.predict_batch([tokenize("a")])
        finally:
            client.close()

    def test_unstartable_peer(self, vocab_file):
        vocab, _ = vocab_file
        with pytest.raises(PeerUnavailable):
            ExternalTaggerClient.from_command(["/nonexistent/peer"], vocab)

    def test_all_keep_peer_is_identity_through_engine(self, vocab_file):
        from tagsimp.engine import InferenceConfig, simplify

        vocab, path = vocab_file
        client = client_for(vocab, path, "ok")
        try:
            out, trace = simplify(
                tokenize("a b"), client, vocab, InferenceConfig.zero_tweaks()
            )
            assert out == tokenize("a b")
            assert len(trace.steps) == 1
        finally:
            client.close()


class _TcpPeer(threading.Thread):
    """Minimal in-process TCP peer speaking the protocol."""

    def __init__(self, vocab):
        super().__init__(daemon=True)
        self.sha = vocab.sha256()
        self.vocab_size = len(vocab)
        self.server = socket.socket()
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(1)
        self.port = self.server.getsockname()[1]

    def run(self):
        with self.server:
            conn, _ = self.server.accept()
        with conn, conn.makefile("r", encoding="utf-8") as reader, \
                conn.makefile("w", encoding="utf-8") as writer:
            self._serve(reader, writer)

    def _serve(self, reader, writer):
        json.loads(reader.readline())
        writer.write(json.dumps({"hello": {"vocab_sha256": self.sha}}) + "\n")
        writer.flush()
        for line in reader:
            request = json.loads(line)
            preds = []
            for sentence in request["sentences"]:
                n = len(sentence)
                preds.append({
                    "detect": [0.0] * n,
                    "dist": [[1.0] + [0.0] * (self.vocab_size - 1)] * n,
                })
            writer.write(json.dumps({"id": request["id"], "predictions": preds}) + "\n")
            writer.flush()


class TestTcpPeer:
    def test_tcp_roundtrip(self, vocab_file):
        vocab, _ = vocab_file
        peer = _TcpPeer(vocab)
        peer.start()
        client = ExternalTaggerClient(TcpTransport("127.0.0.1", peer.port), vocab)
        try:
            preds = client.predict_batch([tokenize("a b c")])
            assert len(preds) == 1 and len(preds[0]) == 4
        finally:
            client.close()
        peer.join(timeout=10)  # the peer's read loop ends at EOF
        assert not peer.is_alive()

    def test_connection_refused(self, vocab_file):
        vocab, _ = vocab_file
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        free_port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(PeerUnavailable):
            ExternalTaggerClient.from_tcp("127.0.0.1", free_port, vocab)


@contextlib.contextmanager
def peer_transport(kind, path, mode):
    """A transport to peer_main.py: over its stdio, or over TCP with the
    accepted socket as its stdin and stdout."""
    argv = [sys.executable, str(PEER), str(path), mode]
    if kind == "pipe":
        transport, proc = SubprocessTransport(argv), None
    else:
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            transport = TcpTransport("127.0.0.1", server.getsockname()[1])
            conn, _ = server.accept()
        with conn:
            proc = subprocess.Popen(argv, stdin=conn, stdout=conn)
    try:
        yield transport
    finally:
        transport.close()
        if proc is not None:
            proc.wait(timeout=10)


@pytest.mark.parametrize("kind", ["pipe", "tcp"])
class TestFramingOverBothTransports:
    def test_bare_cr_is_json_whitespace(self, vocab_file, kind):
        vocab, path = vocab_file
        seqs = [tokenize("a b"), tokenize("x")]
        preds = {}
        for mode in ("ok", "cr"):
            with peer_transport(kind, path, mode) as transport:
                preds[mode] = ExternalTaggerClient(transport, vocab).predict_batch(seqs)
        for ok, cr in zip(preds["ok"], preds["cr"], strict=True):
            assert np.array_equal(cr.detect, ok.detect) and np.array_equal(cr.dist, ok.dist)

    def test_line_that_is_not_utf8_is_a_protocol_error(self, vocab_file, kind):
        vocab, path = vocab_file
        with peer_transport(kind, path, "not-utf8") as transport:
            with pytest.raises(ProtocolError, match="not UTF-8") as info:
                ExternalTaggerClient(transport, vocab)
        assert len(str(info.value)) < 1024


class TestLineTransport:
    def reader(self, data):
        return LineTransport(io.BufferedReader(io.BytesIO(data)), io.BytesIO())

    def test_lines_end_only_at_a_newline_byte(self):
        transport = self.reader(b'{"a":\r 1}\r\n[2,\r\x0b3]\nlast')
        assert transport.recv_line() == '{"a":\r 1}\r\n'
        assert transport.recv_line() == "[2,\r\x0b3]\n"
        assert transport.recv_line() == "last"  # a line cut short by EOF
        with pytest.raises(PeerUnavailable):
            transport.recv_line()

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1])
    def test_long_line_with_characters_across_read_pieces(self, offset):
        line = "x" * (external._PIECE + offset) + "\u00e9\u20ac" * external._PIECE + "\n"
        transport = self.reader(line.encode("utf-8") * 2)
        assert transport.recv_line() == line
        assert transport.recv_line() == line

    @pytest.mark.parametrize("data", [
        b"\xff\n",
        b"x" * (3 * external._PIECE) + b"\xc3(\n",
        b"ends mid-character \xe2\x82",
    ], ids=["invalid byte", "invalid in a later piece", "truncated at EOF"])
    def test_line_that_is_not_utf8_is_a_protocol_error(self, data):
        with pytest.raises(ProtocolError, match="not UTF-8") as info:
            self.reader(data).recv_line()
        assert len(str(info.value)) < 1024

    def test_send_line_writes_utf8_and_a_newline(self):
        writer = io.BytesIO()
        LineTransport(io.BytesIO(), writer).send_line('["\u00e9"]')
        assert writer.getvalue() == '["\u00e9"]\n'.encode("utf-8")

    def test_send_on_a_closed_stream_is_peer_unavailable(self):
        transport = LineTransport(io.BytesIO(), io.BytesIO())
        transport.close()
        with pytest.raises(PeerUnavailable):
            transport.send_line("{}")


class _ScriptedTransport:
    """In-memory Transport: answers the handshake, then replays fixed lines."""

    def __init__(self, vocab, replies, hello=None):
        if hello is None:
            hello = json.dumps({"hello": {"vocab_sha256": vocab.sha256()}})
        self._replies = [line + "\n" for line in [hello] + replies]
        self.closed = False

    def send_line(self, line):
        pass

    def recv_line(self):
        return self._replies.pop(0)

    def close(self):
        self.closed = True


class TestFailedHandshakeClosesTransport:
    @pytest.mark.parametrize("hello", [
        json.dumps({"hello": {"vocab_sha256": "0" * 64}}),  # vocabulary mismatch
        json.dumps(["hello"]),  # not an object
    ])
    def test_transport_closed(self, vocab_file, hello):
        vocab, _ = vocab_file
        transport = _ScriptedTransport(vocab, [], hello=hello)
        with pytest.raises(ProtocolError):
            ExternalTaggerClient(transport, vocab)
        assert transport.closed

    def test_successful_handshake_keeps_transport_open(self, vocab_file):
        vocab, _ = vocab_file
        transport = _ScriptedTransport(vocab, [])
        ExternalTaggerClient(transport, vocab)
        assert not transport.closed


class TestBoundedErrorMessages:
    """Errors quote at most a bounded part of a peer's message, however long."""

    BIG = "w" * 1_000_000

    def _reply(self, vocab):
        row = [1.0] + [0.0] * (len(vocab) - 1)
        prediction = {"detect": [0.0] * 2, "dist": [row] * 2}
        reply = json.dumps({"id": 0, "predictions": [prediction] * 20_000})
        assert len(reply) > 1_000_000
        return reply

    def _error(self, vocab, replies, hello=None):
        with pytest.raises(ProtocolError) as info:
            client = ExternalTaggerClient(_ScriptedTransport(vocab, replies, hello), vocab)
            client.predict_batch([tokenize("a")])
        return str(info.value)

    def test_truncated_reply(self, vocab_file):
        vocab, _ = vocab_file
        message = self._error(vocab, [self._reply(vocab)[:-5]])
        assert message.startswith("peer sent invalid JSON: '{\"id\": 0, ")
        assert len(message) < 1024

    @pytest.mark.parametrize("reply, start", [
        (json.dumps([BIG]), "peer message is not an object"),
        (json.dumps({"id": BIG}), "response id"),
        (json.dumps({"id": 0, "predictions": {"x": BIG}}), "expected 1 predictions"),
        (json.dumps({"id": 0, "predictions": [[BIG] * 100]}), "prediction must have"),
    ], ids=["not an object", "id", "count", "prediction"])
    def test_malformed_reply(self, vocab_file, reply, start):
        vocab, _ = vocab_file
        message = self._error(vocab, [reply])
        assert message.startswith(start) and len(message) < 1024

    @pytest.mark.parametrize("hello", [{"hello": BIG}, {"greeting": [BIG] * 100}],
                             ids=["hello not an object", "no hello"])
    def test_malformed_hello(self, vocab_file, hello):
        vocab, _ = vocab_file
        message = self._error(vocab, [], hello=json.dumps(hello))
        assert message.startswith("expected hello handshake") and len(message) < 1024

    def test_many_predictions_are_summarized(self, vocab_file):
        vocab, _ = vocab_file
        reply = json.loads(self._reply(vocab))
        reply["predictions"] = [reply["predictions"]]  # one entry: a list of predictions
        message = self._error(vocab, [json.dumps(reply)])
        assert message.startswith("prediction must have") and len(message) < 1024


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_a_protocol_error(self, vocab_file, constant):
        vocab, _ = vocab_file
        row = [1.0] + [0.0] * (len(vocab) - 1)
        reply = (
            '{"id": 0, "predictions": [{"detect": [%s, 0.0], "dist": %s}]}'
            % (constant, json.dumps([row, row]))
        )
        client = ExternalTaggerClient(_ScriptedTransport(vocab, [reply]), vocab)
        with pytest.raises(ProtocolError, match="non-finite"):
            client.predict_batch([tokenize("a")])


class TestTransportClose:
    def test_tcp_close_sends_eof(self):
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            transport = TcpTransport("127.0.0.1", server.getsockname()[1])
            conn, _ = server.accept()
            with conn:
                conn.settimeout(10)
                transport.close()
                assert conn.recv(1) == b""  # EOF, not a timeout
        assert transport._reader.closed and transport._writer.closed

    def test_subprocess_close_releases_the_pipes(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transport = SubprocessTransport([sys.executable, "-c", "import sys; sys.stdin.read()"])
            transport.close()
            assert transport._proc.stdout.closed
            assert transport._proc.returncode is not None
            del transport
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_reply_decoding_peak_memory_is_bounded_by_its_arrays():
    # Decoded as one Python object first, the reply's floats would cost about
    # five times the arrays they become; decoding each prediction's rows as it
    # completes leaves one prediction's floats on top of the arrays.
    n_tags, n_sentences, n_tokens = 2000, 32, 12
    vocab = TagVocabulary.from_counts({f"$APPEND_w{i}": 1 for i in range(n_tags - 2)}, n_tags)
    seqs = [TokenSeq.from_words(["w"] * (n_tokens - 1)) for _ in range(n_sentences)]
    row = [1.0 / n_tags] * n_tags
    prediction = {"detect": [0.0] * n_tokens, "dist": [row] * n_tokens}
    reply = json.dumps({"id": 0, "predictions": [prediction] * n_sentences})
    assert len(reply) > 6_000_000
    client = ExternalTaggerClient(_ScriptedTransport(vocab, [reply]), vocab)
    del reply, prediction
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        preds = client.predict_batch(seqs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    array_bytes = sum(p.detect.nbytes + p.dist.nbytes for p in preds)
    assert array_bytes == n_sentences * n_tokens * (n_tags + 1) * 8
    assert peak <= 1.5 * array_bytes
