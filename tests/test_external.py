import json
import socket
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import vocab_for
from tagsimp.core import tokenize
from tagsimp.errors import InvariantViolation, PeerUnavailable, ProtocolError
from tagsimp.external import ExternalTaggerClient, TcpTransport

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
        conn, _ = self.server.accept()
        reader = conn.makefile("r", encoding="utf-8")
        writer = conn.makefile("w", encoding="utf-8")
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
        conn.close()


class TestTcpPeer:
    def test_tcp_roundtrip(self, vocab_file):
        vocab, _ = vocab_file
        peer = _TcpPeer(vocab)
        peer.start()
        client = ExternalTaggerClient(TcpTransport("127.0.0.1", peer.port), vocab)
        preds = client.predict_batch([tokenize("a b c")])
        assert len(preds) == 1 and len(preds[0]) == 4
        client.close()

    def test_connection_refused(self, vocab_file):
        vocab, _ = vocab_file
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        free_port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(PeerUnavailable):
            ExternalTaggerClient.from_tcp("127.0.0.1", free_port, vocab)


class _ScriptedTransport:
    """In-memory Transport: answers the handshake, then replays fixed lines."""

    def __init__(self, vocab, replies, hello=None):
        if hello is None:
            hello = json.dumps({"hello": {"vocab_sha256": vocab.sha256()}})
        self._replies = [hello] + replies
        self.closed = False

    def send_line(self, line):
        pass

    def recv_line(self):
        return self._replies.pop(0) + "\n"

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
