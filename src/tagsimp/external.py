"""Client for external tagger peers speaking newline-delimited JSON.

The wire protocol, over stdio of a subprocess or a TCP connection:

* handshake: the client sends ``{"hello": {"vocab_sha256": <hex>}}`` and the
  peer answers with the same shape; both send ``TagVocabulary.sha256()`` of
  the vocabulary loaded out-of-band, and the digests must match.
* request:  ``{"id": n, "sentences": [["$START", "he", ...], ...]}``
* response: ``{"id": n, "predictions": [{"detect": [...], "dist": [[...], ...]}, ...]}``

One JSON object per line; response ids echo request ids; predictions pair
one-to-one with the request sentences, in order.  Full distributions are
carried (no top-k) so that ensembles stay exact.
"""

from __future__ import annotations

import json
import reprlib
import socket
import subprocess
from typing import NoReturn, Protocol, Sequence

import numpy as np

from .core import TagVocabulary, TokenSeq
from .errors import PeerUnavailable, ProtocolError
from .tagger import TagPrediction


class Transport(Protocol):
    def send_line(self, line: str) -> None: ...
    def recv_line(self) -> str: ...
    def close(self) -> None: ...


class SubprocessTransport:
    """Talks to a peer process over its stdin/stdout."""

    def __init__(self, argv: Sequence[str]):
        try:
            self._proc = subprocess.Popen(
                list(argv),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise PeerUnavailable(f"cannot start peer {argv!r}: {exc}") from exc

    def send_line(self, line: str) -> None:
        try:
            assert self._proc.stdin is not None
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError, OSError) as exc:
            raise PeerUnavailable(f"peer pipe closed: {exc}") from exc

    def recv_line(self) -> str:
        assert self._proc.stdout is not None
        line = self._proc.stdout.readline()
        if line == "":
            raise PeerUnavailable("peer closed its output")
        return line

    def close(self) -> None:
        if self._proc.stdin is not None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()


class TcpTransport:
    """Talks to a peer over a TCP connection."""

    def __init__(self, host: str, port: int):
        try:
            self._sock = socket.create_connection((host, port))
        except OSError as exc:
            raise PeerUnavailable(f"cannot connect to {host}:{port}: {exc}") from exc
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8")

    def send_line(self, line: str) -> None:
        try:
            self._writer.write(line + "\n")
            self._writer.flush()
        except OSError as exc:
            raise PeerUnavailable(f"peer connection lost: {exc}") from exc

    def recv_line(self) -> str:
        line = self._reader.readline()
        if line == "":
            raise PeerUnavailable("peer closed the connection")
        return line

    def close(self) -> None:
        # The makefile streams hold the socket's fd open until they close too.
        for stream in (self._reader, self._writer, self._sock):
            try:
                stream.close()
            except OSError:
                pass


def _reject_constant(name: str) -> NoReturn:
    """Decoder hook for ``NaN``/``Infinity``, which are not JSON numbers."""
    raise ProtocolError(f"peer sent non-finite number {name}")


def _dist_to_array(obj: dict) -> dict:
    """Decoder hook: makes a prediction's ``dist`` rows one float64 array as the
    scanner completes the object, so its Python floats are freed before the next
    prediction is parsed.  Rows numpy cannot convert stay a list, which
    ``_parse_prediction`` and ``np.asarray`` reject as before."""
    dist = obj.get("dist")
    if type(dist) is list and "detect" in obj:
        try:
            obj["dist"] = np.array(dist, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


_DECODER = json.JSONDecoder(parse_constant=_reject_constant, object_hook=_dist_to_array)

# Errors quote peer input through these limits: a reply line can be tens of
# megabytes, and the engine copies the message into every failed line's error.
# Two levels of at most three items, each at most 40 characters, stay under 1 KB.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 2
_QUOTE.maxdict = _QUOTE.maxlist = _QUOTE.maxtuple = 3
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = 40
_quote = _QUOTE.repr


class ExternalTaggerClient:
    """TaggerBackend backed by a protocol peer.

    One caller at a time: a request's reply is the next line read from the
    transport, so concurrent callers would read each other's replies.  Give
    each thread its own client (and its own connection).
    """

    def __init__(self, transport: Transport, vocab: TagVocabulary):
        self._transport = transport
        self._vocab_size = len(vocab)
        self._next_id = 0
        try:
            self._handshake(vocab)
        except BaseException:
            transport.close()  # the caller gets no client to close
            raise

    @classmethod
    def from_command(cls, argv: Sequence[str], vocab: TagVocabulary) -> "ExternalTaggerClient":
        return cls(SubprocessTransport(argv), vocab)

    @classmethod
    def from_tcp(cls, host: str, port: int, vocab: TagVocabulary) -> "ExternalTaggerClient":
        return cls(TcpTransport(host, port), vocab)

    def _handshake(self, vocab: TagVocabulary) -> None:
        ours = vocab.sha256()
        self._transport.send_line(json.dumps({"hello": {"vocab_sha256": ours}}))
        reply = self._read_json()
        hello = reply.get("hello")
        theirs = hello.get("vocab_sha256") if isinstance(hello, dict) else None
        if not isinstance(theirs, str):
            raise ProtocolError(f"expected hello handshake, got {_quote(reply)}")
        if theirs != ours:
            raise ProtocolError(
                f"vocabulary mismatch: ours {ours[:12]}..., peer {theirs[:12]}..."
            )

    def _read_json(self) -> dict:
        line = self._transport.recv_line()
        try:
            msg = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"peer sent invalid JSON: {_quote(line)}") from exc
        if not isinstance(msg, dict):
            raise ProtocolError(f"peer message is not an object: {_quote(msg)}")
        return msg

    def predict_batch(self, seqs: Sequence[TokenSeq]) -> list[TagPrediction]:
        request_id = self._next_id
        self._next_id += 1
        sentences = [[tok.text for tok in seq] for seq in seqs]
        self._transport.send_line(json.dumps({"id": request_id, "sentences": sentences}))
        msg = self._read_json()
        if msg.get("id") != request_id:
            raise ProtocolError(f"response id {_quote(msg.get('id'))} does not echo {request_id}")
        preds = msg.get("predictions")
        if not isinstance(preds, list) or len(preds) != len(seqs):
            got = len(preds) if isinstance(preds, list) else preds
            raise ProtocolError(f"expected {len(seqs)} predictions, got {_quote(got)}")
        out = []
        for seq, raw in zip(seqs, preds):
            out.append(self._parse_prediction(raw, len(seq)))
        return out

    def _parse_prediction(self, raw: object, n_tokens: int) -> TagPrediction:
        if not isinstance(raw, dict) or "detect" not in raw or "dist" not in raw:
            raise ProtocolError(f"prediction must have detect and dist: {_quote(raw)}")
        detect = raw["detect"]
        dist = raw["dist"]
        if not isinstance(detect, list) or len(detect) != n_tokens:
            raise ProtocolError(f"detect must have {n_tokens} entries")
        if not isinstance(dist, (list, np.ndarray)) or len(dist) != n_tokens:
            raise ProtocolError(f"dist must have {n_tokens} rows")
        for row in dist:
            if not isinstance(row, (list, np.ndarray)) or len(row) != self._vocab_size:
                raise ProtocolError(f"dist rows must have {self._vocab_size} entries")
        # Probability invariants (row sums, ranges) raise InvariantViolation.
        return TagPrediction(
            detect=np.asarray(detect, dtype=np.float64),
            dist=np.asarray(dist, dtype=np.float64),
        )

    def close(self) -> None:
        self._transport.close()
