"""Client for external tagger peers speaking newline-delimited JSON.

The wire protocol, over stdio of a subprocess or a TCP connection:

* handshake: the client sends ``{"hello": {"vocab_sha256": <hex>}}`` and the
  peer answers with the same shape; both send ``TagVocabulary.sha256()`` of
  the vocabulary loaded out-of-band, and the digests must match.
* request:  ``{"id": n, "sentences": [["$START", "he", ...], ...]}``
* response: ``{"id": n, "predictions": [{"detect": [...], "dist": [[...], ...]}, ...]}``

One JSON object per UTF-8 line, which ends at a ``\\n`` byte (a ``\\r`` is JSON
whitespace); response ids echo request ids; predictions pair one-to-one with
the request sentences, in order.  Full distributions are carried (no top-k) so
that ensembles stay exact.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import reprlib
import socket
import subprocess
from typing import BinaryIO, NoReturn, Protocol, Sequence

import numpy as np

from .core import TagVocabulary, TokenSeq
from .errors import PeerUnavailable, ProtocolError
from .tagger import TagPrediction


class Transport(Protocol):
    def send_line(self, line: str) -> None: ...
    def recv_line(self) -> str: ...
    def close(self) -> None: ...


# A reply line can be tens of megabytes.  Reading up to a pipe's capacity per
# call and decoding in small pieces joined once makes one line-sized
# allocation, where decoding a whole bytes line would make two.
_READ_BUFFER = 64 * 1024
_PIECE = 16 * 1024


class LineTransport:
    """Frames protocol lines over a binary reader and writer.

    A line is UTF-8 ending at a ``\\n`` byte; a ``\\r`` is JSON whitespace
    inside it, not a line end.
    """

    def __init__(self, reader: BinaryIO, writer: BinaryIO):
        self._reader = reader
        self._writer = writer

    def send_line(self, line: str) -> None:
        try:
            self._writer.write(line.encode("utf-8") + b"\n")
            self._writer.flush()
        except (ValueError, OSError) as exc:
            raise PeerUnavailable(f"peer connection lost: {exc}") from exc

    def recv_line(self) -> str:
        decoder = codecs.getincrementaldecoder("utf-8")()
        parts = []
        while True:
            raw = self._reader.readline(_PIECE)
            last = len(raw) < _PIECE or raw.endswith(b"\n")
            try:
                parts.append(decoder.decode(raw, last))
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"peer sent a line that is not UTF-8: {_quote(raw)}") from exc
            if last:
                break
        line = "".join(parts)
        if not line:
            raise PeerUnavailable("peer closed its output")
        return line

    def close(self) -> None:
        for stream in (self._writer, self._reader):
            with contextlib.suppress(OSError):  # a dead peer fails the writer's last flush
                stream.close()


class SubprocessTransport(LineTransport):
    """Talks to a peer process over its stdin/stdout."""

    def __init__(self, argv: Sequence[str]):
        try:
            self._proc = subprocess.Popen(
                list(argv), stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=_READ_BUFFER
            )
        except OSError as exc:
            raise PeerUnavailable(f"cannot start peer {argv!r}: {exc}") from exc
        super().__init__(self._proc.stdout, self._proc.stdin)

    def close(self) -> None:
        super().close()
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


class TcpTransport(LineTransport):
    """Talks to a peer over a TCP connection."""

    def __init__(self, host: str, port: int):
        try:
            sock = socket.create_connection((host, port))
        except OSError as exc:
            raise PeerUnavailable(f"cannot connect to {host}:{port}: {exc}") from exc
        with sock:  # the fd is released once both streams are closed too
            super().__init__(sock.makefile("rb", _READ_BUFFER), sock.makefile("wb"))


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
