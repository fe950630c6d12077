"""Standalone external-tagger peer for protocol tests.

Speaks the newline-delimited JSON protocol on stdio without importing the
package, so the wire format is exercised from an independent
implementation.  Usage: python peer_main.py VOCAB_FILE MODE

Modes: ok (all-KEEP one-hots), wrong-count (one prediction short),
bad-sum (first dist row sums to 0.5), poison (like bad-sum, but only for
sentences holding the word "poison"), garbage (non-JSON line),
wrong-hash (handshake digest mismatch), die (exit after handshake),
cr (like ok, with a bare carriage return between the JSON tokens of every
line it sends), not-utf8 (like ok, with a 0xFF byte inside a JSON string of
every line it sends).
"""

import hashlib
import json
import sys


def write_line(data):
    sys.stdout.buffer.write(data + b"\n")
    sys.stdout.buffer.flush()


def send(obj, mode):
    """Writes one JSON line, framed as the mode asks."""
    separators = (",\r", ":\r") if mode == "cr" else None
    line = json.dumps(obj, separators=separators).encode("utf-8")
    if mode == "not-utf8":
        line = line.replace(b"{", b'{"note": "\xff", ', 1)
    write_line(line)


def main() -> int:
    vocab_path, mode = sys.argv[1], sys.argv[2]
    with open(vocab_path, "rb") as fh:
        data = fh.read()
    sha = hashlib.sha256(data).hexdigest()
    vocab_size = len([line for line in data.decode("utf-8").splitlines() if line.strip()])

    hello = json.loads(sys.stdin.readline())
    assert "hello" in hello, hello
    if mode == "wrong-hash":
        sha = "0" * 64
    send({"hello": {"vocab_sha256": sha}}, mode)
    if mode == "die":
        return 0

    for line in sys.stdin:
        request = json.loads(line)
        sentences = request["sentences"]
        if mode == "garbage":
            write_line(b"this is not json")
            continue
        predictions = []
        for sentence in sentences:
            n = len(sentence)
            dist = [[1.0] + [0.0] * (vocab_size - 1) for _ in range(n)]
            if mode == "poison" and "poison" in sentence:
                dist[0][0] = 0.5
            detect = [0.0] * n
            predictions.append({"detect": detect, "dist": dist})
        if mode == "wrong-count" and predictions:
            predictions = predictions[:-1]
        if mode == "bad-sum" and predictions:
            predictions[0]["dist"][0] = [0.5] + [0.0] * (vocab_size - 1)
        send({"id": request["id"], "predictions": predictions}, mode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
