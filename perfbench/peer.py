"""Benchmark-owned external tagger peer: stdlib only, deterministic replies.

Usage: python3 peer.py VOCAB_FILE

Speaks the newline-delimited JSON protocol of the package README on stdio:
the hello carries the SHA-256 of the vocabulary file bytes, and every
request ``{"id": n, "sentences": [...]}`` gets one prediction per sentence
with a full V-wide ``dist`` row per token.  A reply is a pure function of
the request words and the vocabulary file:

* a word whose CRC-32 falls in the first REPLACE_SHARE percent is replaced
  by a settled word (one that the peer keeps);
* a word in the next CHAIN_SHARE percent is replaced by a word of the first
  group, which the next pass replaces again;
* every other token, the sentinel included, is kept.

So a sentence takes one pass (nothing to edit), two or three passes, never
more.  The shares are high enough that most sentences hold a chained word
and take three passes, which keeps the work per sentence steady across
input seeds.  Edit rows put 0.75 on the edit and 0.25 on ``$KEEP``.

Any change to the wire format (for instance a compact ``top1`` reply) must
first be added to this peer in a benchmark-only change; until then
``peer-simplify`` cannot show a gain from it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib

REPLACE_SHARE = 20
CHAIN_SHARE = 20
EDIT_WEIGHT = "0.75"
KEEP_WEIGHT = "0.25"
EDIT_DETECT = 0.9
KEEP_DETECT = 0.05


def word_class(word: str) -> int:
    return zlib.crc32(word.encode("utf-8")) % 100


class Peer:
    def __init__(self, vocab_bytes: bytes):
        self.sha256 = hashlib.sha256(vocab_bytes).hexdigest()
        tags = [line for line in vocab_bytes.decode("utf-8").splitlines() if line.strip()]
        self.width = len(tags)
        replace = [(i, tag[len("$REPLACE_"):]) for i, tag in enumerate(tags)
                   if tag.startswith("$REPLACE_")]
        self.settled = [i for i, word in replace
                        if word_class(word) >= REPLACE_SHARE + CHAIN_SHARE]
        self.chained = [i for i, word in replace if word_class(word) < REPLACE_SHARE]
        self.keep_row = "[1.0" + ", 0.0" * (self.width - 1) + "]"
        self._rows: dict[int, str] = {}

    def tag_id(self, word: str, position: int) -> int:
        """Vocabulary id of the edit for this word, or 0 to keep it."""
        if position == 0:
            return 0
        cls = word_class(word)
        crc = zlib.crc32(word.encode("utf-8"))
        if cls < REPLACE_SHARE and self.settled:
            return self.settled[(crc // 100) % len(self.settled)]
        if cls < REPLACE_SHARE + CHAIN_SHARE and self.chained:
            return self.chained[(crc // 100) % len(self.chained)]
        return 0

    def row(self, tag_id: int) -> str:
        if tag_id == 0:
            return self.keep_row
        row = self._rows.get(tag_id)
        if row is None:
            cells = ["0.0"] * self.width
            cells[0] = KEEP_WEIGHT
            cells[tag_id] = EDIT_WEIGHT
            row = self._rows[tag_id] = "[" + ", ".join(cells) + "]"
        return row

    def prediction(self, sentence: list[str]) -> str:
        ids = [self.tag_id(word, i) for i, word in enumerate(sentence)]
        detect = [EDIT_DETECT if i else KEEP_DETECT for i in ids]
        rows = ", ".join(self.row(i) for i in ids)
        return '{"detect": ' + json.dumps(detect) + ', "dist": [' + rows + "]}"

    def reply(self, request: dict) -> str:
        preds = ", ".join(self.prediction(s) for s in request["sentences"])
        return '{"id": ' + json.dumps(request["id"]) + ', "predictions": [' + preds + "]}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: peer.py VOCAB_FILE", file=sys.stderr)
        return 2
    with open(argv[1], "rb") as fh:
        peer = Peer(fh.read())
    hello = json.loads(sys.stdin.readline() or "null")
    if not isinstance(hello, dict) or "hello" not in hello:
        print(f"peer: expected a hello, got {hello!r}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps({"hello": {"vocab_sha256": peer.sha256}}) + "\n")
    sys.stdout.flush()
    for line in iter(sys.stdin.readline, ""):
        sys.stdout.write(peer.reply(json.loads(line)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
