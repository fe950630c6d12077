"""Command-line interface: preprocess, build-vocab, train-stat, simplify,
evaluate, tune and bench.

Every subcommand is a thin adapter over the library; identical inputs via
the CLI or via library calls produce identical artifacts.  Exit codes:
0 ok, 1 usage, 2 data error, 3 backend/protocol error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shlex
import sys
from contextlib import ExitStack, closing, contextmanager
from itertools import islice
from typing import Iterator

from .align import PairReader, build_vocab, filter_brackets
from .apply import VerbLexicon, default_lexicon
from .bench import bench as run_bench
from .core import TagVocabulary, detokenize, open_lines, tokenize
from .engine import InferenceConfig, simplify_batch
from .errors import (
    InvariantViolation,
    PeerUnavailable,
    ProtocolError,
    ShapeMismatch,
    TagsimpError,
)
from .external import ExternalTaggerClient
from .metrics import evaluate, read_eval_tsv
from .stat_tagger import DEFAULT_HASH_DIM, StatTaggerModel, stat_train
from .tagger import CorpusOracleBackend, OracleBackend
from .tune import tune, tune_log_tsv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

# Lines read, simplified and written at a time by `simplify`, and the
# `bench --batch-size` default.
BATCH_SIZE = 128


def _read_lines(path) -> list[str]:
    with open_lines(path) as lines:
        return list(lines)


def _chunks(lines) -> Iterator[list[str]]:
    """The lines, BATCH_SIZE at a time."""
    while chunk := list(islice(lines, BATCH_SIZE)):
        yield chunk


def _count_lines(path) -> int:
    with open_lines(path) as lines:
        return sum(1 for _ in lines)


def _load_lexicon(args) -> VerbLexicon:
    if args.lexicon:
        return VerbLexicon.from_path(args.lexicon)
    return default_lexicon()


def _load_config(args) -> InferenceConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = InferenceConfig.from_text(fh.read())
    else:
        cfg = InferenceConfig.zero_tweaks()
    # Each config field has a same-named override flag (see _add_config_args).
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cfg)
        if getattr(args, f.name) is not None
    }
    return dataclasses.replace(cfg, **overrides)


def _add_config_args(sub) -> None:
    sub.add_argument("--config", help="inference config file (key = value lines)")
    sub.add_argument("--keep-bias", type=float, dest="keep_bias")
    sub.add_argument("--delete-bias", type=float, dest="delete_bias")
    sub.add_argument("--min-edit-prob", type=float, dest="min_edit_prob")
    sub.add_argument("--max-iterations", type=int, dest="max_iterations")


def _add_backend_args(sub) -> None:
    sub.add_argument("--backend", required=True, choices=["oracle", "stat", "external"])
    sub.add_argument("--vocab", required=True, help="tag vocabulary file")
    sub.add_argument("--model", help="stat model file (backend=stat)")
    sub.add_argument("--peer-cmd", type=shlex.split,
                     help="peer command line, split like a shell's (backend=external, stdio)")
    sub.add_argument("--peer-host", help="peer host (backend=external, TCP)")
    sub.add_argument("--peer-port", type=int, help="peer port (backend=external, TCP)")
    sub.add_argument("--lexicon", help="verb-form lexicon TSV (default: packaged)")


@contextmanager
def _backend(args, vocab, lexicon, pairs=()):
    """The `--backend` of simplify, tune and bench, checked; closed on exit.

    The oracle is a one-pass corpus oracle over the (source, target) `pairs`:
    a sentence it was not given, such as a later pass's edit, is answered as itself.
    """
    if args.backend == "oracle":
        yield CorpusOracleBackend(pairs, vocab, lexicon)
    elif args.backend == "stat":
        model = StatTaggerModel.load(args.model)
        if not model.vocab_sha256:
            print(f"warning: {args.model} records no tag vocabulary; assuming {args.vocab}",
                  file=sys.stderr)
        elif model.vocab_sha256 != vocab.sha256():
            raise ValueError(f"{args.model} was trained on another tag vocabulary "
                             f"than {args.vocab}")
        yield model
    else:
        if args.peer_cmd:
            client = ExternalTaggerClient.from_command(args.peer_cmd, vocab)
        else:
            client = ExternalTaggerClient.from_tcp(args.peer_host, args.peer_port, vocab)
        with closing(client):
            yield client


def cmd_preprocess(args) -> int:
    skipped = 0
    with open_lines(args.input) as lines, open(args.output, "w", encoding="utf-8") as dst:
        for line in lines:
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) > 2:
                skipped += 1
                continue
            normalized = []
            for field in fields:
                seq = tokenize(field)
                if args.filter_brackets:
                    seq = filter_brackets(seq)
                normalized.append(detokenize(seq))
            dst.write("\t".join(normalized) + "\n")
    if skipped:
        print(f"warning: skipped {skipped} lines with more than 2 fields", file=sys.stderr)
    return EXIT_OK


def cmd_build_vocab(args) -> int:
    reader = PairReader(args.corpus)
    lexicon = _load_lexicon(args)
    pairs = ((tokenize(src), tokenize(tgt)) for src, tgt in reader)
    vocab = build_vocab(pairs, capacity=args.capacity, lexicon=lexicon)
    vocab.save(args.output)
    if reader.skipped:
        print(f"warning: skipped {reader.skipped} malformed lines", file=sys.stderr)
    print(f"wrote {len(vocab)} tags to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_train_stat(args) -> int:
    if args.hash_dim < 1 or args.epochs < 1:
        raise ValueError("--hash-dim and --epochs must be >= 1")
    if not (math.isfinite(args.lr) and args.lr > 0):
        raise ValueError("--lr must be finite and > 0")
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError("--seed must be in [0, 2**64) to train a stat model")
    vocab = TagVocabulary.load(args.vocab)
    lexicon = _load_lexicon(args)
    reader = PairReader(args.corpus)
    pairs = [(tokenize(src), tokenize(tgt)) for src, tgt in reader]
    model = stat_train(
        pairs,
        vocab,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=args.seed,
        dim=args.hash_dim,
        lexicon=lexicon,
    )
    model.save(args.output)
    if reader.skipped:
        print(f"warning: skipped {reader.skipped} malformed lines", file=sys.stderr)
    losses = ", ".join(f"{loss:.4f}" for loss in model.epoch_losses)
    size_mb = os.path.getsize(args.output) / 1e6
    print(f"trained on {len(pairs)} pairs; epoch losses: {losses}; "
          f"{len(model.hashes)} of {model.dim} hash rows trained ({size_mb:.2f} MB)",
          file=sys.stderr)
    return EXIT_OK


def cmd_simplify(args) -> int:
    vocab = TagVocabulary.load(args.vocab)
    lexicon = _load_lexicon(args)
    cfg = _load_config(args)
    # The oracle with references tags each sentence toward its own reference,
    # so it iterates all the way to it; every other backend takes a chunk per call.
    failures = 0
    with ExitStack() as stack:
        chunks = _chunks(stack.enter_context(open_lines(args.input)))
        if args.references:
            n_sources, n_targets = _count_lines(args.input), _count_lines(args.references)
            if n_sources != n_targets:
                raise ValueError(f"{n_sources} input sentences but {n_targets} references")
            targets = _chunks(stack.enter_context(open_lines(args.references)))
        else:  # no sources: the identity oracle answers a sentence it lacks as itself
            backend = stack.enter_context(_backend(args, vocab, lexicon))
        out_fh = stack.enter_context(open(args.output, "w", encoding="utf-8"))
        trace_fh = args.trace and stack.enter_context(open(args.trace, "w", encoding="utf-8"))
        # Fixed-size chunks bound the memory of a run; a sentence's result
        # does not depend on the others in its batch.
        lineno = 0
        for lines in chunks:
            sources = [tokenize(line) for line in lines]
            if args.references:
                results = [
                    simplify_batch([src], OracleBackend(tokenize(tgt), vocab, lexicon),
                                   vocab, cfg, lexicon=lexicon)[0]
                    for src, tgt in zip(sources, next(targets))
                ]
            else:
                results = simplify_batch(sources, backend, vocab, cfg, lexicon=lexicon)
            for src, item in zip(sources, results):
                lineno += 1
                if item.ok:
                    out_fh.write(detokenize(item.output) + "\n")
                    if trace_fh:
                        trace_fh.write(json.dumps(item.trace.to_dict()) + "\n")
                else:
                    failures += 1
                    out_fh.write(detokenize(src) + "\n")  # degrade to the input line
                    print(f"line {lineno}: {item.error}", file=sys.stderr)
                    if trace_fh:
                        trace_fh.write(json.dumps({"error": item.error}) + "\n")
    if failures:
        print(f"{failures} lines failed; their inputs were passed through", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_evaluate(args) -> int:
    records = read_eval_tsv(args.records)
    report = evaluate(records, with_fkgl=not args.no_fkgl)
    print(report.pretty())
    if args.tsv_out:
        with open(args.tsv_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
    return EXIT_OK


def cmd_tune(args) -> int:
    vocab = TagVocabulary.load(args.vocab)
    lexicon = _load_lexicon(args)
    dev = []
    for lineno, line in enumerate(_read_lines(args.dev), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ValueError(f"{args.dev}:{lineno}: need source and >=1 reference")
        dev.append((fields[0], tuple(fields[1:])))
    pairs = ((tokenize(src), tokenize(refs[0])) for src, refs in dev)
    with _backend(args, vocab, lexicon, pairs) as backend:
        result = tune(dev, backend, vocab, budget=args.budget, seed=args.seed,
                      lexicon=lexicon)
    with open(args.config_out, "w", encoding="utf-8") as fh:
        fh.write(result.config.to_text())
    if args.log_out:
        with open(args.log_out, "w", encoding="utf-8") as fh:
            fh.write(tune_log_tsv(result))
    c = result.config
    print(
        f"best dev sari {result.dev_sari:.4f} with keep_bias={c.keep_bias:.4f} "
        f"delete_bias={c.delete_bias:.4f} min_edit_prob={c.min_edit_prob:.4f} "
        f"iterations={c.max_iterations}"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    vocab = TagVocabulary.load(args.vocab)
    lexicon = _load_lexicon(args)
    cfg = _load_config(args)
    sources = [tokenize(line) for line in _read_lines(args.corpus)]
    pairs = ()
    if args.references:  # only with the oracle (checked in main)
        targets = [tokenize(line) for line in _read_lines(args.references)]
        if len(targets) != len(sources):
            raise ValueError(f"{len(sources)} input sentences but {len(targets)} references")
        pairs = zip(sources, targets)
    with _backend(args, vocab, lexicon, pairs) as backend:
        report = run_bench(
            sources,
            backend,
            vocab,
            cfg,
            batch_size=args.batch_size,
            runs=args.runs,
            lexicon=lexicon,
        )
    print(report.pretty())
    if args.tsv_out:
        with open(args.tsv_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_tsv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagsimp", description="Text simplification by iterative edit tagging"
    )
    parser.add_argument("--seed", type=int, default=1, help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normalize a corpus, optionally filtering brackets")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--filter-brackets", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-vocab", help="build a tag vocabulary from a parallel TSV")
    p.add_argument("corpus")
    p.add_argument("output")
    p.add_argument("--capacity", type=int, default=5000)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train-stat", help="train the statistical tagger")
    p.add_argument("corpus")
    p.add_argument("output")
    p.add_argument("--vocab", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--hash-dim", type=int, default=DEFAULT_HASH_DIM)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_train_stat)

    p = sub.add_parser("simplify", help="simplify sentences, one per line")
    p.add_argument("input")
    p.add_argument("output")
    _add_backend_args(p)
    p.add_argument("--references", help="reference sentences, one per line (backend=oracle); "
                   "each line is iterated to its own reference")
    _add_config_args(p)
    p.add_argument("--trace", help="write per-sentence traces as JSON lines")
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("evaluate", help="score source<TAB>system<TAB>refs records")
    p.add_argument("records")
    p.add_argument("--tsv-out")
    p.add_argument("--no-fkgl", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="search inference tweaks on a dev set")
    p.add_argument("dev", help="TSV: source<TAB>ref1[<TAB>ref2 ...]")
    _add_backend_args(p)
    p.add_argument("--budget", type=int, default=32)
    p.add_argument("--config-out", required=True)
    p.add_argument("--log-out")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("bench", help="time batched inference per iteration count")
    p.add_argument("corpus")
    _add_backend_args(p)
    p.add_argument("--references", help="reference sentences, one per line (backend=oracle)")
    _add_config_args(p)
    p.add_argument("--batch-size", type=int, default=BATCH_SIZE)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--tsv-out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The backend-flag rules argparse cannot state, checked before any file is read.
        backend = getattr(args, "backend", None)
        if backend == "stat" and not args.model:
            parser.error("--model is required with --backend stat")
        if backend == "external" and not (args.peer_cmd or (args.peer_host and args.peer_port)):
            parser.error("--peer-cmd or --peer-host/--peer-port required with --backend external")
        if backend and args.peer_port is not None and not 0 < args.peer_port < 65536:
            parser.error("--peer-port must be in 1..65535")  # a socket would wrap it
        if backend != "oracle" and getattr(args, "references", None):
            parser.error("--references needs --backend oracle")
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ProtocolError, PeerUnavailable, InvariantViolation, ShapeMismatch) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (TagsimpError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
