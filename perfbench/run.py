#!/usr/bin/env python3
"""tagsimp benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stat-simplify --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The line before the result is a report with machine facts,
sizes, the output digest, tail latency and, when traced, the
reconciliation check.  ``--record`` stores the run's output digest in
``perfbench/digests.json`` as the reference for that workload and seed.

The benchmark imports the package from ``src/`` of the checkout it sits in
and fails, printing no result, when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAMES = ("stat-simplify", "peer-simplify", "stat-tune")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's output digest as the reference")
    return ap.parse_args(argv)


def import_package():
    src = ROOT / "src"
    if not (src / "tagsimp" / "__init__.py").is_file():
        raise SystemExit(f"error: no tagsimp package under {src}")
    sys.path.insert(0, str(src))
    import tagsimp

    if Path(tagsimp.__file__).resolve().parent != (src / "tagsimp").resolve():
        raise SystemExit(f"error: imported tagsimp from {tagsimp.__file__}, not {src}")


def metric_block(values: dict, spec) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def record(workload: str, seed: int, value: str, path: Path) -> None:
    table = json.loads(path.read_text()) if path.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = value
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads as wl

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        run = wl.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except wl.BenchmarkFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    w = run.workload
    report = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": wl.machine_facts(ROOT),
        "sizes": {
            "inputs": w.inputs,
            "batch": w.batch,
            "vocab_tags": run.vocab_size,
            "train_pairs": wl.TRAIN_PAIRS,
            "fit_pairs": wl.FIT_PAIRS,
            "hash_dim": wl.HASH_DIM,
            "setup_repeats": wl.SETUP_REPEATS,
            "tune_budget": wl.TUNE_BUDGET if not w.batch else None,
            "config": wl.CONFIG.to_text().strip().splitlines(),
        },
        "digest": run.digest,
        "recorded_digest": wl.recorded_digest(w.name, args.seed),
        "setup_parts_s": run.setups,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / run.attempted,
        "problems": run.problems,
        "end_to_end": wl.end_to_end(run),
        "tail": wl.tail_latency(run.untraced.request_s),
        "cycle_tokens_per_s": [round(c[1] / c[2], 1) for c in run.untraced.cycles],
    }
    metrics = metric_block(report["end_to_end"], wl.END_TO_END)
    if args.trace:
        layers, problems = wl.per_layer(run)
        report["per_layer"] = layers
        report["reconciliation"] = problems or "ok"
        report["stress"] = wl.stress_check(run, layers)
        metrics = metric_block(layers, wl.PER_LAYER)
        run.problems += problems
    correct = run.failed == 0 and not run.problems
    if args.record and correct:
        record(w.name, args.seed, run.digest, wl.DIGESTS)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
