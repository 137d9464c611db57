#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that times every layer call the
benchmark makes (and the calls the program makes internally to the
training pipeline's layers) and reports the per-layer metrics.  The
metric names, units and bounds, and each workload's purpose, are in
``BENCHMARK.json`` at the repository root; ``perfbench/README.md``
explains each workload and how to confirm a claim on a second seed.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every output check that fails counts in ``failed`` and makes the exit
code 1.  Without the program's sources (``src/repro``) next to this
directory, the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_MODULES = {
    "lifecycle": "lifecycle",
    "fleet-tpcds": "fleet",
    "fleet-micro-stream": "fleet",
    "serve-http": "serve_http",
}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # Each workload in its own process, as a single-workload run.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
            ).returncode
            for name in names
        ]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    OUT_DIR.mkdir(exist_ok=True)
    result = module.run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=OUT_DIR,
    )

    measured = result["metrics"]
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if args.trace:
            # A layer this workload bypasses did no work: it reads 0.
            value = measured.get(name, 0.0)
        else:
            value = measured[name]
        metrics[name] = {"value": float(value), "unit": metric["unit"]}

    spans = result["spans"]
    if spans is not None:
        spans.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    for line in result["notes"]:
        print(line)
    for name, entry in metrics.items():
        print(f"{args.workload}  {name:36s} {entry['value']:.6g} {entry['unit']}")
    failed = int(result["failed"])
    attempted = int(result["attempted"])
    print(f"{args.workload}  failed_share {failed / attempted:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
