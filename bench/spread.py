"""Run the benchmark on several seeds and summarise each end-to-end metric.

Usage (from the repository root):
    python3 bench/spread.py [--workloads ode_sweep pde_compare] [--seeds 1-10] \
        [--seconds N] [--label COMMIT] [--out summary.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
Runs are made one at a time.  --out writes the same figures, with the
environment and --label, as JSON; bench/baseline.json holds two such sets
for the commit that introduced the benchmark.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--label", default="")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for w in args.workloads:
        values = {name: [] for name in bounds}
        failed = attempted = 0
        for s in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            attempted += res["attempted"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(w, s, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary[w] = {"seeds": args.seeds, "attempted": attempted, "failed": failed}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds[name], "values": vals}
            print(f"{w:12s} {name:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}"
                  f"  spread {spread:.3f}  bound {bounds[name]}", flush=True)
    if args.out:
        doc = {"label": args.label, "seconds": args.seconds,
               "environment": environment(), "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
