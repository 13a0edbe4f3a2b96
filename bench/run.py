"""ermakov-lab benchmark: one workload, one seed, one run.

Usage (from the repository root):
    python3 bench/run.py --workload ode_sweep --seed 1 --seconds 20 --trace 0

The lab is driven only through `ermakov_lab.cli.main`, imported from this
checkout's `src/`, in fresh child processes started one at a time (a closed
loop with one client and one thread; BLAS and OpenMP are held to one
thread).  Set-up is timed in several fresh children; one more child runs a
warm-up pass and then timed passes for `--seconds`, checking every
operation's output.  With `--trace 1` that child alternates untraced and
traced passes and the per-layer metrics are reported instead.

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A record of the
run (seed, generated configs, environment, every pass and, when traced, the
spans) is written to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
SETUP_CHILDREN = 4      # set-up-only children; the measuring child is one more sample
# Nominal time of child.reference_kernel.  wall_ref_s and setup_s are times
# rescaled by REF_KERNEL_S / (kernel time measured beside them): the time on
# a machine that runs the kernel in REF_KERNEL_S.
REF_KERNEL_S = 0.15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.load_config.s": "s", "cli.self_s": "s",
    "cli.write_csv.s": "s", "cli.write_csv.rows": "count", "cli.write_csv.bytes": "B",
    "ermakov.integrate.s": "s", "ermakov.integrate.self_s": "s",
    "ermakov.us_per_step": "us", "ermakov.steps": "count",
    "ermakov.measurement_rhs.calls": "count", "ermakov.measurement_rhs.s": "s",
    "ermakov.measurement_rhs.calls_per_step": "count/step",
    "params.DriveSpec.value.calls": "count", "params.DriveSpec.value.s": "s",
    "madelung.evolve.s": "s", "madelung.evolve.self_s": "s",
    "madelung.us_per_step": "us", "madelung.steps": "count",
    "madelung.fft.calls": "count", "madelung.fft.calls_per_step": "count/step",
    "madelung.fft.s": "s", "madelung.fft.bytes": "B-computed",
    "madelung.observables.calls": "count", "madelung.observables.s": "s",
    "setup.import_s": "s", "setup.scipy_integrate_loaded": "count",
    "trace.overhead_frac": "ratio",
}


def rescaled_pass_s(p: dict) -> float:
    """A pass's wall time, each call rescaled by the kernel times around it."""
    k = p["kernel_s"]
    return sum(c * REF_KERNEL_S / (0.5 * (a + b)) for c, a, b in zip(p["call_s"], k, k[1:]))


class BenchError(Exception):
    pass


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "child_thread_vars": {v: "1" for v in THREAD_VARS},
           "parent_thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    return env


def run_child(spec: dict, work: Path, tag: str, deadline: float) -> dict:
    spec_path, result_path = work / f"spec-{tag}.json", work / f"result-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")),
             str(spec_path), str(result_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {tag} ran past the deadline") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"child {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def layer_metrics(t: dict) -> dict:
    """Per-pass layer metrics from one traced pass's totals."""
    def g(key):
        return t.get(key, 0.0)  # a name absent from the totals did no work

    def per(a, b):
        return a / b if b else 0.0

    ode_steps, pde_steps = g("ermakov.steps"), g("madelung.steps")
    fft_calls = g("madelung.fft.calls")
    return {
        "cli.load_config.s": g("cli.load_config.s"),
        "cli.self_s": g("cli.main.self_s"),
        "cli.write_csv.s": g("cli.write_csv.s"),
        "cli.write_csv.rows": g("cli.write_csv.rows"),
        "cli.write_csv.bytes": g("cli.write_csv.bytes"),
        "ermakov.integrate.s": g("ermakov.integrate.s"),
        "ermakov.integrate.self_s": g("ermakov.integrate.self_s"),
        "ermakov.us_per_step": 1e6 * per(g("ermakov.integrate.s"), ode_steps),
        "ermakov.steps": ode_steps,
        "ermakov.measurement_rhs.calls": g("ermakov.measurement_rhs.calls"),
        "ermakov.measurement_rhs.s": g("ermakov.measurement_rhs.s"),
        "ermakov.measurement_rhs.calls_per_step":
            per(g("ermakov.measurement_rhs.calls"), ode_steps),
        "params.DriveSpec.value.calls": g("params.DriveSpec.value.calls"),
        "params.DriveSpec.value.s": g("params.DriveSpec.value.s"),
        "madelung.evolve.s": g("madelung.evolve.s"),
        "madelung.evolve.self_s": g("madelung.evolve.self_s"),
        "madelung.us_per_step": 1e6 * per(g("madelung.evolve.s"), pde_steps),
        "madelung.steps": pde_steps,
        "madelung.fft.calls": fft_calls,
        "madelung.fft.calls_per_step": per(fft_calls, pde_steps),
        "madelung.fft.s": g("madelung.fft.s"),
        "madelung.fft.bytes": g("madelung.fft.bytes"),
        "madelung.observables.calls": g("madelung.observables.calls"),
        "madelung.observables.s": g("madelung.observables.s"),
    }


def measure(args) -> dict:
    if not (ROOT / "src" / "ermakov_lab" / "cli.py").is_file():
        raise BenchError(f"no ermakov_lab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.generate(args.workload, args.seed, work)
        spec = dict(plan, root=str(ROOT), work=str(work), seconds=args.seconds,
                    trace=bool(args.trace), setup_only=True)
        setups = [run_child(spec, work, f"setup{i}", deadline)
                  for i in range(SETUP_CHILDREN)]
        main = run_child(dict(spec, setup_only=False), work, "main", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(main)
    passes = [main["warmup"]] + main["passes"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "configs": plan["configs"], "calls": plan["calls"],
              "setup": [{k: s[k] for k in ("setup_s", "import_s", "kernel_s")}
                        for s in setups],
              "passes": [{k: p[k] for k in p if k != "layers"} for p in passes],
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes)}
    plain = [p for p in main["passes"] if not p["traced"]]
    record["wall_s_passes"] = len(plain)
    record["wall_s"] = statistics.median(p["wall_s"] for p in plain)
    record["setup_s_unscaled"] = statistics.median(s["setup_s"] for s in setups)
    if not args.trace:
        metrics = {"wall_ref_s": statistics.median(rescaled_pass_s(p) for p in plain),
                   "setup_s": statistics.median(
                       s["setup_s"] * REF_KERNEL_S / s["kernel_s"] for s in setups),
                   "peak_rss_mb": main["peak_rss_mb"]}
        units = END_TO_END
    else:
        traced = [p for p in main["passes"] if p["traced"]]
        per_pass = [layer_metrics(p["layers"]) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["setup.scipy_integrate_loaded"] = main["scipy_integrate_loaded"]
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / record["wall_s"] - 1.0)
        record["traced_passes"] = len(traced)
        record["spans"] = main["spans"]
        units = PER_LAYER
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed}: record in {path.relative_to(ROOT)}")
    print(f"wall_s = {record['wall_s']:.6g} s (median of {record['wall_s_passes']}"
          f" untraced passes), setup {record['setup_s_unscaled']:.6g} s; not rescaled"
          + (f"; {record['traced_passes']} traced passes" if args.trace else ""))
    print(f"failed_frac = {record['failed'] / record['attempted']:.6g}"
          f" ({record['failed']} of {record['attempted']} operations)")
    for p in record["passes"]:
        for e in p["errors"]:
            print(f"  failure: {e}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
