"""One fresh process of the benchmark: set-up, then timed workload passes.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC holds the plan from workloads.generate plus `root`, `seconds`,
`trace` and `setup_only`.  The child times its own set-up (import
`ermakov_lab.cli`, then load and build every config), and unless
`setup_only` runs one warm-up pass followed by timed passes until `seconds`
have passed.  Every pass drives the lab only through
`ermakov_lab.cli.main`, and every operation's output is checked after the
pass, outside the timed region.  A fixed reference kernel is timed after
set-up and after every call, also outside the timed region.  With `trace`,
passes alternate between untraced and traced.  The result goes to
RESULT.json.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 3


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work independent of the lab.

    Half is Python float and tuple arithmetic like the RK4 loop, half is
    numpy FFTs and elementwise work on 1024 points like the PDE step.  It is
    timed after set-up and after every call so that run.py can rescale
    set-up and call times to a nominal machine speed: the speed of a shared
    host drifts by 10-20 % over tens of seconds, more than one run can
    average out.
    """
    import numpy as np

    t = time.perf_counter()
    y = (1.0, 0.0, 1.0, 0.0)
    for _ in range(50_000):
        y = tuple(a + 1e-6 * (b * 0.5 - a) for a, b in zip(y, (y[1], -y[0], y[3], -y[2])))
    x = np.exp(1j * np.linspace(0.0, 10.0, 1024))
    for _ in range(1_500):
        x = np.fft.ifft(np.fft.fft(x) * np.exp(-1e-9 * np.abs(x)))
    return time.perf_counter() - t


def setup(spec):
    t = time.perf_counter()
    import ermakov_lab.cli as cli
    import_s = time.perf_counter() - t
    src = Path(spec["root"]) / "src"
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"ermakov_lab imported from {cli.__file__}, not from {src}")
    for name in spec["configs"]:
        cfg = cli.load_config(Path(spec["work"]) / f"{name}.json")
        cli.build_params(cfg)
        cli.build_drive(cfg)
    return cli, {"setup_s": time.perf_counter() - T0, "import_s": import_s,
                 "scipy_integrate_loaded": int("scipy.integrate" in sys.modules)}


def run_pass(cli, spec, kernel_s, tracer=None):
    """One pass over the workload's calls.

    Returns the wall time of each call, the reference-kernel times around
    them (`kernel_s`, measured just before the pass, then timed after each
    call) and the failures.  An operation fails when its call exits non-zero
    or raises, or when its output is missing, partial or wrong.
    """
    from checks import check

    for cfg in spec["configs"].values():
        shutil.rmtree(cfg["output"]["directory"], ignore_errors=True)
    codes, call_s, kernels = [], [], [kernel_s]
    for argv in spec["calls"]:
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception as exc:  # keep going so every operation is counted
            codes.append(repr(exc))
        finally:
            call_s.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.uninstall()
        kernels.append(reference_kernel())
    errors = [f"call {i} exited with {c!r}" for i, c in enumerate(codes) if c != 0]
    failed = 0
    for op in spec["operations"]:
        bad = check(op)
        if bad:
            errors.append(f"{op['csv']}: {bad}")
        failed += bool(bad or codes[op["call"]] != 0)
    return {"wall_s": sum(call_s), "call_s": call_s, "kernel_s": kernels,
            "attempted": len(spec["operations"]), "failed": failed, "errors": errors[:5]}


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    cli, result = setup(spec)
    result["kernel_s"] = reference_kernel()
    if not spec["setup_only"]:
        from spans import Tracer

        warmup = run_pass(cli, spec, result["kernel_s"])
        result["warmup"] = dict(warmup, traced=False, warmup=True)
        kernel_s = warmup["kernel_s"][-1]
        passes, spans = [], []
        start = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start < spec["seconds"]):
            tracer = None
            if spec["trace"] and len(passes) % 2 == 1:
                tracer = Tracer(run_id=len(passes))
            p = run_pass(cli, spec, kernel_s, tracer)
            kernel_s = p["kernel_s"][-1]
            if tracer is not None:
                p["layers"] = tracer.totals()
                spans.extend(tracer.spans)
            p["traced"] = tracer is not None
            passes.append(p)
        result["passes"] = passes
        result["spans"] = spans
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
