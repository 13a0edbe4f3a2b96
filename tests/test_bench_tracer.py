"""The benchmark's tracer (bench/spans.py) still fits the lab.

The tracer binds `write_csv(path, rows)`, `integrate(init, t_end, dt)` and
`evolve(steps)` by parameter name and wraps `measurement_rhs`, `observables`
and `DriveSpec.value` by attribute, so a renamed parameter or attribute under
src/ breaks `bench/run.py --trace 1` without failing anything else.  This runs
every mode through `cli.main` with the tracer installed and checks the counts
it derives from those bindings.

The tracer also wraps `numpy.fft.fft`/`ifft`, which `evolve` no longer calls:
it calls numpy's pocketfft gufuncs through its own `_fft`/`_ifft`, so the
tracer records no `madelung.fft.*` figure.  The FFT counts of these runs are
pinned in tests/test_madelung.py, which counts evolve's own FFT names.

The tracer patches names inside the calling process, so it counts only the
share of a sweep that the calling process runs; the values run by forked
children are not counted.  The sweep below is pinned to one CPU so that it
counts every value.
"""
import json
import os
from pathlib import Path

import pytest

from ermakov_lab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def write(tmp_path, name, cfg):
    cfg = dict(cfg, output=dict(cfg["output"], directory=str(tmp_path / name)))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


ODE = {"mode": "ode", "params": {"tau": 2.0},
       "numerics": {"dt": 0.01, "t_end": 0.1}, "output": {}}


def one_cpu(pid):
    return {0}


def two_cpus(pid):
    return {0, 1}


def test_tracer_counts_every_mode(tmp_path, tracer, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", one_cpu)
    pde = {"mode": "pde", "params": {"tau": 2.0},
           "numerics": {"dt": 0.01, "t_end": 0.05, "grid": {"n": 64}},
           "output": {"snapshots": True}}
    compare = dict(pde, mode="compare", output={})
    for name, cfg in (("ode", ODE), ("pde", pde), ("compare", compare)):
        assert cli.main(["run", write(tmp_path, name, cfg)]) == 0
    assert cli.main(["sweep", write(tmp_path, "sweep", ODE),
                     "--param", "params.tau", "--values", "1,2"]) == 0
    totals = tracer.totals()
    # ode 10 steps, compare 5 and the sweep 2 x 10; pde and compare 5 each
    assert totals["ermakov.steps"] == 35
    assert totals["madelung.steps"] == 10
    # evolve's FFTs bypass the numpy.fft functions the tracer wraps
    assert not [k for k in totals if k.startswith("madelung.fft.")]
    # ode 11 rows, pde 6 rows and a 64-point snapshot, compare 6, the sweep 2 x 11
    assert totals["cli.write_csv.rows"] == 109
    assert totals["cli.write_csv.bytes"] > 0
    assert totals["cli.main.calls"] == 4
    assert totals["ermakov.integrate.calls"] == 4
    assert totals["madelung.evolve.calls"] == 2
    assert totals["madelung.observables.calls"] > 0


def test_tracer_counts_the_calling_process_share_of_a_sweep(tmp_path, tracer, monkeypatch):
    """On two CPUs a forked child runs the second value, outside the tracer's reach: the
    counts are the first value's alone, and the wait for the child lands in cli.main's
    self time."""
    monkeypatch.setattr(os, "sched_getaffinity", two_cpus)
    path = write(tmp_path, "sweep", ODE)
    assert cli.main(["sweep", path, "--param", "params.tau", "--values", "1,2"]) == 0
    totals = tracer.totals()
    assert totals["ermakov.steps"] == 10
    assert totals["cli.write_csv.rows"] == 11
    assert totals["cli.main.calls"] == 1
    assert totals["ermakov.integrate.calls"] == 1
    # the child's CSV is written all the same
    assert (tmp_path / "sweep" / "tau_2" / "trajectory.csv").is_file()
