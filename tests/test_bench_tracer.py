"""The benchmark's tracer (bench/spans.py) still fits the lab.

The tracer binds `write_csv(path, rows)`, `integrate(init, t_end, dt)` and
`evolve(steps)` by parameter name and wraps `measurement_rhs`, `observables`
and `DriveSpec.value` by attribute, so a renamed parameter or attribute under
src/ breaks `bench/run.py --trace 1` without failing anything else.  This runs
every mode through `cli.main` with the tracer installed and checks the counts
it derives from those bindings.
"""
import json
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


def test_tracer_counts_every_mode(tmp_path, tracer):
    ode = {"mode": "ode", "params": {"tau": 2.0},
           "numerics": {"dt": 0.01, "t_end": 0.1}, "output": {}}
    pde = {"mode": "pde", "params": {"tau": 2.0},
           "numerics": {"dt": 0.01, "t_end": 0.05, "grid": {"n": 64}},
           "output": {"snapshots": True}}
    compare = dict(pde, mode="compare", output={})
    for name, cfg in (("ode", ode), ("pde", pde), ("compare", compare)):
        assert cli.main(["run", write(tmp_path, name, cfg)]) == 0
    assert cli.main(["sweep", write(tmp_path, "sweep", ode),
                     "--param", "params.tau", "--values", "1,2"]) == 0
    totals = tracer.totals()
    # ode 10 steps, compare 5 and the sweep 2 x 10; pde and compare 5 each
    assert totals["ermakov.steps"] == 35
    assert totals["madelung.steps"] == 10
    # each of the two 5-step runs: one FFT pair to open, then one fft and one
    # ifft per step; a batched (2, n) ifft, one at each record point and so at
    # the last step, moves the bytes of two 1-D calls
    assert totals["madelung.fft.calls"] == 24
    assert totals["madelung.fft.bytes"] == 69632
    # ode 11 rows, pde 6 rows and a 64-point snapshot, compare 6, the sweep 2 x 11
    assert totals["cli.write_csv.rows"] == 109
    assert totals["cli.write_csv.bytes"] > 0
    assert totals["cli.main.calls"] == 4
    assert totals["ermakov.integrate.calls"] == 4
    assert totals["madelung.evolve.calls"] == 2
    assert totals["madelung.observables.calls"] > 0
