"""The benchmark's tracer (bench/spans.py) still fits the lab.

The tracer binds `write_csv(path, rows)`, `integrate(init, t_end, dt)` and
`evolve(steps)` by parameter name and wraps `measurement_rhs`, `observables`
and `DriveSpec.value` by attribute, so a renamed parameter or attribute under
src/ breaks `bench/run.py --trace 1` without failing anything else.  This runs
every mode through `cli.main` with the tracer installed, the runs of
tests/conftest.py's `run_modes`, and checks the counts it derives from those
bindings.

The tracer also wraps `numpy.fft.fft`/`ifft`, which `evolve` no longer calls:
it calls numpy's pocketfft gufuncs through its own `_fft`/`_ifft`, so the
tracer records no `madelung.fft.*` figure.  The FFT counts of these runs are
pinned in tests/test_madelung.py, which counts evolve's own FFT names.

No run calls `observables` either: evolve's set-up checks a packet's t = 0 row,
and every row is formed by `_rows`.  So the per-layer `madelung.observables.*`
figures read 0 on every workload, and the wrapper is covered here by one call
of `madelung.observables` itself.
"""
from pathlib import Path

import pytest

from ermakov_lab import PhysParams, madelung

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracer_counts_every_mode(tracer, run_modes):
    run_modes()
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
    assert "madelung.observables.calls" not in totals
    # the wrapper the tracer installs on madelung.observables counts a library call
    p = PhysParams(tau=2.0)
    madelung.observables(madelung.gaussian_packet(madelung.Grid(-15, 17, 64), 1.0, 1.0,
                                                  p=p), p)
    assert tracer.totals()["madelung.observables.calls"] == 1


def test_tracer_counts_every_value_of_a_sweep(tmp_path, tracer, run_modes):
    """A sweep runs in the calling process, so the tracer counts every value."""
    run_modes("sweep")
    totals = tracer.totals()
    assert totals["ermakov.steps"] == 20
    assert totals["cli.write_csv.rows"] == 22
    assert totals["cli.main.calls"] == 1
    assert totals["ermakov.integrate.calls"] == 2
    assert (tmp_path / "sweep" / "tau_2" / "trajectory.csv").is_file()
