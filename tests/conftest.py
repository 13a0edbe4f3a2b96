"""Runs shared by the test modules."""
import json

import pytest

from ermakov_lab import cli

ODE = {"mode": "ode", "params": {"tau": 2.0},
       "numerics": {"dt": 0.01, "t_end": 0.1}, "output": {}}
PDE = {"mode": "pde", "params": {"tau": 2.0},
       "numerics": {"dt": 0.01, "t_end": 0.05, "grid": {"n": 64}},
       "output": {"snapshots": True}}

#: name -> (command, config, arguments after the config path): a 10-step ode run,
#: 5-step 64-point pde (with a snapshot) and compare runs, and the ode run swept
#: over params.tau = 1, 2
RUNS = {"ode": ("run", ODE, []),
        "pde": ("run", PDE, []),
        "compare": ("run", dict(PDE, mode="compare", output={}), []),
        "sweep": ("sweep", ODE, ["--param", "params.tau", "--values", "1,2"])}


@pytest.fixture
def run_modes(tmp_path):
    """run_modes(*names): the named RUNS, all of them if none is named, in order through
    cli.main, each from tmp_path/<name>.json into tmp_path/<name>; each must exit 0."""
    def run(*names):
        for name in names or RUNS:
            command, cfg, args = RUNS[name]
            cfg = dict(cfg, output=dict(cfg["output"], directory=str(tmp_path / name)))
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert cli.main([command, str(path), *args]) == 0
    return run
