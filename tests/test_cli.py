import errno
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ermakov_lab import cli
from ermakov_lab.cli import main
from ermakov_lab.criteria import CRITERIA
from ermakov_lab.errors import ConfigurationError, NumericalFailure


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def base_ode_config(outdir, **extra):
    cfg = {
        "mode": "ode",
        "params": {"tau": 2.0, "lambda": 1.0},
        "drive": {"kind": "conserving"},
        "init": {"alpha0": 1.0, "alphadot0": 0.0, "xbar0": 1.0, "xbardot0": 0.0},
        "numerics": {"dt": 1e-3, "t_end": 5.0},
        "output": {"directory": str(outdir), "stride": 10},
    }
    cfg.update(extra)
    return cfg


GRID_128 = {"numerics.grid.x_min": -15.0, "numerics.grid.x_max": 17.0,
            "numerics.grid.n": 128}

# pde and compare mode, with the oscillator and without it (params.omega = 0)
OMEGA_CASES = [pytest.param(mode, omega, id=mode + suffix)
               for suffix, omega in (("", 1.0), ("-omega0", 0.0))
               for mode in ("pde", "compare")]


def assert_unresolved(capsys, t):
    """stderr is the one line of evolve's resolution check, refusing the row at t."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "of |psi|^2 in the band |k| >= 0.9 pi/dx exceeds 0.001" in err[0]
    assert err[0].endswith(f"at t={t}")


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        assert comment.startswith("#")
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    return header, data


def test_import_leaves_scipy_out(tmp_path):
    # importing the CLI, an ode run and a sweep load no scipy and no verification code:
    # only verify imports the criteria and the identity checks they call
    cfg = base_ode_config(tmp_path / "out")
    cfg["numerics"]["t_end"] = 0.1
    code = "\n".join([
        "import sys",
        "from ermakov_lab.cli import main",
        "names = ('scipy', 'ermakov_lab.identities', 'ermakov_lab.criteria')",
        "print([m for m in names if m in sys.modules])",
        "assert main(['run', sys.argv[1]]) == 0",
        "assert main(['sweep', sys.argv[1], '--param', 'params.tau', '--values', '1,2']) == 0",
        "print([m for m in names if m in sys.modules])"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, write_config(tmp_path / "c.json", cfg)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]"]
    assert (tmp_path / "out" / "trajectory.csv").is_file()
    assert (tmp_path / "out" / "tau_2" / "trajectory.csv").is_file()


def test_reader_fields_are_read_in_every_mode():
    # cli._unread looks one level deep: a field that decides whether a key is read
    # (mode, system, drive.kind) is itself read in every mode
    readers = {f for _, _, reader in cli._FIELDS.values() for f in reader}
    assert readers == {"mode", "system", "drive.kind"}
    assert all(cli._FIELDS[f][2] == {} for f in readers)


class TestConfigValidation:
    @pytest.mark.parametrize("argv, line", [
        (["run"], "ermakov-lab run: the following arguments are required: config"),
        (["bogus"], "ermakov-lab: argument command: invalid choice: 'bogus'"),
        (["sweep", "c.json", "--values", "1"],
         "ermakov-lab sweep: the following arguments are required: --param"),
        ([], "ermakov-lab: the following arguments are required: command"),
    ], ids=["run-without-config", "unknown-command", "sweep-without-param", "empty"])
    def test_usage_error_is_a_config_error(self, capsys, argv, line):
        # argparse's own exit code for a usage error, 2, is the numerical-failure code
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("config error: " + line)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ermakov-lab")

    @pytest.mark.parametrize("mode", ["pde", "compare"])
    def test_unresolved_initial_packet_runs_nothing(self, tmp_path, capsys, mode):
        # k_max = 10.4 + 0.25 * 8 = 12.4 passes the Nyquist bound pi/dx = 12.57, but
        # 5.5 % of |psi|^2 lies in the band that evolve's t = 0 row check refuses
        out = tmp_path / "out"
        cfg = {"mode": mode, "params": {"tau": 2.0},
               "init": {"delta0": 1.0, "xbar0": 1.0, "xbardot0": 10.4},
               "numerics": {"dt": 1e-3, "t_end": 0.01,
                            "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
               "output": {"directory": str(out)}}
        path = write_config(tmp_path / "c.json", cfg)
        line = ("config error: initial packet is not resolved: share 0.0547 of |psi|^2 in "
                "the band |k| >= 0.9 pi/dx exceeds 0.001 at t=0.0")
        assert main(["run", path]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        # the sweep resolves both values first: value 0 would run, 10.4 runs nothing
        assert main(["sweep", path, "--param", "init.xbardot0", "--values", "0,10.4"]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    @pytest.mark.parametrize("mode, param, value, alpha0", [
        pytest.param("ode", "init.alpha0", 1e-9, "1e-09", id="ode"),
        # alpha0 = delta0 / sqrt(hbar/2m) at m = 1e-20: the pde side would run first
        pytest.param("compare", "params.m", 1e-20, "1.414213562373095e-10", id="compare"),
    ])
    def test_start_below_the_collapse_floor_runs_nothing(self, tmp_path, capsys, mode,
                                                         param, value, alpha0):
        out = tmp_path / "out"
        cfg = {"mode": mode, "params": {"tau": 2.0},
               "numerics": {"dt": 0.01, "t_end": 0.1, "grid": {"n": 128}},
               "output": {"directory": str(out)}}
        if mode == "ode":
            del cfg["numerics"]["grid"]
        path = write_config(tmp_path / "c.json", cfg)
        cli._set_by_path(cfg, param, value)
        line = f"config error: initial alpha={alpha0} below collapse floor 1e-08"
        assert main(["run", write_config(tmp_path / "bad.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        # the sweep resolves both values first: value 1 would run, the other runs nothing
        assert main(["sweep", path, "--param", param, "--values", f"1,{value!r}"]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    def test_unrepresentable_start_runs_nothing(self, tmp_path, capsys):
        # xbardot0 alpha = 1e160 overflows in the invariant of the t = 0 row, which
        # integrate's set-up forms and checks before any run
        out = tmp_path / "out"
        cfg = {"mode": "ode", "params": {"tau": 2.0},
               "numerics": {"dt": 0.1, "t_end": 1.0}, "output": {"directory": str(out)}}
        path = write_config(tmp_path / "c.json", cfg)
        cli._set_by_path(cfg, "init.xbardot0", 1e160)
        line = ("config error: initial state is not representable: non-finite value in "
                "the row recorded at t=0.0")
        assert main(["run", write_config(tmp_path / "bad.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        # the sweep resolves both values first: value 0 would run, 1e160 runs nothing
        assert main(["sweep", path, "--param", "init.xbardot0", "--values", "0,1e160"]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    def test_missing_tau_names_the_field(self, tmp_path, capsys):
        cfg = base_ode_config(tmp_path / "out")
        del cfg["params"]["tau"]
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code == 1
        assert "params.tau" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = base_ode_config(tmp_path / "out")
        cfg["params"]["tua"] = 2.0
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code == 1
        assert "tua" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        assert main(["run", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: config file not found: {path}"]

    @pytest.mark.parametrize("kind", ["dev-null", "directory", "fifo"])
    def test_config_path_that_is_not_a_regular_file(self, tmp_path, capsys, kind):
        # refused without opening it: reading a FIFO that no process writes would block
        path = {"dev-null": os.devnull, "directory": str(tmp_path)}.get(kind)
        if path is None:
            path = str(tmp_path / "c.json")
            os.mkfifo(path)
        assert main(["run", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {path} is not a regular file"]

    def test_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 1

    @pytest.mark.parametrize("text, message", [
        # beyond Python's limit on the digits of an int read from a string
        pytest.param('{"mode": 1' + "0" * 5000 + "}", "config is not valid JSON",
                     id="too-many-digits"),
        pytest.param("[1, 2]", "config root must be a JSON object", id="list-root"),
        pytest.param('{"params": 3}', "config section 'params' must be an object",
                     id="number-section"),
        # past the decoder's recursion limit, which raises RecursionError
        pytest.param('{"a": ' * 100000 + "1" + "}" * 100000, "config is not valid JSON",
                     id="nested-too-deep"),
        # a field is given once, in its section: a dotted key is no second way to give it,
        # and json.loads alone would keep the last of a repeated key
        pytest.param('{"mode": "ode", "params": {"tau": 2.0}, "params.tau": 0.5}',
                     "unknown config key 'params.tau'", id="dotted-key"),
        pytest.param('{"mode": "pde", "params": {"tau": 2.0}, "numerics": {"grid.n": 128}}',
                     "unknown config key 'numerics.grid.n'", id="dotted-key-in-a-section"),
        pytest.param('{"mode": "ode", "params": {"tau": 2.0}, "mode": "pde"}',
                     "config key 'mode' is given twice in one object", id="repeated-key"),
        pytest.param('{"mode": "ode", "params": {"tau": 2.0, "tau": 0.5}}',
                     "config key 'tau' is given twice in one object",
                     id="repeated-key-in-a-section"),
    ])
    def test_malformed_config_file(self, tmp_path, capsys, monkeypatch, text, message):
        monkeypatch.chdir(tmp_path)  # a config that ran would write its default out/ here
        p = tmp_path / "c.json"
        p.write_text(text)
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: " + message)
        assert not (tmp_path / "out").exists()

    def test_unreadable_config_file(self, tmp_path, capsys, monkeypatch):
        # a read refused as for a file without read permission (chmod does not stop a
        # read by root, so the refusal is patched in)
        def refused(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        p = tmp_path / "c.json"
        p.write_text("{}")
        monkeypatch.setattr(cli.Path, "read_text", refused)
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot read config {p}: {os.strerror(errno.EACCES)}"]

    @pytest.mark.parametrize("mode", ["ode", "pde", "compare"])
    def test_conserving_drive_without_coupling(self, tmp_path, capsys, mode):
        # lambda = 0 is each config's one fault: ode mode reads no grid
        cfg = {"mode": mode, "params": {"tau": 2.0, "lambda": 0.0},
               "drive": {"kind": "conserving"},
               "init": {"delta0": 1.0, "xbar0": 1.0},
               "numerics": {"dt": 0.0125, "t_end": 0.1,
                            "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
               "output": {"directory": str(tmp_path / "out")}}
        if mode == "ode":
            del cfg["numerics"]["grid"]
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: conserving drive requires lambda != 0"]

    @pytest.mark.parametrize("command, mode, fields, message", [
        pytest.param("run", "pde", {"params.tau": -1.0}, "tau must be positive",
                     id="run-pde"),
        pytest.param("verify", "ode", {"params.tau": -1.0}, "tau must be positive",
                     id="verify-ode"),
        # verify is a subcommand, not a mode
        pytest.param("run", "verify", {}, "mode must be one of 'ode', 'pde', 'compare'",
                     id="run-verify-mode"),
        pytest.param("verify", "verify", {}, "mode must be one of 'ode', 'pde', 'compare'",
                     id="verify-verify-mode"),
        pytest.param("run", "ode", {"init.delta0": -1.0}, "init.delta0 must be positive",
                     id="run-ode-delta0"),
        pytest.param("run", "pde", {"numerics.dt": "x"}, "numerics.dt must be a number",
                     id="run-pde-dt"),
        pytest.param("run", "ode", {"numerics.dt": 0.3, "numerics.t_end": 1.0},
                     "numerics.t_end / numerics.dt", id="run-ode-ragged-t_end"),
        pytest.param("run", "pde", {"numerics.dt": 0.0}, "numerics.dt and numerics.t_end",
                     id="run-pde-dt0"),
        pytest.param("run", "pde", {"output.stride": 0}, "output.stride must be >= 1",
                     id="run-pde-stride0"),
        pytest.param("run", "ode", {"init.alpha0": 0.0},
                     "init.alpha0 must be positive", id="run-ode-alpha0"),
        pytest.param("run", "ode", {"drive.kind": "tabulated", "drive.table": [1, 2]},
                     "drive.table must be a list", id="run-ode-table"),
        pytest.param("run", "ode", {"system": "clasical"}, "system must be",
                     id="run-ode-system-typo"),
        pytest.param("run", "pde", {"system": "classical", "params.tau": "inf"},
                     "system 'classical' runs only in ode mode", id="run-pde-classical"),
        pytest.param("run", "ode", {"system": "classical"},
                     "system 'classical' needs", id="run-ode-classical-tau"),
        pytest.param("run", "ode", {"system": "classical", "params.tau": "inf",
                                    "params.lambda": 5.0},
                     "system 'classical' needs", id="run-ode-classical-lambda"),
        pytest.param("run", "ode", {"system": "classical", "params.tau": "inf",
                                    "drive.kind": "constant", "drive.x0": 1.0},
                     "system 'classical' needs", id="run-ode-classical-drive"),
        pytest.param("run", "pde", {"omega_spec.eps": 0.1, "omega_spec.omega_m": 1.0},
                     "omega_spec is not supported in pde mode", id="run-pde-omega_spec"),
        pytest.param("run", "compare", {"omega_spec.eps": 0.1, "omega_spec.omega_m": 1.0},
                     "omega_spec is not supported in compare mode",
                     id="run-compare-omega_spec"),
        pytest.param("run", "ode", {"init.q0": 3.0},
                     "init.q0 is not supported with system = measurement",
                     id="run-ode-q0"),
        pytest.param("run", "ode", {"system": "classical", "params.tau": "inf"},
                     "init.xbar0 is not supported with system = classical",
                     id="run-ode-classical-xbar0"),
        pytest.param("run", "compare", {"init.alpha0": 2.0},
                     "init.alpha0 is not supported in compare mode", id="run-compare-alpha0"),
        pytest.param("run", "ode", {"init.delta0": 1.0, "init.alpha0": 2.0},
                     "init.alpha0/alphadot0 and init.delta0/width_rate0",
                     id="run-ode-two-widths"),
        pytest.param("run", "ode", {"numerics.grid.n": 128},
                     "numerics.grid is not supported in ode mode", id="run-ode-grid"),
        pytest.param("run", "ode", {"output.snapshots": True},
                     "output.snapshots is not supported in ode mode", id="run-ode-snapshots"),
        pytest.param("run", "ode", {"params.lambda": 1.0, "drive.kind": "conserving",
                                    "drive.x0": 1.0},
                     "drive.x0 is not supported with drive.kind = conserving",
                     id="run-ode-conserving-x0"),
        pytest.param("run", "pde", {"numerics.grid.n": 128.9},
                     "numerics.grid.n must be a whole number", id="run-pde-fractional-n"),
        pytest.param("run", "ode", {"output.stride": 2.7},
                     "output.stride must be a whole number", id="run-ode-fractional-stride"),
        pytest.param("run", "ode", {"params.m": "inf"}, "params.m must be a number",
                     id="run-ode-infinite-m"),
        pytest.param("run", "ode", {"params.lambda": "nan"}, "params.lambda must be a number",
                     id="run-ode-nan-lambda"),
        pytest.param("run", "ode", {"init.xbar0": "inf"}, "init.xbar0 must be a number",
                     id="run-ode-infinite-xbar0"),
        # tau = -1 stops a regressed run before it writes to ./None
        pytest.param("run", "ode", {"output.directory": None, "params.tau": -1.0},
                     "output.directory must be a string", id="run-ode-null-directory"),
        pytest.param("run", "ode", {"params.tau": True},
                     'params.tau must be a number or "inf"', id="run-ode-boolean-tau"),
        pytest.param("run", "ode", {"params.lambda": True}, "params.lambda must be a number",
                     id="run-ode-boolean-lambda"),
        pytest.param("run", "ode", {"output.stride": True},
                     "output.stride must be a whole number", id="run-ode-boolean-stride"),
        pytest.param("run", "pde", {"output.snapshots": 1},
                     "output.snapshots must be one of False, True",
                     id="run-pde-integer-snapshots"),
        # pi/dx = 12.6 on this grid; tau = 2 adds 8 * 1/(2 tau) = 2 to max |k|
        pytest.param("run", "compare", {**GRID_128, "init.xbardot0": 30.0},
                     "packet wavenumber up to 32 reaches the grid's Nyquist limit",
                     id="run-compare-aliased-velocity"),
        pytest.param("run", "pde", {**GRID_128, "init.xbardot0": 1e160},
                     "packet wavenumber up to 1e+160", id="run-pde-huge-velocity"),
        # C_tau = (1/tau)^2 / 4 is inf, refused before the packet it would chirp
        pytest.param("run", "pde", {**GRID_128, "params.tau": 1e-200},
                     "C_tau = 1/(4 tau^2) at tau = 1e-200 is beyond the float range",
                     id="run-pde-tiny-tau"),
        pytest.param("run", "pde", {**GRID_128, "init.delta0": 1e200},
                     "packet must sit at least 8*delta0", id="run-pde-huge-delta0"),
        # the default grid xbar0 -+ 16 delta0 holds the packet, which tau = inf leaves
        # at rest, but its density (2 pi delta0^2)^(-1/2) is not representable
        pytest.param("run", "pde", {"numerics.grid.n": 128, "params.tau": "inf",
                                    "init.delta0": 1e200, "numerics.dt": 0.0125,
                                    "numerics.t_end": 0.1},
                     "delta0 = 1e+200 is out of range", id="run-pde-huge-delta0-no-sink"),
        # span^4 of the default grid xbar0 -+ 16 delta0 overflows: at 1e150 the
        # variance's square did, and at 1e76 the fourth moment was inf
        pytest.param("run", "pde", {"numerics.grid.n": 128, "params.tau": "inf",
                                    "init.delta0": 1e150, "numerics.dt": 0.0125,
                                    "numerics.t_end": 0.1},
                     "grid span x_max - x_min = 3.2e+151 is out of range",
                     id="run-pde-huge-delta0-span"),
        pytest.param("run", "pde", {"numerics.grid.n": 128, "params.tau": "inf",
                                    "init.delta0": 1e76, "numerics.dt": 0.0125,
                                    "numerics.t_end": 0.1},
                     "grid span x_max - x_min = 3.2e+77 is out of range",
                     id="run-pde-inf-kurtosis"),
        # dx = 0.25: 1e-3 had zero sampled variance, 0.1 a norm of 1.085
        pytest.param("run", "pde", {**GRID_128, "params.tau": "inf", "init.delta0": 1e-3,
                                    "numerics.dt": 0.0125, "numerics.t_end": 0.1},
                     "delta0 = 0.001 is below the grid spacing 0.25",
                     id="run-pde-narrow-delta0"),
        pytest.param("run", "pde", {**GRID_128, "params.tau": "inf", "init.delta0": 0.1,
                                    "numerics.dt": 0.0125, "numerics.t_end": 0.1},
                     "delta0 = 0.1 is below the grid spacing 0.25",
                     id="run-pde-under-resolved-delta0"),
        # m/hbar = 1e200 puts the 1/(2 tau) phase curvature beyond any grid
        pytest.param("run", "pde", {"params.m": 1e200},
                     "packet wavenumber up to 2e+200", id="run-pde-huge-m"),
        # hbar/2m = 5e299: every row's k_t = (hbar/2m)^2 / delta^4 would be inf
        pytest.param("run", "pde", {"numerics.grid.n": 128, "params.tau": "inf",
                                    "params.m": 1e-300, "numerics.dt": 0.0125,
                                    "numerics.t_end": 0.05},
                     "initial packet is not resolved: non-finite value in the "
                     "observables recorded at t=0.0", id="run-pde-tiny-m"),
        # evolve's set-up checks the packet's own row as every row it records: the
        # variance 1e-300 has a square of 0, which the kurtosis and k_t divide by
        pytest.param("run", "pde", {"init.delta0": 1e-150, "init.xbar0": 0.0,
                                    "numerics.dt": 1e-8, "numerics.t_end": 1e-8,
                                    "numerics.grid.n": 64},
                     "initial packet is not resolved: wavefunction has zero variance "
                     "or one whose square underflows", id="run-pde-variance-square-underflows"),
        # k_t = (hbar/2m)^2 / delta^4 = 2.5e299 / 1e-32
        pytest.param("run", "pde", {"params.m": 1e-150, "params.tau": 1e-8,
                                    "init.delta0": 1e-8, "init.xbar0": 0.0,
                                    "numerics.dt": 1e-8, "numerics.t_end": 1e-8,
                                    "numerics.grid.n": 128},
                     "initial packet is not resolved: non-finite value in the "
                     "observables recorded at t=0.0", id="run-pde-k_t-overflows"),
        # the default grid xbar0 -+ 16 delta0 spans 1.6e-322: 1.6e-322 / 64 rounds to 0
        pytest.param("run", "pde", {"params.tau": "inf", "init.delta0": 5e-324,
                                    "init.xbar0": 0.0, "numerics.dt": 1e-8,
                                    "numerics.t_end": 1e-8, "numerics.grid.n": 64},
                     "grid spacing (x_max - x_min)/n", id="run-pde-spacing-underflows"),
        # numpy refuses this size before allocating anything
        pytest.param("run", "pde", {"numerics.grid.n": 1e20},
                     "grid of 100000000000000000000 points is too large",
                     id="run-pde-huge-n"),
        # within numpy's dimension limit, but 1e17 points (800 PB) cannot be allocated
        pytest.param("run", "pde", {"numerics.grid.n": 1e17},
                     "grid of 100000000000000000 points is too large: Unable to allocate",
                     id="run-pde-unallocatable-n"),
        # evolve makes its table of rows before the first step: numpy refuses 1e19 rows
        # for their count and 1e17 rows (4 EiB) for want of memory
        *(pytest.param("run", mode, {"numerics.grid.n": 64, "numerics.dt": 1.0,
                                     "numerics.t_end": t_end},
                       f"{int(t_end)} steps record too many rows: {why}",
                       id=f"run-{mode}-{t_end:g}-steps")
          for mode in ("pde", "compare")
          for t_end, why in ((1e19, "Maximum allowed dimension"), (1e17, "Unable to allocate"))),
        # omega is params.omega; omega_spec only modulates it
        pytest.param("run", "ode", {"omega_spec.omega0": 3.0},
                     "unknown config key 'omega_spec.omega0'", id="run-ode-omega0"),
        # the width coefficient is C_tau = 1/(4 tau^2), not an option
        pytest.param("run", "ode", {"params.coeff_variant": "paper_literal"},
                     "unknown config key 'params.coeff_variant'", id="run-ode-coeff_variant"),
        # a JSON string is not a number, even where float() would read it
        pytest.param("run", "ode", {"params.m": "2"}, "params.m must be a number, got '2'",
                     id="run-ode-string-m"),
        pytest.param("run", "ode", {"output.stride": "2"},
                     "output.stride must be a whole number", id="run-ode-string-stride"),
        pytest.param("run", "ode", {"params.tau": "2"}, 'params.tau must be a number or "inf"',
                     id="run-ode-string-tau"),
        pytest.param("run", "ode", {"params.tau": "infinite"},
                     'params.tau must be a number or "inf"', id="run-ode-infinite-tau"),
        pytest.param("run", "ode", {"params.tau": "nan"},
                     'params.tau must be a number or "inf"', id="run-ode-nan-tau"),
        pytest.param("run", "ode", {"drive.kind": "tabulated",
                                    "drive.table": [["0", "1"], ["1", "2"]]},
                     "drive.table must be a list of [t, X] pairs", id="run-ode-string-table"),
        pytest.param("run", "ode", {"drive.kind": "tabulated", "drive.table": [[0.0, 1.0]]},
                     "tabulated drive needs at least two samples", id="run-ode-one-sample"),
        # alpha = delta / sqrt(hbar/2m) would divide by 0
        pytest.param("run", "ode", {"params.hbar": 1e-300, "params.m": 1e150},
                     "hbar/(2m) = 1e-300/(2*1e+150) underflows to 0", id="run-ode-zero-hbar_2m"),
        # float() of an int beyond the float range raises OverflowError
        pytest.param("run", "ode", {"params.m": 10 ** 400}, "params.m must be a number",
                     id="run-ode-huge-int-m"),
        # m/hbar = 5e-324 passes the Nyquist check, but xbardot0 * (x - xbar0) overflows
        # in the packet's phase: numpy's warnings must not escape resolve.  hbar/2m is
        # inf, so evolve's set-up refuses its kinetic factor before the packet's row
        *(pytest.param("run", mode, {"params.m": 5e-324, "init.xbardot0": 1.7e308,
                                     "numerics.dt": 1.0, "numerics.t_end": 1.0,
                                     "numerics.grid.n": 64},
                       "kinetic phase dt (hbar/2m) k^2 / 2 = 1 * inf * k^2 / 2 is beyond "
                       "the float range", id=f"run-{mode}-phase-overflows")
          for mode in ("pde", "compare")),
        # lambda X = 1e600: the ode's drive term and evolve's drive phase overflow
        *(pytest.param("run", mode, {**GRID_128, "params.lambda": 1e300,
                                     "drive.kind": "sinusoid", "drive.x0": 1e300,
                                     "drive.freq": 0.5, "numerics.dt": 0.01,
                                     "numerics.t_end": 0.03},
                       "drive term |lambda| max|X| / m = inf/1 is beyond the float range",
                       id=f"run-{mode}-lambda-x-overflows")
          for mode in ("pde", "compare")),
        pytest.param("run", "ode", {"params.lambda": 1e300, "drive.kind": "sinusoid",
                                    "drive.x0": 1e300, "drive.freq": 0.5,
                                    "numerics.dt": 0.01, "numerics.t_end": 0.03},
                     "drive term |lambda| max|X| / m = inf/1 is beyond the float range",
                     id="run-ode-lambda-x-overflows"),
        pytest.param("run", "ode", {"params.lambda": 1e10, "params.m": 1e-10,
                                    "drive.kind": "tabulated",
                                    "drive.table": [[0.0, 1.0], [1.0, -1e290]]},
                     "drive term |lambda| max|X| / m = 1e+300/1e-10", id="run-ode-table-x"),
        # lambda/m = 1e310 under the zero drive: the ode's drive term was inf * 0 = NaN
        *(pytest.param("run", mode, {"params.lambda": 1e300, "params.m": 1e-10,
                                     "numerics.dt": 0.01, "numerics.t_end": 0.03,
                                     "numerics.grid.n": 64},
                       "lambda/m = 1e+300/1e-10 is beyond the float range",
                       id=f"run-{mode}-lambda-over-m-overflows")
          for mode in ("ode", "compare")),
        # omega^2 = 1e600 and (hbar/2m) dt = 5e307: evolve's harmonic and kinetic
        # phases overflow, and numpy's warnings must not reach the run
        *(pytest.param("run", mode, {"params.tau": "inf", param: value,
                                     "numerics.dt": 1e300, "numerics.t_end": 1e300,
                                     "numerics.grid.n": 64},
                       f"{phase} phase", id=f"run-{mode}-{phase}-phase-overflows")
          for mode in ("pde", "compare")
          for param, value, phase in (("params.omega", 1e300, "harmonic"),
                                      ("params.m", 1e-8, "kinetic"))),
        # lambda X / m = 1.1e307 is finite; (dt/hbar) lambda X max|x| = 1.1e307 * 17 is not
        pytest.param("run", "pde", {**GRID_128, "params.lambda": 1.0, "drive.kind": "constant",
                                    "drive.x0": 1.1e307, "numerics.dt": 1.0,
                                    "numerics.t_end": 1.0},
                     "drive phase (dt/hbar) |lambda| max|X| max|x| = 1 * 1.1e+307 * 17",
                     id="run-pde-drive-phase-overflows"),
        # (dt/hbar) lambda = 1e9 * 1e300: evolve's drive coefficient times the zero
        # drive was inf * 0 = NaN, and the run exited 2 at t = 0.01
        *(pytest.param("run", mode, {"params.tau": "inf", "params.lambda": 1e300,
                                     "params.hbar": 1e-11, "numerics.dt": 0.01,
                                     "numerics.t_end": 0.03, "numerics.grid.n": 64},
                       "drive coefficient (dt/hbar) lambda = 1e+09 * 1e+300 is beyond "
                       "the float range", id=f"run-{mode}-drive-coefficient-overflows")
          for mode in ("pde", "compare")),
    ])
    def test_bad_params_exit_1_without_output(self, tmp_path, capsys, command, mode,
                                              fields, message):
        out = tmp_path / "out"
        cfg = {"mode": mode, "params": {"tau": 2.0}, "init": {"xbar0": 1.0},
               "output": {"directory": str(out)}}
        for dotted, value in fields.items():
            cli._set_by_path(cfg, dotted, value)
        assert main([command, write_config(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("param, values, needle", [
        ("params.bogus", "1", "bogus"),
        ("params.tau", "-1", "tau must be positive"),
        ("params.tau", "0.5,0.5000001", "would both write tau_0.5"),
        ("params.lambda", "1,0", "conserving drive requires lambda != 0"),
        ("params.tau", " , ", "--values lists no value"),
        ("params.tau", "1,abc", "--values must be comma-separated numbers"),
        # params.tau is a number, not a section
        ("params.tau.x", "1", "cannot descend into 'params.tau.x'"),
    ])
    def test_sweep_rejects_bad_values(self, tmp_path, capsys, param, values, needle):
        path = write_config(tmp_path / "c.json", base_ode_config(tmp_path / "out"))
        assert main(["sweep", path, "--param", param, "--values", values]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert needle in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("param, values, needle", [
        ("numerics.grid.n", "128,32", "grid needs at least 64 points"),
        ("init.xbardot0", "0,100", "Nyquist limit"),
        ("numerics.grid.x_max", "17,5", "packet must sit at least 8*delta0"),
        ("params.lambda", "1,1e300", "drive term |lambda| max|X| / m = inf/1"),
        # 8e18 steps: evolve's table of rows cannot be made, and resolve makes it first
        ("numerics.t_end", "0.1,1e17", "record too many rows"),
    ])
    def test_sweep_refuses_bad_grid_or_packet_before_running(self, tmp_path, capsys,
                                                             param, values, needle):
        cfg = {"mode": "pde", "params": {"tau": 2.0}, "init": {"xbar0": 1.0},
               "drive": {"kind": "sinusoid", "x0": 1e300, "freq": 0.5},
               "numerics": {"dt": 0.0125, "t_end": 0.1,
                            "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
               "output": {"directory": str(tmp_path / "out")}}
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", path, "--param", param, "--values", values]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert needle in err[0]
        assert not (tmp_path / "out").exists()

    def test_drive_phase_just_inside_the_float_range_runs(self, tmp_path, capsys):
        # (dt/hbar) |lambda| max|X| max|x| = 1e307 * 17 = 1.7e308: the largest phase
        # evolve forms is finite, so resolve lets the run through (1.1e307 is refused).
        # The step's kick lambda X dt / hbar = 1e307 aliases the packet, and the row
        # at t = 1 is refused as unresolved
        out = tmp_path / "out"
        cfg = {"mode": "pde", "params": {"tau": 2.0, "lambda": 1.0},
               "drive": {"kind": "constant", "x0": 1e307}, "init": {"xbar0": 1.0},
               "numerics": {"dt": 1.0, "t_end": 1.0,
                            "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
               "output": {"directory": str(out)}}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
        assert_unresolved(capsys, 1.0)

    @pytest.mark.parametrize("mode, omega", OMEGA_CASES)
    def test_drive_coefficient_just_inside_the_float_range_runs(self, tmp_path, capsys,
                                                                 mode, omega):
        # (dt/hbar) lambda = 1e9 * 1.7e299 = 1.7e308 is finite, so the zero drive's
        # phase is 0 and resolve lets the run through.  At m/hbar = 1e11 the
        # oscillator's phase (dt/hbar) m omega^2 x^2 / 2 turns faster than the grid
        # resolves: the ode centroid moves as cos(t), the pde one cannot, and the
        # first step's row is refused.  Without the oscillator nothing moves.
        out = tmp_path / "out"
        cfg = {"mode": mode, "params": {"tau": "inf", "lambda": 1.7e299, "hbar": 1e-11,
                                        "omega": omega},
               "init": {"xbar0": 1.0},
               "numerics": {"dt": 0.01, "t_end": 0.03, "grid": {"n": 64}},
               "output": {"directory": str(out)}}
        if omega:
            assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
            assert_unresolved(capsys, 0.01)
            return
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, data = read_csv(out / ("observables.csv" if mode == "pde" else "compare.csv"))
        assert data.shape == (4, len(header)) and np.all(np.isfinite(data))

    def test_lambda_over_m_just_inside_the_float_range_runs(self, tmp_path, capsys):
        # lambda/m = 1.7e308 is finite: the zero drive's term is 0, not inf * 0
        out = tmp_path / "out"
        cfg = {"mode": "ode", "params": {"tau": 2.0, "lambda": 1.7e300, "m": 1e-8},
               "numerics": {"dt": 0.01, "t_end": 0.03}, "output": {"directory": str(out)}}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, data = read_csv(out / "trajectory.csv")
        assert data.shape == (4, len(header)) and np.all(np.isfinite(data))

    @pytest.mark.parametrize("mode, omega", [pytest.param("ode", 1.0, id="ode"),
                                             *OMEGA_CASES])
    def test_huge_mass_runs(self, tmp_path, capsys, mode, omega):
        # hbar/2m = 5e-201: the width scale sqrt(hbar/2m) and k_t = (hbar/2m)^2 / delta^4
        # are computed without forming m^2.  At m/hbar = 1e200 the pde side cannot
        # resolve the oscillator's phase, and its first step's row is refused
        out = tmp_path / "out"
        cfg = {"mode": mode, "params": {"tau": "inf", "m": 1e200, "omega": omega},
               "numerics": {"dt": 0.0125, "t_end": 0.1},
               "output": {"directory": str(out)}}
        if mode != "ode":
            cfg["numerics"]["grid"] = {"n": 128}
            if omega:
                assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
                assert_unresolved(capsys, 0.0125)
                return
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        csv = {"ode": "trajectory.csv", "pde": "observables.csv", "compare": "compare.csv"}
        header, data = read_csv(out / csv[mode])
        assert np.all(np.isfinite(data))


@pytest.mark.parametrize("mode, fields, message", [
    # omega_m t and freq t overflow after the first step: sin and cos give NaN
    pytest.param("ode", {"omega_spec.eps": 0.5, "omega_spec.omega_m": 1e308,
                         "numerics.dt": 1.0, "numerics.t_end": 2.0},
                 "non-finite state at t=2.0", id="ode-omega_m-t-overflows"),
    pytest.param("pde", {"params.lambda": 1.0, "drive.kind": "sinusoid",
                         "drive.x0": 1.0, "drive.freq": 1.5e308, "numerics.dt": 1.0,
                         "numerics.t_end": 2.0, "numerics.grid.n": 128},
                 "non-finite value in the observables recorded at t=2.0",
                 id="pde-freq-t-overflows"),
    # the invariant's rounding over dt = 1e-150 is a difference quotient beyond
    # the float range
    pytest.param("ode", {"params.hbar": 1e-300, "params.tau": "inf", "init.xbar0": 1e150,
                         "init.width_rate0": 1e-150, "numerics.dt": 1e-150,
                         "numerics.t_end": 1e-150},
                 "non-finite value in the finite-difference dI/dt", id="ode-fd-rate-overflows"),
])
def test_unrepresentable_run_exits_2(tmp_path, capsys, mode, fields, message):
    out = tmp_path / "out"
    cfg = {"mode": mode, "params": {"tau": 2.0}, "output": {"directory": str(out)}}
    for dotted, value in fields.items():
        cli._set_by_path(cfg, dotted, value)
    assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert message in err[0]


def test_write_csv_bytes(tmp_path):
    # the same bytes as joining f"{v:.17g}" per value, for every kind of number a row holds
    rows = [(-0.0, 5e-324, 1.7976931348623157e308),
            (np.float64(0.1), math.inf, -math.inf),
            (math.nan, np.float64(-2.5e-310), 7),
            (np.float64(math.nan), np.float64(-math.inf), 0.1)]
    cli.write_csv(tmp_path / "rows.csv", ["a", "b", "c"], iter(rows))
    expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert (tmp_path / "rows.csv").read_text() == cli.CSV_HEADER + "\na,b,c\n" + expected


@pytest.mark.parametrize("command, name", [("run", "trajectory.csv"), ("verify", "report.json")])
def test_unwritable_output_exits_1(tmp_path, capsys, monkeypatch, command, name):
    # output.directory names an existing file: resolve refuses it, one config error and
    # no traceback; with the file gone the same command writes `name` there
    monkeypatch.setattr("ermakov_lab.criteria.CRITERIA", (fake_criterion("good", 1.0, 2.0),))
    out = tmp_path / "out"
    out.write_text("")
    cfg = base_ode_config(out)
    cfg["numerics"]["t_end"] = 0.1
    path = write_config(tmp_path / "c.json", cfg)
    assert main([command, path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot write {out}: {os.strerror(errno.EEXIST)}"]
    out.unlink()
    assert main([command, path]) == 0
    assert (out / name).is_file()


# output.directory under a file (pde) or naming one (sweep): refused before any step
@pytest.mark.parametrize("command, sub, code", [("run", "sub", errno.ENOTDIR),
                                                ("sweep", "", errno.EEXIST)],
                         ids=["pde", "sweep"])
def test_unwritable_output_is_refused_before_any_run(tmp_path, capsys, monkeypatch,
                                                      command, sub, code):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "evolve", no_run)
    monkeypatch.setattr(cli, "integrate", no_run)
    out = tmp_path / "out"
    out.write_text("")
    cfg = {"mode": "pde", "params": {"tau": 2.0},
           "numerics": {"dt": 0.001, "t_end": 1.0, "grid": {"n": 64}},
           "output": {"directory": str(out / sub)}}
    argv = [command, write_config(tmp_path / "c.json", cfg)]
    if command == "sweep":
        argv += ["--param", "params.tau", "--values", "1,2"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot write {out / sub}: {os.strerror(code)}"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.json", "out"]
    assert out.read_text() == ""


class TestOdeMode:
    def test_conserving_drive_invariant_column(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path / "c.json", base_ode_config(out))])
        assert code == 0
        header, data = read_csv(out / "trajectory.csv")
        I = data[:, header.index("I")]
        assert (I.max() - I.min()) / I[0] <= 1e-6

    def test_classical_system(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_ode_config(out, system="classical",
                              omega_spec={"eps": 0.1, "omega_m": 1.0})
        cfg["params"] = {"tau": "inf"}
        cfg["drive"] = {"kind": "zero"}
        cfg["init"] = {"q0": 1.0, "qdot0": 0.0, "alpha0": 1.0, "alphadot0": 0.0}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        header, data = read_csv(out / "trajectory.csv")
        I = data[:, header.index("I")]
        assert (I.max() - I.min()) / I[0] <= 1e-6

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = base_ode_config(tmp_path / "out")
        cfg["drive"] = {"kind": "zero"}
        cfg["init"] = {"alpha0": 2e-8, "alphadot0": -1.0, "xbar0": 0.0,
                       "xbardot0": 0.0}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2

    def test_classical_collapse_exits_2(self, tmp_path, capsys):
        cfg = base_ode_config(tmp_path / "out", system="classical")
        cfg["params"] = {"tau": "inf"}
        cfg["drive"] = {"kind": "zero"}
        cfg["init"] = {"alpha0": 0.01, "alphadot0": -10.0}
        cfg["numerics"] = {"dt": 0.01, "t_end": 1.0}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")

    @pytest.mark.parametrize("system, init, needle", [
        # each RK4 stage keeps alpha > 0, the step's result does not
        pytest.param("classical", {"alpha0": 0.9517489413280635,
                                   "alphadot0": -14.948306159992022},
                     "below collapse floor", id="alpha-crosses-zero-within-a-step"),
        pytest.param("measurement", {"alpha0": 1e200}, "non-finite", id="huge-alpha0"),
    ])
    def test_failure_inside_the_run_exits_2(self, tmp_path, capsys, system, init, needle):
        cfg = base_ode_config(tmp_path / "out", system=system)
        cfg["numerics"] = {"dt": 0.1, "t_end": 1.0}
        cfg["output"]["stride"] = 1  # every step is recorded
        if system == "classical":
            cfg["params"] = {"tau": "inf"}
            cfg["drive"] = {"kind": "zero"}
            cfg["init"] = init
        else:
            cfg["init"].update(init)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")
        assert needle in err[0]

    def test_tiny_hbar_runs(self, tmp_path, capsys):
        # alpha0 = delta0 / sqrt(hbar/2m) = 1.4e150: alpha^3 would overflow, (1/alpha)^3 is 0
        out = tmp_path / "out"
        cfg = {"mode": "ode", "params": {"tau": 2.0, "hbar": 1e-300},
               "init": {"delta0": 1.0}, "numerics": {"dt": 0.01, "t_end": 0.1},
               "output": {"directory": str(out)}}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, data = read_csv(out / "trajectory.csv")
        assert data.shape == (11, len(header)) and np.all(np.isfinite(data))

    def test_tiny_dt_keeps_the_numeric_rate_finite(self, tmp_path, capsys):
        # np.gradient's spacing products of dt = 1e-300 underflow in unscaled times
        out = tmp_path / "out"
        cfg = base_ode_config(out)
        cfg["numerics"] = {"dt": 1e-300, "t_end": 8e-300}
        cfg["output"]["stride"] = 1
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, data = read_csv(out / "trajectory.csv")
        assert data.shape == (9, len(header)) and np.all(np.isfinite(data))

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_c_tau_beyond_the_float_range_fails_the_run(self, tmp_path, capsys, command):
        # C_tau = (1/tau)^2 / 4 is inf: a config error, before the run or the criteria
        out = tmp_path / "out"
        cfg = base_ode_config(out)
        cfg["params"]["tau"] = 1e-200
        assert main([command, write_config(tmp_path / "c.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: C_tau = 1/(4 tau^2) at tau = 1e-200 is beyond the float range"]
        assert not out.exists()

    def omega_spec_run(self, tmp_path, name, omega_spec=None):
        cfg = base_ode_config(tmp_path / name)
        cfg["drive"] = {"kind": "sinusoid", "x0": 1.0, "freq": 0.7}
        cfg["output"]["stride"] = 1  # the finite difference needs every step
        if omega_spec is not None:
            cfg["omega_spec"] = omega_spec
        assert main(["run", write_config(tmp_path / f"{name}.json", cfg)]) == 0
        return (tmp_path / name / "trajectory.csv").read_bytes()

    def test_omega_spec_is_honoured(self, tmp_path):
        plain = self.omega_spec_run(tmp_path, "plain")
        modulated = self.omega_spec_run(tmp_path, "modulated",
                                        {"eps": 0.5, "omega_m": 2.0})
        assert modulated != plain
        header, data = read_csv(tmp_path / "modulated" / "trajectory.csv")
        analytic = data[1:-1, header.index("dIdt_analytic")]
        fd = data[1:-1, header.index("dIdt_numeric")]
        assert np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic)) < 1e-4
        # a constant schedule at params.omega is the same run as none at all
        assert self.omega_spec_run(tmp_path, "constant", {"eps": 0.0}) \
            == plain

    def test_omega_spec_modulates_params_omega(self, tmp_path):
        spec = {"eps": 0.5, "omega_m": 2.0}
        runs = []
        for omega in (1.0, 3.0):
            cfg = base_ode_config(tmp_path / f"w{omega:g}", params={"tau": 2.0, "omega": omega},
                                  drive={"kind": "zero"}, omega_spec=spec)
            assert main(["run", write_config(tmp_path / f"w{omega:g}.json", cfg)]) == 0
            header, data = read_csv(tmp_path / f"w{omega:g}" / "trajectory.csv")
            runs.append(data[:, header.index("xbar")])
        assert not np.array_equal(runs[0], runs[1])

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = base_ode_config(out1)
        main(["run", write_config(tmp_path / "c1.json", cfg)])
        cfg["output"]["directory"] = str(out2)
        main(["run", write_config(tmp_path / "c2.json", cfg)])
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()


class TestPdeMode:
    def pde_config(self, outdir):
        return {
            "mode": "pde",
            "params": {"tau": 2.0},
            "init": {"delta0": 1.0, "xbar0": 1.0},
            "numerics": {"dt": 0.0125, "t_end": 1.0,
                         "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
            "output": {"directory": str(outdir), "snapshots": True},
        }

    def test_observables_and_snapshots(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path / "c.json", self.pde_config(out))])
        assert code == 0
        header, data = read_csv(out / "observables.csv")
        assert header == ["t", "norm", "xbar", "delta", "excess_kurtosis", "k_t"]
        norm = data[:, header.index("norm")]
        assert np.max(np.abs(norm - 1.0)) < 1e-6
        assert (out / "fields_final.csv").exists()

    @pytest.mark.parametrize("mode", ["pde", "compare"])
    def test_sink_overflow_exits_1(self, tmp_path, capsys, mode):
        # dt/tau = 1.25e8: exp(dt/tau) overflows, though C_tau = 2.5e19 does not;
        # width_rate0 = -delta0/(2 tau) cancels the 1/(2 tau) phase curvature, so the
        # packet itself is resolved
        out = tmp_path / "out"
        cfg = self.pde_config(out)
        cfg["mode"] = mode
        cfg["params"]["tau"] = 1e-10
        cfg["init"]["width_rate0"] = -0.5e10
        if mode == "compare":
            del cfg["output"]["snapshots"]
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: sink factor exp(dt/tau) overflows at dt/tau = 1.25e+08"]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["pde", "compare"])
    def test_dt_above_dx_squared_scale_exits_0_quietly(self, tmp_path, capsys, mode):
        # dx = 0.25: dt = 0.05 is 2.5 m dx^2 / (pi hbar).  Strang-split Fourier
        # stepping has no kinetic stability limit, so this is neither a failure
        # nor a warning
        out = tmp_path / "out"
        cfg = self.pde_config(out)
        cfg["mode"] = mode
        cfg["numerics"].update(dt=0.05, t_end=0.1)
        if mode == "compare":
            del cfg["output"]["snapshots"]
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_overflow_between_record_points_exits_2_quietly(self, tmp_path, capsys):
        # tau = 1e-3 with the 1/(2 tau) phase curvature cancelled: the amplitudes
        # overflow before the first record point (stride 100), with no numpy warning
        cfg = {"mode": "pde", "params": {"tau": 0.001, "lambda": 1.0},
               "drive": {"kind": "sinusoid", "x0": 0.6, "freq": 0.8, "phase": 1.0},
               "init": {"delta0": 1.0, "width_rate0": -500.0, "xbar0": -0.4},
               "numerics": {"dt": 0.02, "t_end": 4.0, "grid": {"n": 64}},
               "output": {"directory": str(tmp_path / "out"), "stride": 100}}
        with warnings.catch_warnings(record=True) as stray:
            warnings.simplefilter("always")
            assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
        assert [str(w.message) for w in stray] == []
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: evolution aborted at t~1.44: non-finite amplitudes at t=1.44"]

    def test_env_var_overrides_output(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("ERMAKOV_LAB_OUT", str(override))
        cfg = self.pde_config(tmp_path / "ignored")
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert (override / "observables.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestCompareMode:
    def test_pde_ode_join(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "mode": "compare",
            "params": {"tau": 2.0},
            "init": {"delta0": 1.0, "xbar0": 1.0},
            "numerics": {"dt": 0.0125, "t_end": 2.0,
                         "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
            "output": {"directory": str(out), "stride": 5},
        }
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        header, data = read_csv(out / "compare.csv")
        diff = data[:, header.index("xbar_diff")]
        assert np.max(np.abs(diff)) < 1e-3

    def test_default_width_is_shared(self, tmp_path):
        # no init width: both sides start at the default delta = 1
        out = tmp_path / "out"
        cfg = {"mode": "compare", "params": {"tau": 2.0}, "init": {"xbar0": 1.0},
               "numerics": {"dt": 0.0125, "t_end": 0.1,
                            "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
               "output": {"directory": str(out)}}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        header, data = read_csv(out / "compare.csv")
        assert data[0, header.index("delta_ode")] == pytest.approx(1.0, abs=1e-12)
        assert abs(data[0, header.index("delta_diff")]) < 1e-12

    @pytest.mark.parametrize("n, code", [(256, 2), (1024, 0)])
    def test_narrowing_below_the_grid_spacing_exits_2(self, tmp_path, capsys, n, code):
        # tau = 0.01 narrows the packet to delta = 0.1 (width_rate0 = -50 cancels the
        # 1/(2 tau) phase curvature): below dx = 0.125 at n = 256, where a run to
        # t = 1 ends with a centroid gap of 0.39; n = 1024 resolves it
        out = tmp_path / "out"
        cfg = {"mode": "compare", "params": {"tau": 0.01},
               "init": {"delta0": 1.0, "width_rate0": -50.0, "xbar0": 1.0},
               "numerics": {"dt": 1e-4, "t_end": 1.0,
                            "grid": {"x_min": -15.0, "x_max": 17.0, "n": n}},
               "output": {"directory": str(out), "stride": 10}}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == code
        if code == 2:
            assert_unresolved(capsys, 0.054)
            assert not out.exists()
            return
        assert capsys.readouterr().err == ""
        header, data = read_csv(out / "compare.csv")
        assert np.max(np.abs(data[:, header.index("xbar_diff")])) < 1e-5
        assert np.max(np.abs(data[:, header.index("delta_diff")])) < 1e-5

    # tau = 1e-3 with the 1/(2 tau) phase curvature nearly cancelled: the norm
    # leaves [0.5, 2] in a row inside a batch (128 rows at n = 64, 64 at n = 128),
    # and the steps run past that row overflow; the row is reported at its own time
    @pytest.mark.parametrize("cfg, line", [
        ({"params": {"tau": 0.001, "lambda": 0.5},
          "init": {"delta0": 0.9087833742358749, "width_rate0": -454.3916871179374,
                   "xbar0": 0.460650346411857},
          "numerics": {"dt": 0.02, "t_end": 3.0, "grid": {"n": 64}},
          "output": {"stride": 1}},
         "evolution aborted at t~0.02: norm 4393.563730815666 outside [0.5, 2] at t=0.02"),
        ({"params": {"tau": 0.001, "lambda": 1},
          "drive": {"kind": "sinusoid", "x0": -0.9901883193179439,
                    "freq": 1.3310728096004425, "phase": 4.023987308003498},
          "init": {"delta0": 0.6395344683254347, "width_rate0": -319.76723416271733,
                   "xbar0": -0.6885373430724024},
          "numerics": {"dt": 0.02, "t_end": 8.0, "grid": {"n": 128}},
          "output": {"stride": 7}},
         "evolution aborted at t~0.14: norm 4.090239774982681e+25 outside [0.5, 2] "
         "at t=0.14"),
    ], ids=["stride1", "stride7"])
    def test_bad_row_inside_a_batch_exits_2(self, tmp_path, capsys, cfg, line):
        cfg = dict(cfg, mode="compare")
        cfg["output"] = dict(cfg["output"], directory=str(tmp_path / "out"))
        with warnings.catch_warnings(record=True) as stray:
            warnings.simplefilter("always")
            assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
        assert [str(w.message) for w in stray] == []
        assert capsys.readouterr().err.splitlines() == ["numerical failure: " + line]

    def test_drive_kick_beyond_the_grid_exits_2(self, tmp_path, capsys):
        # lambda X dt / hbar = 10 per step: one step takes the packet to k = 10, just
        # under pi/dx = 12.6, and the next past it.  Run on, the pde centroid stays
        # near 1 while the ode's reaches -4 at t = 0.1
        cfg = {"mode": "compare", "params": {"tau": 2.0, "lambda": 1.0},
               "drive": {"kind": "constant", "x0": 1000.0}, "init": {"xbar0": 1.0},
               "numerics": {"dt": 0.01, "t_end": 0.1,
                            "grid": {"x_min": -15.0, "x_max": 17.0, "n": 128}},
               "output": {"directory": str(tmp_path / "out")}}
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 2
        assert_unresolved(capsys, 0.01)


def fake_criterion(name, value, bound):
    def criterion():
        return [(name, value, bound, value <= bound)]
    return criterion


class TestVerifyMode:
    def verify(self, tmp_path, monkeypatch, criteria):
        monkeypatch.setattr("ermakov_lab.criteria.CRITERIA", criteria)
        out = tmp_path / "out"
        cfg = {"mode": "ode", "params": {"tau": 2.0},
               "output": {"directory": str(out)}}
        code = main(["verify", write_config(tmp_path / "c.json", cfg)])
        return code, json.loads((out / "report.json").read_text())

    def test_report_all_pass(self, tmp_path, monkeypatch):
        code, report = self.verify(tmp_path, monkeypatch,
                                   (fake_criterion("good", 1.0, 2.0),))
        assert code == 0 and report["all_pass"]
        assert report["scenario"]["mode"] == "ode"
        assert report["scenario"]["params"]["tau"] == 2.0
        assert report["checks"] == [
            {"name": "good", "value": 1.0, "tolerance": 2.0, "pass": True}]

    def test_failing_row_exits_3(self, tmp_path, monkeypatch, capsys):
        code, report = self.verify(tmp_path, monkeypatch,
                                   (fake_criterion("good", 1.0, 2.0),
                                    fake_criterion("bad", 3.0, 2.0)))
        assert code == 3 and not report["all_pass"]
        assert [(c["name"], c["pass"]) for c in report["checks"]] == \
            [("good", True), ("bad", False)]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["PASS", "FAIL"]

    def test_registry_holds_the_ten_criteria(self):
        assert [c.__name__ for c in CRITERIA] == \
            [f"criterion_{i}" for i in range(1, 11)]


def files(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


def no_fork():
    raise AssertionError("os.fork was called")


# Sweeps with failing values: omega_m t and freq t overflow after the first step.
FAILING_SWEEPS = {
    "ode-omega_m": ({"mode": "ode", "params": {"tau": 2.0},
                     "omega_spec": {"eps": 0.5, "omega_m": 1.0},
                     "numerics": {"dt": 1.0, "t_end": 2.0}},
                    "omega_spec.omega_m", "1,1e308,2,1.5e308,0.5", 2),
    "pde-freq": ({"mode": "pde", "params": {"tau": 2.0, "lambda": 1.0},
                  "drive": {"kind": "sinusoid", "x0": 1.0, "freq": 1.0},
                  "numerics": {"dt": 1.0, "t_end": 2.0, "grid": {"n": 128}}},
                 "drive.freq", "0.5,1.5e308,0.7,2", 1),
}


class TestSweep:
    def test_tau_fanout_and_order_independence(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_ode_config(out)
        cfg["numerics"]["t_end"] = 2.0
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", path, "--param", "params.tau",
                     "--values", "0.5,1,2"]) == 0
        dirs = sorted(d.name for d in out.iterdir())
        assert dirs == ["tau_0.5", "tau_1", "tau_2"]
        first = {d: (out / d / "trajectory.csv").read_bytes() for d in dirs}
        # reversed order reproduces bitwise-identical results
        assert main(["sweep", path, "--param", "params.tau",
                     "--values", "2,1,0.5"]) == 0
        for d in dirs:
            assert (out / d / "trajectory.csv").read_bytes() == first[d]

    @pytest.mark.parametrize("param, values", [
        ("params.tau", "1,2"),
        ("omega_spec.eps", "0,0.1"),  # a section the config does not have
    ])
    def test_values_share_no_section(self, tmp_path, monkeypatch, param, values):
        # each value's config copies only the sections on the swept path: the config
        # read from file is unchanged, and every value resolves its own section
        loaded, resolved = [], []
        load_config, resolve = cli.load_config, cli.resolve
        monkeypatch.setattr(cli, "load_config",
                            lambda path: loaded.append(load_config(path)) or loaded[-1])
        monkeypatch.setattr(cli, "resolve", lambda cfg: resolved.append(cfg) or resolve(cfg))
        cfg = base_ode_config(tmp_path / "out")
        cfg["numerics"]["t_end"] = 0.1
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", path, "--param", param, "--values", values]) == 0
        assert loaded == [cfg]
        section, leaf = param.split(".")
        assert [c[section] for c in resolved] == [{**cfg.get(section, {}), leaf: float(v)}
                                                  for v in values.split(",")]
        sections = [c[section] for c in resolved + loaded if section in c]
        assert len(set(map(id, sections))) == len(sections)

    def test_refuses_verify_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = {"mode": "verify", "params": {"tau": 2.0}, "output": {"directory": str(out)}}
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", path, "--param", "params.tau", "--values", "1,2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: mode must be one of 'ode', 'pde', 'compare', "
                       "got 'verify'"]
        assert not out.exists()

    @pytest.mark.parametrize("case", FAILING_SWEEPS)
    def test_a_failing_value_stops_no_other_value(self, tmp_path, capsys, case):
        cfg, param, values, failures = FAILING_SWEEPS[case]
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", dict(cfg, output={"directory": str(out)}))
        assert main(["sweep", path, "--param", param, "--values", values]) == 2
        assert capsys.readouterr().err.count("numerical failure: ") == failures
        assert len(files(out)) == len(values.split(",")) - failures

    # every value runs and ends as `run` would end on it; the sweep exits with the
    # largest code, so a numerical failure (2) outranks a config error (1)
    @pytest.mark.parametrize("failures, code, err", [
        pytest.param({2: ConfigurationError, 4: ConfigurationError}, 1,
                     "ran tau 1\nconfig error: refused tau 2\n"
                     "ran tau 3\nconfig error: refused tau 4\n", id="config-errors"),
        pytest.param({2: NumericalFailure, 3: ConfigurationError}, 2,
                     "ran tau 1\nnumerical failure: refused tau 2\n"
                     "config error: refused tau 3\nran tau 4\n", id="and-numerical"),
    ])
    def test_config_error_of_a_run_is_reported_in_value_order(self, tmp_path, capsys,
                                                              monkeypatch, failures,
                                                              code, err):
        def run(r):
            tau = r["params.tau"]
            if tau in failures:
                raise failures[tau](f"refused tau {tau:g}")
            print(f"ran tau {tau:g}", file=sys.stderr)
            return 0

        monkeypatch.setitem(cli._MODES, "ode", run)
        path = write_config(tmp_path / "c.json", base_ode_config(tmp_path / "out"))
        assert main(["sweep", path, "--param", "params.tau", "--values", "1,2,3,4"]) == code
        assert capsys.readouterr().err == err

    def test_an_unexpected_error_keeps_the_stderr_before_it(self, tmp_path, capsys,
                                                           monkeypatch):
        # an error no run reports propagates, after the values before it have printed
        def run(r):
            tau = r["params.tau"]
            if tau == 3:
                raise RuntimeError(f"refused tau {tau:g}")
            print(f"ran tau {tau:g}", file=sys.stderr)
            return 0

        monkeypatch.setitem(cli._MODES, "ode", run)
        path = write_config(tmp_path / "c.json", base_ode_config(tmp_path / "out"))
        with pytest.raises(RuntimeError, match="refused tau 3"):
            main(["sweep", path, "--param", "params.tau", "--values", "1,2,3,4"])
        assert capsys.readouterr().err == "ran tau 1\nran tau 2\n"

    def test_an_unwritable_artifact_stops_no_other_value(self, tmp_path, capsys):
        # the second value's CSV path is a directory: only its write fails, after its run
        out = tmp_path / "out"
        (out / "tau_2" / "trajectory.csv").mkdir(parents=True)
        cfg = base_ode_config(out)
        cfg["numerics"]["t_end"] = 0.1
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", path, "--param", "params.tau", "--values", "1,2,3,4"]) == 1
        assert capsys.readouterr().err == (f"config error: cannot write "
                                           f"{out}/tau_2/trajectory.csv: "
                                           f"{os.strerror(errno.EISDIR)}\n")
        assert sorted(files(out)) == [f"tau_{v}/trajectory.csv" for v in (1, 3, 4)]

    def test_unwritable_output_is_one_config_error(self, tmp_path, capsys):
        # the second value's directory is a file: the sweep refuses it while resolving,
        # before any run, as the one line
        out = tmp_path / "out"
        out.mkdir()
        (out / "tau_2").write_text("")
        cfg = base_ode_config(out)
        cfg["numerics"]["t_end"] = 0.1
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", path, "--param", "params.tau", "--values", "1,2"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot write {out / 'tau_2'}: {os.strerror(errno.EEXIST)}"]
        assert not (out / "tau_1").exists()

    def test_a_sweep_starts_no_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "out"
        cfg = base_ode_config(out)
        cfg["numerics"]["t_end"] = 0.1
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", path, "--param", "params.tau", "--values", "1,2,3"]) == 0
        assert sorted(files(out)) == [f"tau_{v}/trajectory.csv" for v in (1, 2, 3)]
