"""Configuration-driven experiment runner.

Subcommands:
  run <config.json>                      execute the mode (ode, pde or compare) it names
  sweep <config.json> --param P --values CSV   fan out over one numeric field
  verify <config.json>                   run the ten acceptance criteria; the config
                                         is one run accepts, echoed into report.json

Exit codes: 0 success, 1 config error (a bad command line too), 2 numerical
failure, 3 verification failure; main reports every error through _run_mode.
The env var ERMAKOV_LAB_OUT overrides the output directory.

`sweep` resolves every value before it runs any: a bad value runs nothing.
Otherwise every value runs, in order and in the calling process, and ends as
`run` ends on its config; the sweep exits with the largest code.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, ermakov, madelung
from .errors import ConfigurationError, NumericalFailure
from .params import DriveSpec, PhysParams
from .ermakov import ErmakovState, _whole_steps, delta_from_alpha, integrate
from .madelung import Grid, evolve, gaussian_packet

CSV_HEADER = "# ermakov-lab csv v1; nondimensional units unless configured otherwise"


# Conversions of config values; each docstring says what it accepts.
# Only JSON numbers are numbers: not strings, although Python's float() reads
# "2" and "inf", nor true/false, although it reads them as 1/0.
def _number(v) -> float:
    """a number"""
    if type(v) not in (int, float) or not math.isfinite(v := float(v)):
        raise ValueError(v)
    return v


def _whole(v) -> int:
    """a whole number"""
    if not (v := _number(v)).is_integer():
        raise ValueError(v)
    return int(v)


def _tau(v) -> float:
    '''a number or "inf"'''
    # a float inf is what `sweep --values inf` sets
    return math.inf if v == "inf" or v == math.inf else _number(v)


def _text(v) -> str:
    """a string"""
    if not isinstance(v, str):
        raise TypeError(v)
    return v


def _pairs(v) -> tuple:
    """a list of [t, X] pairs"""
    return tuple((_number(t), _number(x)) for t, x in v)


def _one_of(*choices):
    typed = [(type(c), c) for c in choices]  # so 1 is not True, nor 0 False

    def conv(v):
        return choices[typed.index((type(v), v))]  # ValueError for any other value
    conv.__doc__ = "one of " + ", ".join(map(repr, choices))
    return conv


_REQUIRED = object()
_ODE = {"mode": ("ode",)}
_PDE = {"mode": ("pde", "compare")}

#: dotted key -> (conversion, default, reader).  A callable default is computed
#: from the fields above it.  The reader maps fields to the resolved values
#: under which the key is read (an empty reader: read in every mode); a field
#: a reader names has an empty reader itself.
_FIELDS = {
    "mode": (_one_of("ode", "pde", "compare"), _REQUIRED, {}),
    "system": (_one_of("measurement", "classical"), "measurement", {}),
    "params.m": (_number, 1.0, {}),
    "params.hbar": (_number, 1.0, {}),
    "params.omega": (_number, 1.0, {}),
    "params.lambda": (_number, 0.0, {}),
    "params.tau": (_tau, _REQUIRED, {}),
    "omega_spec.eps": (_number, 0.0, _ODE),
    "omega_spec.omega_m": (_number, 0.0, _ODE),
    "drive.kind": (_one_of(*DriveSpec._KINDS), "zero", {}),
    "drive.x0": (_number, 0.0, {"drive.kind": ("constant", "sinusoid")}),
    "drive.freq": (_number, 0.0, {"drive.kind": ("sinusoid",)}),
    "drive.phase": (_number, 0.0, {"drive.kind": ("sinusoid",)}),
    "drive.table": (_pairs, (), {"drive.kind": ("tabulated",)}),
    "init.delta0": (_number, 1.0, {}),
    "init.width_rate0": (_number, 0.0, {}),
    "init.alpha0": (_number, 1.0, _ODE),
    "init.alphadot0": (_number, 0.0, _ODE),
    "init.xbar0": (_number, 1.0, {"system": ("measurement",)}),
    "init.xbardot0": (_number, 0.0, {"system": ("measurement",)}),
    "init.q0": (_number, 1.0, {"system": ("classical",)}),
    "init.qdot0": (_number, 0.0, {"system": ("classical",)}),
    "numerics.dt": (_number, 1e-3, {}),
    "numerics.t_end": (_number, 10.0, {}),
    "numerics.grid.x_min": (_number, lambda r: r["init.xbar0"] - 16 * r["init.delta0"], _PDE),
    "numerics.grid.x_max": (_number, lambda r: r["init.xbar0"] + 16 * r["init.delta0"], _PDE),
    "numerics.grid.n": (_whole, 1024, _PDE),
    "output.directory": (_text, "out", {}),
    "output.stride": (_whole, 1, {}),
    "output.snapshots": (_one_of(False, True), False, {"mode": ("pde",)}),
}


def _object(pairs: list) -> dict:
    """A JSON object of the config as a dict; a key it repeats is a config error."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ConfigurationError(f"config key {key!r} is given twice in one object")
        obj[key] = val
    return obj


def load_config(path) -> dict:
    """The config file as a dict, each of its objects without a repeated key;
    resolve() validates it."""
    p = Path(path)
    if not p.is_file():  # not opened: reading a FIFO with no writer would block
        raise ConfigurationError(f"{path} is not a regular file" if p.exists()
                                 else f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(), object_pairs_hook=_object)
    except OSError as exc:  # a file that cannot be read: EACCES, or EIO from a special file
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, a too long int, deep nesting
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    return cfg


def _given(node: dict, prefix: str = ""):
    """(dotted key, value) of every field the config sets, each in its own section;
    unknown keys, and keys holding a dot, are errors."""
    for key, val in node.items():
        dotted = prefix + key
        if "." in key:  # params.tau is {"params": {"tau": ...}}, never a dotted key
            raise ConfigurationError(f"unknown config key {dotted!r}")
        if dotted in _FIELDS:
            yield dotted, val
        elif not any(f.startswith(dotted + ".") for f in _FIELDS):
            raise ConfigurationError(f"unknown config key {dotted!r}")
        elif not isinstance(val, dict):
            raise ConfigurationError(f"config section {dotted!r} must be an object")
        else:
            yield from _given(val, dotted + ".")


def _unread(r: dict, key: str) -> str | None:
    """The field whose resolved value keeps `key` from being read, or None."""
    return next((f for f, values in _FIELDS[key][2].items() if r[f] not in values), None)


def resolve(cfg: dict) -> dict:
    """Every field of the config, converted once and defaulted: what a run reads.

    A config error for an unknown key, a bad value, a classical system the run
    cannot honour, two initial widths, a refused pde/compare grid or packet, a
    given key that the mode, system or drive kind does not read and, checked
    last, a drive term lambda X / m beyond the float range and any bound of the
    set-up of each solver the mode runs, its t = 0 row's check and a conserving
    drive at lambda = 0 included: evolve's, madelung._setup, in pde and compare
    mode, then integrate's, ermakov._setup, in ode and compare mode.
    ERMAKOV_LAB_OUT replaces output.directory, and right after that an output
    directory that cannot be made (a file where it or an ancestor should be) is
    refused before any work."""
    given = dict(_given(cfg))
    r = {}
    for key, (conv, default, _) in _FIELDS.items():
        if key in given:
            try:
                r[key] = conv(given[key])
            except (TypeError, ValueError, OverflowError):  # OverflowError: a huge int
                raise ConfigurationError(
                    f"{key} must be {conv.__doc__}, got {given[key]!r}") from None
        elif default is _REQUIRED:
            raise ConfigurationError(f"missing required field {key!r}")
        else:
            r[key] = default(r) if callable(default) else default
    r["output.directory"] = os.environ.get("ERMAKOV_LAB_OUT") or r["output.directory"]
    _makeable(r["output.directory"])
    p, d = _build(r)
    steps = _steps(r)
    if r["output.stride"] < 1:
        raise ConfigurationError("output.stride must be >= 1")
    for key in ("init.delta0", "init.alpha0"):
        if not r[key] > 0:
            raise ConfigurationError(f"{key} must be positive")
    if r["system"] == "classical":
        if r["mode"] != "ode":
            raise ConfigurationError("system 'classical' runs only in ode mode")
        if p.inv_tau != 0 or p.lam != 0 or r["drive.kind"] != "zero":
            raise ConfigurationError("system 'classical' needs params.tau = \"inf\", "
                                     "params.lambda absent or 0 and drive absent or zero")
    # the width is init.delta0/width_rate0 or, in ode mode only, init.alpha0/alphadot0
    delta_pair = given.keys() & {"init.delta0", "init.width_rate0"}
    if r["mode"] == "ode" and delta_pair and given.keys() & {"init.alpha0", "init.alphadot0"}:
        raise ConfigurationError("init.alpha0/alphadot0 and init.delta0/width_rate0 both "
                                 "set the initial width; give one pair")
    scale = delta_from_alpha(1.0, p)
    if r["mode"] == "ode" and not delta_pair:
        r["init.delta0"] = scale * r["init.alpha0"]
        r["init.width_rate0"] = scale * r["init.alphadot0"]
    else:
        r["init.alpha0"] = r["init.delta0"] / scale
        r["init.alphadot0"] = r["init.width_rate0"] / scale
    pde = r["mode"] in _PDE["mode"]
    packet = _packet(r, p) if pde else None
    for key in given:
        why = _unread(r, key)
        if why == "mode":  # name the outermost section this mode reads nothing of
            parts = key.split(".")
            key = next(s for s in (".".join(parts[:i]) for i in range(1, len(parts) + 1))
                       if all(_unread(r, f) for f in _FIELDS if (f + ".").startswith(s + ".")))
        if why:
            where = f"in {r['mode']} mode" if why == "mode" else f"with {why} = {r[why]}"
            raise ConfigurationError(f"{key} is not supported {where}")
    x_bound = d.x_bound  # None for the conserving kind
    if x_bound is not None:
        lam_x = abs(p.lam) * x_bound
        if not math.isfinite(lam_x / p.m):
            raise ConfigurationError(f"drive term |lambda| max|X| / m = {lam_x:g}/{p.m:g} "
                                     "is beyond the float range")
    if pde:
        madelung._setup(packet, p, d, r["numerics.dt"], steps, r["output.stride"])
    if r["mode"] != "pde":
        ermakov._setup(*_ode(r, p, d))
    return r


def _build(r: dict) -> tuple[PhysParams, DriveSpec]:
    """The parameters (omega_spec modulating params.omega) and drive of a resolved config."""
    return (PhysParams(m=r["params.m"], hbar=r["params.hbar"], omega=r["params.omega"],
                       lam=r["params.lambda"], tau=r["params.tau"],
                       eps=r["omega_spec.eps"], omega_m=r["omega_spec.omega_m"]),
            DriveSpec(kind=r["drive.kind"], x0=r["drive.x0"], freq=r["drive.freq"],
                      phase=r["drive.phase"], table=r["drive.table"]))


def build_params(cfg: dict) -> PhysParams:
    return _build(resolve(cfg))[0]


def build_drive(cfg: dict) -> DriveSpec:
    return _build(resolve(cfg))[1]


def _steps(r: dict) -> int:
    """numerics.t_end / numerics.dt, within 1e-9 (relative) of a whole number."""
    dt, t_end = r["numerics.dt"], r["numerics.t_end"]
    if not (dt > 0 and t_end > 0 and math.isfinite(t_end / dt)):
        raise ConfigurationError("numerics.dt and numerics.t_end must be positive "
                                 "and their ratio finite")
    return _whole_steps(t_end, dt, "numerics.t_end / numerics.dt")


def _makeable(directory: str) -> None:
    """Refuse, as a config error, a directory that cannot be made because its deepest
    existing ancestor is not a directory, with the error mkdir would give; make nothing."""
    path = Path(directory)
    ancestor = next((a for a in (path, *path.parents) if os.path.exists(a)), None)
    if ancestor is not None and not os.path.isdir(ancestor):
        code = errno.EEXIST if ancestor == path else errno.ENOTDIR
        raise ConfigurationError(f"cannot write {path}: {os.strerror(code)}")


@contextlib.contextmanager
def _output(path: Path):
    """`path` opened for writing, its directory made first; an OSError is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_csv(path: Path, columns: list[str], rows) -> None:
    """Write `rows`, tuples of one number per column, each number as %.17g."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with _output(path) as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)


def _ode(r: dict, params: PhysParams, drive: DriveSpec) -> tuple:
    """integrate's arguments for the ode side of an ode/compare run, its centroid read
    from init.q0 and qdot0 for the classical system, else init.xbar0 and xbardot0."""
    x = "q" if r["system"] == "classical" else "xbar"
    init = ErmakovState(0.0, r["init.alpha0"], r["init.alphadot0"],
                        r[f"init.{x}0"], r[f"init.{x}dot0"])
    return init, params, drive, r["numerics.t_end"], r["numerics.dt"], r["output.stride"]


def run_ode(r: dict) -> int:
    classical = r["system"] == "classical"
    x = "q" if classical else "xbar"
    traj = integrate(*_ode(r, *_build(r)))
    width = {"alpha": traj.alpha, "alphadot": traj.alphadot}
    centroid = {x: traj.x, x + "dot": traj.xdot}
    coords = {**centroid, **width} if classical else {**width, **centroid}
    cols = {"t": traj.t, **coords, "delta": traj.delta, "I": traj.invariant,
            "dIdt_analytic": traj.dIdt_analytic, "dIdt_numeric": traj.dIdt_numeric(),
            "X": traj.drive}
    write_csv(Path(r["output.directory"]) / "trajectory.csv", list(cols),
              zip(*cols.values()))
    return 0


def _packet(r: dict, params: PhysParams):
    """The initial packet of a pde/compare config on its grid; resolve checks it."""
    grid = Grid(r["numerics.grid.x_min"], r["numerics.grid.x_max"], r["numerics.grid.n"])
    return gaussian_packet(grid, r["init.xbar0"], r["init.delta0"],
                           xbardot0=r["init.xbardot0"],
                           width_rate0=r["init.width_rate0"], p=params)


def _evolve(r: dict):
    """The pde side of a pde/compare run: (final packet, observables)."""
    params, drive = _build(r)
    return evolve(_packet(r, params), params, drive, r["numerics.dt"], _steps(r),
                  record_stride=r["output.stride"])


def run_pde(r: dict) -> int:
    out = Path(r["output.directory"])
    final, obs = _evolve(r)
    cols = vars(obs)
    write_csv(out / "observables.csv", list(cols), zip(*cols.values()))
    if r["output.snapshots"]:
        write_csv(out / "fields_final.csv",
                  ["x", "re_psi", "im_psi", "rho"],
                  zip(final.grid.x, final.psi.real, final.psi.imag,
                      np.abs(final.psi) ** 2))
    return 0


def run_compare(r: dict) -> int:
    _, obs = _evolve(r)
    traj = integrate(*_ode(r, *_build(r)))
    cols = {"t": obs.t, "xbar_pde": obs.xbar, "xbar_ode": traj.x,
            "xbar_diff": obs.xbar - traj.x, "delta_pde": obs.delta,
            "delta_ode": traj.delta, "delta_diff": obs.delta - traj.delta,
            "norm": obs.norm, "excess_kurtosis": obs.excess_kurtosis}
    write_csv(Path(r["output.directory"]) / "compare.csv", list(cols), zip(*cols.values()))
    return 0


def run_verify(r: dict, scenario: dict) -> int:
    """Run every row of the acceptance criteria, which pin their own parameters;
    exit 3 if any fails.  The config, only validated, is echoed as given into report.json.
    Only verify loads the criteria, and the identity checks they call."""
    from .criteria import CRITERIA
    t0 = time.perf_counter()
    checks = [{"name": name, "value": value, "tolerance": bound, "pass": passed}
              for criterion in CRITERIA
              for name, value, bound, passed in criterion()]
    report = {
        "version": __version__,
        "scenario": scenario,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "wall_time_s": time.perf_counter() - t0,
    }
    with _output(Path(r["output.directory"]) / "report.json") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    for c in checks:
        tag = "PASS" if c["pass"] else "FAIL"
        print(f"{tag} {c['name']}: {c['value']:.3e} (tol {c['tolerance']:.1e})")
    return 0 if report["all_pass"] else 3


_MODES = {"ode": run_ode, "pde": run_pde, "compare": run_compare}


def _run_mode(run, *args) -> int:
    """run(*args), the one place an error becomes one stderr line and an exit code: a
    config error (a bad command line, config or value, an unwritable artifact) is exit
    1, a numerical failure exit 2.  main runs its whole command through it, sweep each run."""
    try:
        return run(*args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def _set_by_path(cfg: dict, dotted: str, value: float) -> None:
    """Set the field `dotted` of cfg to value.  Each section on its path is replaced
    by a copy (a missing one by a new dict), so a shallow copy of a config takes the
    value without changing the config it was copied from."""
    *sections, leaf = dotted.split(".")
    node = cfg
    for part in sections:
        section = node.get(part, {})
        if not isinstance(section, dict):
            raise ConfigurationError(f"cannot descend into {dotted!r}")
        node[part] = dict(section)
        node = node[part]
    node[leaf] = value


def sweep(config_path, parameter: str, values: list[float]) -> int:
    """Run the config once per value of `parameter` into <output>/<leaf>_<value:g>;
    return the largest exit code.  Every value is resolved before the first run, so no
    value, a bad one, or two that would write one directory, is a config error that runs
    nothing.  Then the values run in order in this process, each ending as `run` ends
    on its config."""
    if not values:
        raise ConfigurationError("--values lists no value")
    base_cfg = load_config(config_path)
    leaf = parameter.split(".")[-1]
    runs = {}
    for v in values:
        cfg = dict(base_cfg)  # resolve reads a config and never changes it
        _set_by_path(cfg, parameter, v)
        r = resolve(cfg)
        name = f"{leaf}_{v:g}"
        if name in runs:
            raise ConfigurationError(f"--values {runs[name][1]!r} and {v!r} "
                                     f"would both write {name}")
        r["output.directory"] = str(Path(r["output.directory"]) / name)
        _makeable(r["output.directory"])
        runs[name] = (r, v)
    return max([_run_mode(_MODES[r["mode"]], r) for r, _ in runs.values()])


class _Parser(argparse.ArgumentParser):  # its subparsers are _Parsers too
    def error(self, message):  # a usage error is a config error, not argparse's exit 2
        raise ConfigurationError(f"{self.prog}: {message}")


def _command(argv) -> int:
    """The command argv, parsed and run to its exit code; an error propagates."""
    parser = _Parser(prog="ermakov-lab",
                     description="Config-driven runs of the measured-oscillator laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the mode named in the config")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="fan a run out over one numeric field")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. params.tau")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_verify = sub.add_parser("verify", help="run the ten acceptance criteria")
    p_verify.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "sweep":
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ConfigurationError("--values must be comma-separated numbers") from None
        return sweep(args.config, args.param, values)
    cfg = load_config(args.config)
    r = resolve(cfg)
    if args.command == "verify":
        return run_verify(r, cfg)
    return _MODES[r["mode"]](r)


def main(argv=None) -> int:
    """The exit code of the command argv, sys.argv[1:] if None, each error, a bad
    command line included, reported by _run_mode; --help raises SystemExit(0)."""
    return _run_mode(_command, argv)


if __name__ == "__main__":
    sys.exit(main())
