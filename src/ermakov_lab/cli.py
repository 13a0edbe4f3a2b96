"""Configuration-driven experiment runner.

Subcommands:
  run <config.json>                      execute the mode named in the config
  sweep <config.json> --param P --values CSV   fan out over one numeric field
  verify <config.json>                   run the ten acceptance criteria

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 verification
failure.  The env var ERMAKOV_LAB_OUT overrides the output directory.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import CRITERIA
from .errors import ConfigurationError, ErmakovLabError
from .params import DriveSpec, OmegaSpec, PhysParams
from .ermakov import ErmakovState, alpha_from_delta, integrate
from .madelung import evolve, gaussian_packet, make_grid

CSV_HEADER = "# ermakov-lab csv v1; nondimensional units unless configured otherwise"

_ALLOWED = {
    "mode": None,
    "system": None,
    "params": {"m", "hbar", "omega", "lambda", "tau", "coeff_variant"},
    "omega_spec": {"omega0", "eps", "omega_m"},
    "drive": {"kind", "x0", "freq", "phase", "table"},
    "init": {"alpha0", "alphadot0", "xbar0", "xbardot0",
             "delta0", "width_rate0", "q0", "qdot0"},
    "numerics": {"dt", "t_end", "grid"},
    "output": {"directory", "stride", "snapshots"},
}
_GRID_KEYS = {"x_min", "x_max", "n"}


def _validate_keys(cfg: dict) -> None:
    for key, val in cfg.items():
        if key not in _ALLOWED:
            raise ConfigurationError(f"unknown config key {key!r}")
        sub = _ALLOWED[key]
        if sub is not None:
            if not isinstance(val, dict):
                raise ConfigurationError(f"config section {key!r} must be an object")
            for k2 in val:
                if k2 not in sub:
                    raise ConfigurationError(f"unknown config key {key}.{k2!r}")
            if key == "numerics" and "grid" in val:
                for k3 in val["grid"]:
                    if k3 not in _GRID_KEYS:
                        raise ConfigurationError(f"unknown config key numerics.grid.{k3!r}")


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    _validate_keys(cfg)
    if "mode" not in cfg:
        raise ConfigurationError("missing required field 'mode'")
    if "params" not in cfg or "tau" not in cfg["params"]:
        raise ConfigurationError("missing required field 'params.tau'")
    return cfg


def _num(block: dict, key: str, default, where: str, kind=float):
    """block[key] (default if absent) as a number, else a config error naming it."""
    val = block.get(key, default)
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{where}.{key} must be a number, got {val!r}") from None


def build_params(cfg: dict) -> PhysParams:
    p = cfg.get("params", {})
    if isinstance(p["tau"], str) and p["tau"].lower() in ("inf", "infinite", "infinity"):
        p = {**p, "tau": math.inf}
    return PhysParams(m=_num(p, "m", 1.0, "params"),
                      hbar=_num(p, "hbar", 1.0, "params"),
                      omega=_num(p, "omega", 1.0, "params"),
                      lam=_num(p, "lambda", 0.0, "params"),
                      tau=_num(p, "tau", None, "params"),
                      coeff_variant=p.get("coeff_variant", "consistent"))


def build_drive(cfg: dict) -> DriveSpec:
    d = cfg.get("drive", {"kind": "zero"})
    kind = d.get("kind", "zero")
    if kind == "tabulated":
        try:
            return DriveSpec.tabulated(d.get("table", []))
        except (TypeError, ValueError):
            raise ConfigurationError("drive.table must be a list of [t, X] pairs") from None
    return DriveSpec(kind=kind, x0=_num(d, "x0", 0.0, "drive"),
                     freq=_num(d, "freq", 0.0, "drive"),
                     phase=_num(d, "phase", 0.0, "drive"))


def build_omega_spec(cfg: dict, params: PhysParams) -> OmegaSpec | None:
    """The config's omega^2(t) schedule; None (constant params.omega) when absent."""
    w = cfg.get("omega_spec")
    if w is None:
        return None
    return OmegaSpec(omega0=_num(w, "omega0", params.omega, "omega_spec"),
                     eps=_num(w, "eps", 0.0, "omega_spec"),
                     omega_m=_num(w, "omega_m", 0.0, "omega_spec"))


def _init_width(init: dict, key: str) -> float:
    """The initial width init.<key> (default 1), which must be positive."""
    width = _num(init, key, 1.0, "init")
    if not width > 0:
        raise ConfigurationError(f"init.{key} must be positive")
    return width


def build_ermakov_init(cfg: dict, params: PhysParams,
                       centroid: str = "xbar") -> ErmakovState:
    """The initial state; its centroid is init.<centroid>0 and init.<centroid>dot0."""
    init = cfg.get("init", {})
    if "delta0" in init:
        alpha0 = alpha_from_delta(_init_width(init, "delta0"), params)
        scale = (params.hbar ** 2 / (4.0 * params.m ** 2)) ** 0.25
        alphadot0 = _num(init, "width_rate0", 0.0, "init") / scale
    else:
        alpha0 = _init_width(init, "alpha0")
        alphadot0 = _num(init, "alphadot0", 0.0, "init")
    return ErmakovState(t=0.0, alpha=alpha0, alphadot=alphadot0,
                        xbar=_num(init, centroid + "0", 1.0, "init"),
                        xbardot=_num(init, centroid + "dot0", 0.0, "init"))


def _system(cfg: dict) -> str:
    """The config's system, "measurement" (default) or "classical".

    The classical pair is the measurement system at tau = inf, lambda = 0 with
    a zero drive, so a classical config must say so; it runs only in ode mode.
    """
    system = cfg.get("system", "measurement")
    if system not in ("measurement", "classical"):
        raise ConfigurationError(
            f"system must be 'measurement' or 'classical', got {system!r}")
    if system == "classical":
        if cfg["mode"] != "ode":
            raise ConfigurationError("system 'classical' runs only in ode mode")
        params = build_params(cfg)
        if params.inv_tau != 0 or params.lam != 0 or build_drive(cfg).kind != "zero":
            raise ConfigurationError("system 'classical' needs params.tau = \"inf\", "
                                     "params.lambda absent or 0 and drive absent or zero")
    return system


def _steps(cfg: dict) -> tuple[float, float, int]:
    """numerics.dt, numerics.t_end and the whole number of steps between them.

    A t_end that is not within 1e-9 (relative) of a whole number of steps is
    a config error, so no run stops short of it.
    """
    num = cfg.get("numerics", {})
    dt = _num(num, "dt", 1e-3, "numerics")
    t_end = _num(num, "t_end", 10.0, "numerics")
    if not (dt > 0 and t_end > 0 and math.isfinite(t_end / dt)):
        raise ConfigurationError("numerics.dt and numerics.t_end must be positive "
                                 "and their ratio finite")
    n = t_end / dt
    steps = round(n)
    if abs(n - steps) > 1e-9 * n:
        raise ConfigurationError(f"numerics.t_end / numerics.dt = {n:.10g} "
                                 "is not a whole number of steps")
    return dt, t_end, steps


def _stride(cfg: dict) -> int:
    stride = _num(cfg.get("output", {}), "stride", 1, "output", int)
    if stride < 1:
        raise ConfigurationError("output.stride must be >= 1")
    return stride


def _out_dir(cfg: dict) -> Path:
    """The output directory; writers create it when they first write."""
    return Path(os.environ.get("ERMAKOV_LAB_OUT")
                or cfg.get("output", {}).get("directory", "out"))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_csv(path: Path, columns: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run_ode(cfg: dict) -> int:
    params = build_params(cfg)
    dt, t_end, _ = _steps(cfg)
    stride = _stride(cfg)
    classical = _system(cfg) == "classical"
    x = "q" if classical else "xbar"
    traj = integrate(build_ermakov_init(cfg, params, x), params, drive=build_drive(cfg),
                     omega_spec=build_omega_spec(cfg, params),
                     t_end=t_end, dt=dt, stride=stride)
    width = {"alpha": traj.alpha, "alphadot": traj.alphadot}
    centroid = {x: traj.x, x + "dot": traj.xdot}
    coords = {**centroid, **width} if classical else {**width, **centroid}
    cols = {"t": traj.t, **coords, "delta": traj.delta, "I": traj.invariant,
            "dIdt_analytic": traj.dIdt_analytic, "dIdt_numeric": traj.dIdt_numeric(),
            "X": traj.drive}
    write_csv(_out_dir(cfg) / "trajectory.csv", list(cols), zip(*cols.values()))
    return 0


def _pde_setup(cfg: dict):
    """Parameters, drive, initial packet, dt and step count of a pde/compare run."""
    _system(cfg)
    if "omega_spec" in cfg:
        raise ConfigurationError(f"omega_spec is not supported in {cfg['mode']} mode")
    params = build_params(cfg)
    drive = build_drive(cfg)
    init = cfg.get("init", {})
    delta0 = _init_width(init, "delta0")
    xbar0 = _num(init, "xbar0", 1.0, "init")
    gcfg = cfg.get("numerics", {}).get("grid", {})
    grid = make_grid(_num(gcfg, "x_min", xbar0 - 16 * delta0, "numerics.grid"),
                     _num(gcfg, "x_max", xbar0 + 16 * delta0, "numerics.grid"),
                     _num(gcfg, "n", 1024, "numerics.grid", int))
    packet = gaussian_packet(grid, xbar0, delta0,
                             xbardot0=_num(init, "xbardot0", 0.0, "init"),
                             width_rate0=_num(init, "width_rate0", 0.0, "init"),
                             p=params)
    dt, _, steps = _steps(cfg)
    return params, drive, packet, dt, steps


def run_pde(cfg: dict) -> int:
    stride = _stride(cfg)
    out = _out_dir(cfg)
    params, drive, packet, dt, steps = _pde_setup(cfg)
    final, obs = evolve(packet, params, drive, dt, steps, record_stride=stride)
    write_csv(out / "observables.csv",
              ["t", "norm", "xbar", "delta", "excess_kurtosis", "k_t"],
              ((o.t, o.norm, o.xbar, o.delta, o.excess_kurtosis, o.k_t) for o in obs))
    if cfg.get("output", {}).get("snapshots", False):
        write_csv(out / "fields_final.csv",
                  ["x", "re_psi", "im_psi", "rho"],
                  zip(final.grid.x, final.psi.real, final.psi.imag,
                      np.abs(final.psi) ** 2))
    return 0


def run_compare(cfg: dict) -> int:
    stride = _stride(cfg)
    out = _out_dir(cfg)
    params, drive, packet, dt, steps = _pde_setup(cfg)
    _, obs = evolve(packet, params, drive, dt, steps, record_stride=stride)
    traj = integrate(build_ermakov_init(cfg, params), params, drive=drive,
                     t_end=steps * dt, dt=dt, stride=stride)
    n = min(len(obs), len(traj))
    rows = []
    for i in range(n):
        o = obs[i]
        rows.append((o.t, o.xbar, traj.x[i], o.xbar - traj.x[i],
                     o.delta, traj.delta[i], o.delta - traj.delta[i],
                     o.norm, o.excess_kurtosis))
    write_csv(out / "compare.csv",
              ["t", "xbar_pde", "xbar_ode", "xbar_diff",
               "delta_pde", "delta_ode", "delta_diff",
               "norm", "excess_kurtosis"], rows)
    return 0


def run_verify(cfg: dict) -> int:
    """Run every row of the acceptance criteria; exit 3 if any fails.

    The criteria run at their own pinned parameters; the config's params are
    only validated, and the config is echoed into report.json.
    """
    build_params(cfg)
    t0 = time.perf_counter()
    checks = [{"name": name, "value": value, "tolerance": bound, "pass": passed}
              for criterion in CRITERIA
              for name, value, bound, passed in criterion()]
    report = {
        "version": __version__,
        "scenario": cfg,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "wall_time_s": time.perf_counter() - t0,
    }
    path = _out_dir(cfg) / "report.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    for c in checks:
        tag = "PASS" if c["pass"] else "FAIL"
        print(f"{tag} {c['name']}: {c['value']:.3e} (tol {c['tolerance']:.1e})")
    return 0 if report["all_pass"] else 3


_MODES = {"ode": run_ode, "pde": run_pde, "compare": run_compare, "verify": run_verify}


def _run_mode(cfg: dict) -> int:
    """Run the config's mode; a numerical failure is one stderr line and exit 2."""
    mode = cfg["mode"]
    if mode not in _MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    try:
        return _MODES[mode](cfg)
    except ConfigurationError:
        raise
    except ErmakovLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def _set_by_path(cfg: dict, dotted: str, value: float) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(f"cannot descend into {dotted!r}")
    node[parts[-1]] = value


def sweep(config_path, parameter: str, values: list[float]) -> int:
    try:
        base_cfg = load_config(config_path)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    base_out = os.environ.get("ERMAKOV_LAB_OUT") \
        or base_cfg.get("output", {}).get("directory", "out")
    worst = 0
    for v in values:
        cfg = copy.deepcopy(base_cfg)
        try:
            _set_by_path(cfg, parameter, v)
        except ConfigurationError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        leaf = parameter.split(".")[-1]
        cfg.setdefault("output", {})["directory"] = str(
            Path(base_out) / f"{leaf}_{v:g}")
        env_saved = os.environ.pop("ERMAKOV_LAB_OUT", None)
        try:
            _validate_keys(cfg)
            code = _run_mode(cfg)
        except ConfigurationError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        finally:
            if env_saved is not None:
                os.environ["ERMAKOV_LAB_OUT"] = env_saved
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ermakov-lab",
                                     description="Config-driven runs of the "
                                     "measured-oscillator laboratory")
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
            print("config error: --values must be comma-separated numbers",
                  file=sys.stderr)
            return 1
        return sweep(args.config, args.param, values)
    try:
        cfg = load_config(args.config)
        if args.command == "verify":
            cfg["mode"] = "verify"
        return _run_mode(cfg)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
