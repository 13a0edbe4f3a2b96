"""Correctness checks on the files one operation leaves behind.

Each check returns None when the operation's output is correct, or a short
reason.  The bounds on norm drift, excess kurtosis, the PDE-ODE gap and the
conserving-drive invariant range are the acceptance-suite bounds (criteria
6, 5, 4a and 3).  ODE endpoints are compared with the benchmark's own
reference integration (workloads.reference_endpoint).
"""
from __future__ import annotations

import math
from pathlib import Path

NORM_DRIFT = 1e-6        # criterion 6
EXCESS_KURTOSIS = 1e-3   # criterion 5
PDE_ODE_GAP = 1e-3       # criterion 4a
INVARIANT_RANGE = 1e-6   # criterion 3
ENDPOINT_TOL = 1e-7      # RK4 at dt against RK4 at dt/2, scaled by max(1, |ref|)
SNAPSHOT_NORM_TOL = 1e-12


def read_csv(path) -> dict[str, list[float]]:
    lines = Path(path).read_text().splitlines()
    if len(lines) < 3 or not lines[0].startswith("#"):
        raise ValueError("no header or no rows")
    cols = lines[1].split(",")
    data = {c: [] for c in cols}
    for line in lines[2:]:
        vals = line.split(",")
        if len(vals) != len(cols):
            raise ValueError("partial row")
        for c, v in zip(cols, vals):
            data[c].append(float(v))
    return data


def _max_abs(xs, shift=0.0):
    return max(abs(x - shift) for x in xs)


def _check_ode(op, d):
    if len(d["t"]) != op["rows"]:
        return f"{len(d['t'])} rows, expected {op['rows']}"
    end = [d[c][-1] for c in ("alpha", "alphadot", "xbar", "xbardot")]
    for name, got, ref in zip(("alpha", "alphadot", "xbar", "xbardot"), end, op["reference"]):
        if not abs(got - ref) <= ENDPOINT_TOL * max(1.0, abs(ref)):
            return f"endpoint {name}={got!r}, reference {ref!r}"
    if op["config"] == "ode_conserving":
        inv = d["I"]
        rng = (max(inv) - min(inv)) / inv[0]
        if not rng <= INVARIANT_RANGE:
            return f"invariant range {rng:.3e} > {INVARIANT_RANGE}"
    return None


def _check_pde_moments(d):
    drift = _max_abs(d["norm"], 1.0)
    if not drift <= NORM_DRIFT:
        return f"norm drift {drift:.3e} > {NORM_DRIFT}"
    kurt = _max_abs(d["excess_kurtosis"])
    if not kurt <= EXCESS_KURTOSIS:
        return f"excess kurtosis {kurt:.3e} > {EXCESS_KURTOSIS}"
    return None


def _check_compare(op, d):
    if len(d["t"]) != op["rows"]:
        return f"{len(d['t'])} rows, expected {op['rows']}"
    gap = max(_max_abs(d["xbar_diff"]), _max_abs(d["delta_diff"]))
    if not gap <= PDE_ODE_GAP:
        return f"PDE-ODE gap {gap:.3e} > {PDE_ODE_GAP}"
    return _check_pde_moments(d)


def _check_pde(op, d):
    if len(d["t"]) != op["rows"]:
        return f"{len(d['t'])} rows, expected {op['rows']}"
    bad = _check_pde_moments(d)
    if bad:
        return bad
    f = read_csv(op["fields"])
    x = f["x"]
    if len(x) != op["n"]:
        return f"snapshot has {len(x)} points, expected {op['n']}"
    snap = math.fsum(f["rho"]) * op["dx"]
    if not abs(snap - d["norm"][-1]) <= SNAPSHOT_NORM_TOL:
        return f"snapshot norm {snap!r} != final recorded norm {d['norm'][-1]!r}"
    return None


_CHECKS = {"ode": _check_ode, "compare": _check_compare, "pde": _check_pde}


def check(op: dict) -> str | None:
    """None if the operation's output files are present, whole and correct."""
    try:
        d = read_csv(op["csv"])
        if not all(math.isfinite(v) for col in d.values() for v in col):
            return "non-finite value"
        return _CHECKS[op["kind"]](op, d)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
