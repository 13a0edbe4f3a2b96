"""Spans around the lab's public entry points, recorded from outside the lab.

`Tracer.install()` replaces each traced name where the lab looks it up
(module globals, the `DriveSpec.value` method and `numpy.fft.fft/ifft`) with
a timing wrapper; `uninstall()` puts the originals back.

Calls made once per pass or per operation keep a full span: name, start,
end, parent span id and run id.  Calls made per step or per stage are
aggregated into a count and a total time, so memory stays bounded however
long a pass runs.  Either kind charges its duration to the enclosing call,
which gives every layer its self time.
"""
from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

# (span name, module path, attribute): kept as full spans.
SPANNED = (
    ("cli.main", "ermakov_lab.cli", "main"),
    ("cli.load_config", "ermakov_lab.cli", "load_config"),
    ("cli.write_csv", "ermakov_lab.cli", "write_csv"),
    ("ermakov.integrate", "ermakov_lab.cli", "integrate"),
    ("madelung.evolve", "ermakov_lab.cli", "evolve"),
)
# Aggregated per-step calls.
AGGREGATED = (
    ("ermakov.measurement_rhs", "ermakov_lab.ermakov", "measurement_rhs"),
    ("madelung.observables", "ermakov_lab.madelung", "observables"),
    ("params.DriveSpec.value", "ermakov_lab.params", "DriveSpec.value"),
    ("madelung.fft", "numpy.fft", "fft"),
    ("madelung.fft", "numpy.fft", "ifft"),
)


def _resolve(module_path: str, attr: str):
    import importlib

    owner = importlib.import_module(module_path)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class _CountingRows:
    """Pass-through iterator that counts the rows `write_csv` consumes."""

    def __init__(self, rows):
        self._it = iter(rows)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._it)
        self.n += 1
        return row


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []            # dicts: id, name, start, end, parent, run, self_s
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)   # steps, rows, bytes
        self._ids = 0
        self._stack = []           # frames: [span id or None, child seconds]
        self._saved = []

    # -- recording -------------------------------------------------------
    def _leave(self, name, frame, start, end, spanned):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[1]
        if spanned:
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            self.spans.append({"id": frame[0], "name": name, "start": start,
                               "end": end, "parent": parent, "run": self.run_id,
                               "self_s": dur - frame[1]})

    def _spanned(self, name, fn):
        tracer = self
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            tracer._ids += 1
            frame = [tracer._ids, 0.0]
            tracer._stack.append(frame)
            counter = None
            if name == "cli.write_csv":
                b = sig.bind(*args, **kwargs)
                counter = _CountingRows(b.arguments["rows"])
                b.arguments["rows"] = counter
                args, kwargs = b.args, b.kwargs
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._leave(name, frame, start, end, True)
                tracer._count(name, sig, args, kwargs, counter)
        return wrapper

    def _aggregated(self, name, fn):
        tracer = self
        perf = time.perf_counter

        if name == "madelung.fft":
            def wrapper(*args, **kwargs):
                frame = [None, 0.0]
                tracer._stack.append(frame)
                start = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._leave(name, frame, start, perf(), False)
                tracer.counts["madelung.fft.bytes"] += args[0].nbytes + out.nbytes
                return out
        else:
            def wrapper(*args, **kwargs):
                frame = [None, 0.0]
                tracer._stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._leave(name, frame, start, perf(), False)
        return wrapper

    def _count(self, name, sig, args, kwargs, counter):
        if name == "cli.write_csv":
            b = sig.bind(*args, **kwargs)
            self.counts["cli.write_csv.rows"] += counter.n
            path = b.arguments["path"]
            if os.path.exists(path):
                self.counts["cli.write_csv.bytes"] += os.path.getsize(path)
        elif name in ("ermakov.integrate", "madelung.evolve"):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            if name == "ermakov.integrate":
                steps = int(round((a["t_end"] - a["init"].t) / a["dt"]))
            else:
                steps = int(a["steps"])
            self.counts[name.split(".")[0] + ".steps"] += steps

    # -- patching --------------------------------------------------------
    def install(self):
        for specs, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregated)):
            for name, module_path, attr in specs:
                owner, leaf = _resolve(module_path, attr)
                orig = owner.__dict__[leaf]
                self._saved.append((owner, leaf, orig))
                setattr(owner, leaf, make(name, orig))

    def uninstall(self):
        while self._saved:
            owner, leaf, orig = self._saved.pop()
            setattr(owner, leaf, orig)

    # -- results ---------------------------------------------------------
    def totals(self) -> dict:
        """Calls, total and self seconds per traced name, plus the counts."""
        out = dict(self.counts)
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out
