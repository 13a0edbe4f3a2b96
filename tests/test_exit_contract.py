"""The CLI's exit contract as one property over every field of cli._FIELDS.

A run exits 0 with finite CSVs and nothing on stderr, 1 with one `config
error:` line and no output directory, or 2 with one `numerical failure:` line.
No other line and no Python warning may accompany any of them.  The strategy
is built from each field's conversion, so a new field is fuzzed without
editing this test.  Runs are in process, derandomized, about 3 s on two CPUs.
"""
import ast
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ermakov_lab import cli

POSITIVE = [1.0, 1e-8, 1e8, 1e-150, 1e150, 1e-300, 1e300]
# about 3 draws in 4 are positive: most fields refuse 0 and negative values
NUMBERS = st.sampled_from(POSITIVE * 3 + [0.0] + [-v for v in POSITIVE])
# numpy refuses 1e20 points before allocating; every other size is small
WHOLE = [0, 63, 64, 128, 1e20]
# set whenever the run reads them: the default grid of 1024 points is larger
# than this test needs, and the step sets the time scale of the run
ALWAYS = ("numerics.grid.n", "numerics.dt")
# whether another field that the run reads is set: once in 4 draws
OPTIONAL = st.sampled_from([True, False, False, False])


def _values(conv):
    """The values drawn for a field with conversion `conv`."""
    if conv is cli._number:
        return NUMBERS
    if conv is cli._whole:
        return st.sampled_from(WHOLE)
    if conv is cli._tau:
        return NUMBERS | st.just("inf")
    if conv is cli._pairs:
        return st.lists(st.tuples(NUMBERS, NUMBERS).map(list), max_size=4)
    # _one_of: its docstring lists the choices
    return st.sampled_from(ast.literal_eval(conv.__doc__.removeprefix("one of ") + ","))


def _reads(key, fields):
    """Whether a run reads `key`, given the fields set so far (defaults elsewhere)."""
    return all(fields.get(f, cli._FIELDS[f][1]) in values and _reads(f, fields)
               for f, values in cli._FIELDS[key][2].items())


@st.composite
def configs(draw):
    """Dotted key -> value: the required fields, ALWAYS, and each other field
    that the run reads as OPTIONAL draws."""
    fields = {}
    for key, (conv, default, _) in cli._FIELDS.items():
        if key in ("output.directory", "numerics.t_end") or not _reads(key, fields):
            continue  # the first two are set per run: a scratch directory, steps * dt
        if default is cli._REQUIRED or key in ALWAYS or draw(OPTIONAL):
            fields[key] = draw(_values(conv))
    return fields


@given(fields=configs(), steps=st.integers(1, 8))
@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
def test_every_config_keeps_the_exit_contract(fields, steps):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = {}
        fields = dict(fields, **{"output.directory": str(out),
                                 "numerics.t_end": steps * fields["numerics.dt"]})
        for dotted, value in fields.items():
            cli._set_by_path(cfg, dotted, value)
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as stray, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["run", str(path)])
        assert [str(w.message) for w in stray] == []
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            for csv in out.glob("*.csv"):
                data = np.loadtxt(csv, delimiter=",", skiprows=2, ndmin=2)
                assert np.all(np.isfinite(data)), csv.name
        elif code == 1:
            assert len(lines) == 1 and lines[0].startswith("config error: ")
            assert not out.exists()
        else:
            assert code == 2
            assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
