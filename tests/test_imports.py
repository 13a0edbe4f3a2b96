"""The package's source read with `ast`: its internal import graph, the
modules written without `**`, and that none starts a process.

No module is imported here: the graph is built from every `import` and
`from ... import` statement in src/ermakov_lab, including those inside
function bodies.
"""
import ast
import graphlib
from pathlib import Path

PACKAGE = "ermakov_lab"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE
MODULES = {p.stem for p in SRC.glob("*.py")}


def _targets(node):
    """Package modules named by one import statement."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names]
        return {n[1] if len(n) > 1 else "__init__" for n in names if n[0] == PACKAGE}
    if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
        return set()
    path = (node.module or "").split(".")
    if node.level == 0:
        path = path[1:]
    if path and path[0]:
        return {path[0]}
    # `from . import name`: a submodule when one has that name, else __init__
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def import_graph():
    graph = {}
    for mod in MODULES:
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        graph[mod] = set().union(*(
            _targets(n) for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))))
    return graph


def test_graph_sees_the_known_edges():
    graph = import_graph()
    assert {"params", "errors"} <= graph["ermakov"]
    assert "madelung" in graph["cli"]


def test_import_graph_is_acyclic():
    order = list(graphlib.TopologicalSorter(import_graph()).static_order())
    assert set(order) >= MODULES


def test_params_and_madelung_do_not_import_ermakov():
    graph = import_graph()
    assert "ermakov" not in graph["params"]
    assert "ermakov" not in graph["madelung"]
    assert graph["madelung"] <= {"params", "errors"}


def test_solver_modules_have_no_power_operator():
    # `**` on a float raises OverflowError where a product gives inf, which the
    # solvers' finiteness checks report; a product is the one failure signal
    for mod in ("ermakov", "params", "madelung"):
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        powers = [n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
        assert powers == [], f"{mod}.py uses ** on lines {powers}"


def test_no_module_starts_processes():
    # no module imports process, pipe, shared-memory, signal or thread code, names
    # os.fork or os.pipe, or reads or sets the CPUs it may run on: every run and every
    # sweep is one process, whatever the CPU count.  Only cli imports os at all, for its
    # paths and ERMAKOV_LAB_OUT.
    banned = {"pickle", "mmap", "signal", "threading", "multiprocessing", "subprocess",
              "concurrent"}
    os_names = {"fork", "pipe", "cpu_count", "process_cpu_count", "sched_getaffinity",
                "sched_setaffinity"}
    for mod in MODULES:
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        names = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names}
        names |= {n.module.split(".")[0] for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) and n.level == 0}
        refused = banned if mod == "cli" else banned | {"os"}
        assert not names & refused, f"{mod}.py imports {sorted(names & refused)}"
        named = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr in os_names
                 or isinstance(n, ast.alias) and n.name in os_names]
        assert named == [], f"{mod}.py names one of {sorted(os_names)} on lines {named}"
