"""The package's modules import only down one chain of layers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sinklap"

# each module may import only from modules of a lower rank
RANK = {
    "_rng": 0,
    "errors": 0,
    "csvio": 0,
    "manifold": 1,
    "noise": 2,
    "kernel": 3,
    "sinkhorn": 4,
    "laplacian": 5,
    "experiments": 6,
    "cli": 7,
}


def internal_imports(path):
    """The sinklap modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            package = "sinklap" if node.level == 1 else None
            dotted = ".".join(filter(None, [package, node.module]))
            names = [f"{dotted}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("sinklap."))
    return found & set(RANK)


def test_every_module_is_ranked():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_imports_point_down():
    upward = [
        f"{path.stem} imports {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
        for name in sorted(internal_imports(path))
        if RANK[name] >= RANK[path.stem]
    ]
    assert upward == []


def test_numerical_core_reads_no_dataset():
    # the kernel, its scalings and its Laplacians take points, matrices and
    # vectors; datasets and experiment choices live in the layers above
    allowed = {"errors", "kernel"}
    extra = [
        f"{module} imports {name}"
        for module in ("kernel", "sinkhorn", "laplacian")
        for name in sorted(internal_imports(SRC / f"{module}.py") - allowed)
    ]
    assert extra == []
