"""The package's modules import only down one chain of layers, and each
rule that several callers need lives in one of them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sinklap"

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


def test_sweep_slope_branches_have_one_owner():
    # which grid points each slope branch fits is experiments.sweep_slopes'
    # rule; a caller that fits slopes itself restates it
    def calls_slope_fit(path):
        return any(
            isinstance(node, ast.Call)
            and "slope_fit" in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text()))
        )

    callers = [
        f"{path.stem} calls slope_fit"
        for path in sorted([*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py")])
        if path.stem != "experiments" and calls_slope_fit(path)
    ]
    assert callers == []


def test_products_with_the_kernel_have_one_helper():
    # kernel._matvec multiplies in A's precision; a bare @ of a float32 A
    # and a float64 vector multiplies through an n x n float64 copy of A
    def multiplies(path):
        tree = ast.parse(path.read_text())
        return any(isinstance(node, ast.MatMult) for node in ast.walk(tree))

    bare = [module for module in ("sinkhorn", "laplacian")
            if multiplies(SRC / f"{module}.py")]
    assert bare == []
