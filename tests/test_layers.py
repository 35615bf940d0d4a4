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


def calls(path, name):
    """Whether a source file calls name, bare or as an attribute."""
    return any(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_command_line_opens_no_file():
    # artifacts are written through csvio and option files read by
    # argparse, so a hand-written reader or writer in cli.py is a second one
    assert not calls(SRC / "cli.py", "open")


def test_padded_cloud_has_one_builder():
    # a noisy dataset is its clean rows plus its outlier rows, and only
    # Dataset.points pads the clean rows to the n x m cloud; any other
    # module that calls embed_ambient builds that cloud again
    callers = [f"{path.stem} calls embed_ambient" for path in sorted(SRC.glob("*.py"))
               if path.stem != "manifold" and calls(path, "embed_ambient")]
    assert callers == []


def test_dataset_has_one_form():
    # a dataset's flags and noise vectors xi are arrays for clean and
    # noisy data alike, so no reader branches on a None state; and xi is
    # stored, so no module other than manifold subtracts the clean points
    # from an outlier array to rebuild it
    fields = {"outlier_flags", "outlier_offsets"}

    def names_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    def reads(node, attr):
        return any(isinstance(sub, ast.Attribute) and sub.attr == attr
                   for sub in ast.walk(node))

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                compared = {side.attr for side in sides if isinstance(side, ast.Attribute)}
                if compared & fields and any(names_none(side) for side in sides):
                    found.append(f"{path.stem} compares {sorted(compared & fields)} with None")
            subtrahend = (node.right if isinstance(node, ast.BinOp)
                          else node.value if isinstance(node, ast.AugAssign) else None)
            if (path.stem != "manifold" and isinstance(getattr(node, "op", None), ast.Sub)
                    and reads(subtrahend, "clean_points")):
                found.append(f"{path.stem} subtracts clean_points")
    assert found == []


def test_sweep_slope_branches_have_one_owner():
    # which grid points each slope branch fits is experiments.sweep_slopes'
    # rule; a caller that fits slopes itself restates it
    callers = [
        f"{path.stem} calls slope_fit"
        for path in sorted([*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py")])
        if path.stem != "experiments" and calls(path, "slope_fit")
    ]
    assert callers == []


def test_products_with_the_kernel_have_one_helper():
    # kernel._matvec is the one product with A's stored triangle, in A's
    # precision, and a row sum is the product A 1, so no @ or .sum( reads
    # A by a second rule
    def reads_apart(path):
        return any(
            isinstance(node, ast.MatMult)
            or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sum"
            for node in ast.walk(ast.parse(path.read_text()))
        )

    bare = [module for module in ("sinkhorn", "laplacian")
            if reads_apart(SRC / f"{module}.py")]
    assert bare == []


def test_only_the_kernel_reads_the_stored_triangle():
    # A = diag(w) B diag(w) is stored as B's triangle (``data``) and w
    # (``weights``), and kernel._matvec is the one product with A: a
    # module that reads either could multiply by B and skip the factor
    fields = {"data", "weights"}
    found = [
        f"{path.stem} reads .{node.attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "kernel"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
    assert found == []


def test_products_take_the_affinity():
    # an Affinity is A's stored triangle itself, and kernel._matvec takes
    # it as it is: no module reaches through it for a .packed part or
    # holds one apart from it as packed
    found = [
        f"{path.stem} reads packed"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "packed"
        or isinstance(node, ast.Name) and node.id == "packed"
    ]
    assert found == []


def test_only_the_kernel_names_a_precision():
    # kernel.py stores A and so owns its precision: which dtype B takes,
    # the range checks of a float32 triangle and the roundoff of its
    # products (kernel._roundoff); a module that names finfo or float32
    # in code makes a precision decision beside it
    # in code: a name, an attribute or a string such as dtype="float32",
    # not the words of a docstring
    def named(node):
        if isinstance(node, ast.Constant):
            return node.value
        return getattr(node, "id", None) or getattr(node, "attr", None)

    found = [
        f"{path.stem} names {named(node)}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "kernel"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute, ast.Constant))
        and named(node) in ("finfo", "float32")
    ]
    assert found == []


def test_no_range_error_is_silenced():
    # float32's range is judged on the exponents before exp
    # (kernel._fill_kernel), so no module lets an overflow or underflow
    # pass in silence; the command line's errstate(invalid=...) only lets
    # a non-finite grid through to the library's rule, which names it
    found = [
        f"{path.stem} silences {keyword.arg}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate"
        for keyword in node.keywords
        if keyword.arg in ("all", "over", "under")
    ]
    assert found == []


def raised_texts(tree):
    """The string arguments of each raised exception, a formatted value
    read as {}."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or not isinstance(node.exc, ast.Call):
            continue
        for arg in node.exc.args:
            if isinstance(arg, ast.JoinedStr):
                yield "".join(v.value if isinstance(v, ast.Constant) else "{}"
                              for v in arg.values)
            elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield arg.value


def test_input_rules_have_one_owner():
    # errors.py owns the input rules and every other module calls the
    # owner; the command line only turns option text into values, so a
    # range check of its own ("must be >= ") restates a rule too
    def restates_a_rule(text):
        return (text.endswith(("must be positive and finite", "must be finite and >= 0",
                               "must be finite"))
                or "must lie in [0, 1" in text
                or "must be an integer >=" in text
                or "must be >= " in text
                or text.startswith("unknown "))

    def imports_numbers(tree):
        return any(
            isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "numbers"
            for node in ast.walk(tree)
        )

    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "errors":
            continue
        tree = ast.parse(path.read_text())
        found += [f"{path.stem} raises {text!r}"
                  for text in sorted(set(raised_texts(tree))) if restates_a_rule(text)]
        if imports_numbers(tree):
            found.append(f"{path.stem} imports numbers")
    assert found == []


def test_every_definition_is_named_elsewhere():
    # a module-level function or class that no other line of the package
    # names is reached only from the tests, or from nowhere: library code
    # that no library path runs
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unnamed = [name for name in defined if name.split(".")[1] not in named]
    assert unnamed == []
