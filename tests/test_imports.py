"""Source hygiene: every module of the package uses each name it imports, and
every name the package exports is read by code a user runs."""

import ast
import pathlib

import pytest

import confmech

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "confmech"
# __init__ holds the table of the names it re-exports, imported on first access
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# what a user runs: the package's other modules, the demos and the benchmark
READERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source):
    """The names that source binds by import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_a_dead_import():
    source = "import math\nimport os.path\nfrom collections import namedtuple, deque\nos.sep\ndeque()\n"
    assert unused_imports(source) == ["math", "namedtuple"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, "%s imports %s and never uses it" % (path.name, ", ".join(unused))


def exported_names(source):
    """The names that source binds by `from ... import` or lists in its _EXPORTS table {module: names}."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]:
            names += [name for group in ast.literal_eval(node.value).values() for name in group]
    return names


def test_exported_names_reads_imports_and_the_export_table():
    source = (
        "import math\nfrom .tensors import det, svd as singular_values\n"
        "_EXPORTS = {'fields': ('stress_field', 'jump_check'), 'gridplot': ('DiskRegion',)}\n"
        "_OTHER = {'tensors': ('sym',)}\n"
    )
    assert exported_names(source) == ["det", "singular_values", "stress_field", "jump_check", "DiskRegion"]


def test_the_export_table_is_what_the_package_serves():
    names = exported_names((SRC / "__init__.py").read_text())
    assert sorted(names) == sorted(confmech.__all__) and len(names) == len(set(names)) > 50
    listed = dir(confmech)
    for name in names:
        assert name in listed, name
        value = getattr(confmech, name)
        assert value is getattr(getattr(confmech, confmech._MODULE_OF[name]), name), name
    assert not hasattr(confmech, "no_such_name") and "no_such_name" not in listed


def read_names(source):
    """The names that source reads, as a Name or as the attribute of an Attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_read_names_sees_names_and_attributes():
    source = "import confmech as cm\nx = cm.svd(y)\nz.det = 1\n"
    assert read_names(source) == {"cm", "svd", "y", "z"}


def test_every_export_is_read_outside_the_tests():
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    unread = [name for name in exported_names((SRC / "__init__.py").read_text()) if name not in read]
    assert not unread, "confmech exports %s, which no module, demo or benchmark reads" % (
        ", ".join(unread)
    )


def strided_matmul_lines(source):
    """Lines of source where @ takes a np.swapaxes(...) or .T operand, or np.moveaxis is used.

    matmul is several times slower on such transposed views than on the
    C-contiguous copy tensors.transpose makes, with the same bits, and
    np.moveaxis costs several microseconds of Python where .transpose
    makes the same view.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            for side in (node.left, node.right):
                if isinstance(side, ast.Call):
                    side = side.func
                if isinstance(side, ast.Attribute) and side.attr in ("T", "swapaxes"):
                    lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "moveaxis":
            lines.add(node.lineno)
    return sorted(lines)


def test_strided_matmul_lines_finds_transposed_operands():
    source = (
        "a = np.swapaxes(F, -2, -1) @ F\nb = A @ G.T @ A\nc = np.moveaxis(x, 0, -1)\n"
        "d = transpose(F) @ F\ne = np.swapaxes(F, -2, -1) + F\n"
    )
    assert strided_matmul_lines(source) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_matmul_on_a_transposed_view(path):
    lines = strided_matmul_lines(path.read_text())
    assert not lines, "%s lines %s: use tensors.transpose or .transpose" % (path.name, lines)


def default_parameters(source):
    """{(callee, parameter): position} of each parameter with a default that source defines.

    A method is called on an instance, so its positions skip self, and
    __init__ is called under its class's name; a keyword-only parameter has
    position None.
    """
    tree = ast.parse(source)
    scopes = [(None, tree)] + [(n.name, n) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    found = {}
    for cls, scope in scopes:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            callee = cls if fn.name == "__init__" else fn.name
            args = fn.args
            names = [a.arg for a in args.posonlyargs + args.args][1 if cls else 0:]
            first = len(names) - len(args.defaults)
            found.update(((callee, name), i) for i, name in enumerate(names) if i >= first)
            found.update(
                ((callee, a.arg), None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            )
    return found


def calls(source):
    """(callee, positional count, keywords) of each call in source; a * or ** argument passes everything."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            out.append((callee, float("inf"), None))
        else:
            out.append((callee, len(node.args), {k.arg for k in node.keywords}))
    return out


def unset_defaults(defining, calling):
    """The (callee, parameter) pairs of the defining sources' defaults that no call in calling sets, sorted."""
    knobs = {}
    for source in defining:
        knobs.update(default_parameters(source))
    made = [call for source in calling for call in calls(source)]
    return sorted(
        (callee, name)
        for (callee, name), i in knobs.items()
        if not any(
            c == callee and (kw is None or name in kw or (i is not None and n > i)) for c, n, kw in made
        )
    )


def test_unset_defaults_finds_a_parameter_no_call_sets():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def __init__(self, x, y=0):\n        pass\n    def m(self, z=1):\n        pass\n"
        "f(0, 1)\nf(0, d=4)\nK(1)\nk.m(2)\n"
    )
    assert unset_defaults([source], [source]) == [("K", "y"), ("f", "c")]
    assert unset_defaults([source], [source + "g(*a)\nK(**kw)\nf(0, 1, 2)\n"]) == []


def test_every_default_is_set_by_a_call_outside_the_tests():
    unset = unset_defaults([p.read_text() for p in MODULES], [p.read_text() for p in READERS])
    assert not unset, "no call in src, demos or perfbench sets %s: make it a constant" % (
        ", ".join("%s(%s=)" % pair for pair in unset)
    )


# a library refusal is a ConfmechError, or the LeavesGLPlus that the rank-one scan
# catches; argparse prints the message of a type callback's ArgumentTypeError, and
# NotImplementedError marks the abstract EnergyModel.value
ALLOWED_RAISES = {"ConfmechError", "LeavesGLPlus", "ArgumentTypeError", "NotImplementedError"}


def _raised(node):
    """The class node that a raise statement names: the callee of raise X(...), or X."""
    return node.exc.func if isinstance(node.exc, ast.Call) else node.exc


def foreign_raises(source):
    """(line, name) of each raise in source of a class outside ALLOWED_RAISES; a bare raise passes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = _raised(node)
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name not in ALLOWED_RAISES:
                found.append((node.lineno, name))
    return sorted(found)


def test_foreign_raises_finds_other_exception_classes():
    source = (
        "def f(x):\n    if x:\n        raise ValueError('no')\n    raise ConfmechError('no')\n"
        "def g():\n    raise cm.NotInGLPlus\n    raise LeavesGLPlus('t') from None\n"
        "    raise argparse.ArgumentTypeError('bad')\n    raise\n"
    )
    assert foreign_raises(source) == [(3, "ValueError"), (6, "NotInGLPlus")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_refusal_is_a_confmech_error(path):
    found = foreign_raises(path.read_text())
    assert not found, "%s raises %s: raise ConfmechError" % (
        path.name, ", ".join("%s (line %d)" % (name, line) for line, name in found)
    )


def unused_classes(defining, readers):
    """The classes that defining defines and no reader reads, other than to raise them, in source order."""
    read = set()
    for source in readers:
        tree = ast.parse(source)
        raised = {id(_raised(n)) for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc is not None}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                if id(node) not in raised:
                    read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return [n.name for n in ast.parse(defining).body if isinstance(n, ast.ClassDef) and n.name not in read]


def test_unused_classes_skips_raises_and_counts_catches_and_reads():
    defining = "".join("class %s:\n    pass\n" % c for c in ("A(Exception)", "B(A)", "C(A)", "W(Warning)"))
    readers = [
        "try:\n    raise B('x')\nexcept A:\n    pass\n",
        "raise C\nraise m.C('y')\n",
        "warnings.warn('z', cm.W)\n",
    ]
    assert unused_classes(defining, readers) == ["B", "C"]


def test_every_exception_class_is_caught_or_read_outside_the_tests():
    readers = [p.read_text() for p in READERS if p.name != "exceptions.py"]
    unused = unused_classes((SRC / "exceptions.py").read_text(), readers)
    assert not unused, "exceptions.py defines %s, which no module, demo or benchmark catches or reads" % (
        ", ".join(unused)
    )
