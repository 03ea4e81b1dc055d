"""Source hygiene: every module of the package uses each name it imports, and
every name the package exports is read by code a user runs."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "confmech"
# __init__ imports its names to re-export them
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
    """The names that source binds by `from ... import`, in source order."""
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


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
