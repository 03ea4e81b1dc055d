"""Source hygiene: every module of the package uses each name it imports."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "confmech"
# __init__ imports its names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
