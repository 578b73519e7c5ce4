"""Every imported name is read somewhere in its module, and so is every private
module-level name of the package: unused-import and dead-helper checks with ``ast`` alone.
The package never calls the builtin ``sum``, whose float rounding changed in Python 3.12."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/carbonopt/*.py"))
MODULES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each name an import binds that no expression reads.

    Names listed in ``__all__`` count as read (re-exports), and
    ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def unread_private_names(source: str) -> list[str]:
    """``line N: name`` for each ``_private`` name a module-level def, class or assignment
    binds that no expression of the module reads.

    Imports are left to ``unused_imports``; dunder names are not private.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_names_each_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp, sys\n"
        "import xml.dom\n"
        "from a import b as c, d, e\n"
        "__all__ = ['e']\n"
        "print(sys.argv, xml.dom, d)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: osp", "line 5: c"]


def builtin_sum_calls(source: str) -> list[str]:
    """``line N`` for each call of the builtin ``sum``.

    Since Python 3.12 it compensates float rounding, so its bits depend on
    the interpreter; method calls such as numpy's ``x.sum()`` are not counted.
    """
    return [
        f"line {node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_the_package_never_calls_the_builtin_sum(path):
    assert builtin_sum_calls(path.read_text(encoding="utf-8")) == []


def test_the_check_names_each_builtin_sum_call():
    source = (
        "import numpy as np\n"
        "total = sum([0.1, 0.2])\n"
        "x = np.ones(3).sum()\n"
        "y = np.sum(np.ones(3))\n"
        "z = (sum)(x for x in [1.0])\n"
        "w = sum(\n"
        "    [1.0])\n"
    )
    assert builtin_sum_calls(source) == ["line 2", "line 5", "line 6"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_private_helper_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_the_check_names_each_unread_private_name():
    source = (
        "import _thread as _t\n"
        "__version__ = '1'\n"
        "_CACHE = {}\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "_LIMIT: int = 4\n"
        "def _used():\n"
        "    return _CACHE, _b\n"
        "def _dead():\n"
        "    _local = _used()\n"
        "    return _local\n"
        "class _Old:\n"
        "    pass\n"
    )
    assert unread_private_names(source) == [
        "line 4: _a", "line 5: _LIMIT", "line 8: _dead", "line 11: _Old",
    ]
