"""Every imported name is read somewhere in its module, and so is every private
module-level name and private class attribute of the package: unused-import, dead-helper
and dead-state checks with ``ast`` alone. The package never calls the builtin ``sum``,
whose float rounding changed in Python 3.12, and no class of it mutates state held on the
class itself, which every run in a process would share."""

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


def unread_private_attributes(source: str) -> list[str]:
    """``line N: Class.name`` for each ``_private`` method, class-level name or ``self._x``
    attribute a class of the module binds that no attribute load of the module reads.

    Reads are matched by attribute name alone (``obj._x`` for any ``obj``), so the check
    never flags state that is read; dunder names are not private.
    """
    tree = ast.parse(source)
    bound: dict[str, tuple[int, str]] = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                bound.setdefault(name, (node.lineno, cls.name))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                bound.setdefault(node.attr, (node.lineno, cls.name))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {cls}.{name}" for name, (line, cls) in sorted(bound.items(), key=lambda x: x[1])
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_private_attribute_is_read(path):
    assert unread_private_attributes(path.read_text(encoding="utf-8")) == []


def test_the_check_names_each_unread_private_attribute():
    source = (
        "class Market:\n"
        "    _LIMIT = 4\n"
        "    _UNUSED: int = 5\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "        self._priced = None\n"
        "        self.public = self._LIMIT\n"
        "        self._held = 0\n"
        "    def _used(self):\n"
        "        return self._cache\n"
        "    def _dead(self):\n"
        "        self._held += 1\n"
        "    def run(self):\n"
        "        return self._used(), other._seen\n"
    )
    assert unread_private_attributes(source) == [
        "line 3: Market._UNUSED", "line 6: Market._priced", "line 8: Market._held",  # only written
        "line 11: Market._dead",
    ]


MUTATORS = {"pop", "append", "update", "setdefault", "clear", "extend", "add", "insert", "remove",
            "discard", "popitem"}


def class_state_mutations(source: str) -> list[str]:
    """``line N: Class.name`` for each mutation of a class-level name through ``cls.`` or the
    class's own name: a subscript store or delete, or a call of a mutating method on it.

    State kept on a class outlives every instance and is shared by every run in the
    process, so runs that should be independent could see each other's entries.
    """
    tree = ast.parse(source)

    def mutated(node) -> ast.expr | None:
        """What ``node`` mutates in place, if it is a subscript store or delete or a mutator call."""
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            return node.value
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            return node.func.value
        return None

    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = {
            target.id for node in cls.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        # through the class's name anywhere in the module, through ``cls`` in its body
        for scope, owner in ((tree, cls.name), (cls, "cls")):
            for node in ast.walk(scope):
                target = mutated(node)
                if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                        and target.value.id == owner and target.attr in names):
                    found.add((node.lineno, f"{cls.name}.{target.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_class_mutates_state_held_on_it(path):
    assert class_state_mutations(path.read_text(encoding="utf-8")) == []


def test_the_check_names_each_class_state_mutation():
    source = (
        "class Cache:\n"
        "    _recent = {}\n"
        "    _seen: list = []\n"
        "    LIMIT = 8\n"
        "    def __init__(self):\n"
        "        self._own = {}\n"
        "        self._own['a'] = 1\n"              # an instance's own state
        "        self._recent['b'] = 2\n"           # through self: not this check's
        "    @classmethod\n"
        "    def of(cls, key):\n"
        "        if len(cls._recent) == cls.LIMIT:\n"
        "            cls._recent.pop(next(iter(cls._recent)))\n"
        "        held = cls._recent[key] = cls()\n"
        "        cls._recent.get(key)\n"            # a read
        "        Cache._seen.append(key)\n"
        "        del Cache._recent[key]\n"
        "        cls._other['x'] = 1\n"             # not a class-level name
        "        other._seen.append(key)\n"         # not through the class
        "        return held\n"
    )
    assert class_state_mutations(source) == [
        "line 12: Cache._recent", "line 13: Cache._recent", "line 15: Cache._seen",
        "line 16: Cache._recent",
    ]
