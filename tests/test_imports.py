"""Every imported name is read somewhere in its module: an unused-import check with ``ast`` alone."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/carbonopt/*.py"), *ROOT.glob("tests/*.py")])


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
