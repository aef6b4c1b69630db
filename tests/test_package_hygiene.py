"""Every module-level import of the package modules is used.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import anovafourier

MODULES = sorted(p for p in Path(anovafourier.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\nos.sep\nc()\n") \
        == ["sys", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
