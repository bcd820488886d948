"""Every name a module of the package imports is used in that module.

``__init__.py`` re-exports what it imports, and ``from __future__`` imports
are directives, so both are exempt.
"""
import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "nre")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\nd()\n") == ["line 2: b"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
