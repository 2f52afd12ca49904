"""Every name a library module imports is used in that module.

An import statement with a line marked ``# noqa: F401`` is exempt, as with
flake8.  The package ``__init__.py`` is skipped: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

import recadamlab

MODULES = sorted(p for p in Path(recadamlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_unused_import_is_found():
    source = "import os\nfrom json import dumps, loads  # noqa: F401\nimport re\nre.compile\n"
    assert unused_imports(source) == ["line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
