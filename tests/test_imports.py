"""Every name a library module imports is used in that module, and every
module-level private name is used somewhere in the library.

An import statement with a line marked ``# noqa: F401`` is exempt, as with
flake8.  The package ``__init__.py`` is skipped for imports: its imports are
the package's public names.  A private name is one with a leading underscore
that is not a dunder; a use is a load of the name, or of an attribute of
that name, in any top-level statement other than the one that defines it, so
a helper that only calls itself counts as unused.
"""

import ast
from pathlib import Path

import pytest

import recadamlab

SOURCES = sorted(Path(recadamlab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def _defined_names(statement) -> list:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def unused_private_names(sources: dict) -> list:
    """'module: name' for each module-level private name of sources (module
    name -> source text) that no other top-level statement of any module loads."""
    statements = [(module, statement) for module, source in sources.items()
                  for statement in ast.parse(source).body]
    loads = [{node.id for node in ast.walk(statement)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             | {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
             for _, statement in statements]
    unused = []
    for i, (module, statement) in enumerate(statements):
        for name in _defined_names(statement):
            private = name.startswith("_") and not name.endswith("__")
            if private and not any(name in used for j, used in enumerate(loads) if j != i):
                unused.append(f"{module}: {name}")
    return unused


def test_unused_private_name_is_found():
    sources = {"a.py": "_A, _B = 1, 2\n_left: int = 3\ndef _loop():\n    return _loop()\n",
               "b.py": "from a import _A\nimport a\nprint(_A, a._B)\n__all__ = []\n"}
    assert unused_private_names(sources) == ["a.py: _left", "a.py: _loop"]


def test_every_private_name_is_used():
    assert unused_private_names({p.name: p.read_text() for p in SOURCES}) == []
