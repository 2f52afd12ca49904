"""Every name a library module imports is used in that module, every
module-level private name is used somewhere in the library, and no library
line is longer than 99 characters.

An import statement with a line marked ``# noqa: F401`` is exempt, as with
flake8, but each name it imports must be one that the benchmark's span
tracer (``perfbench/tracer.py``, its ``_FUNCTIONS`` table) replaces on that
module, and that the module itself does not use: that is the only reason
such an import exists, and the check flags it once the tracer no longer
wraps the name or the module uses it (a stale marker).  The package
``__init__.py`` is skipped for unused imports: its imports are the
package's public names.  A private name is one with a leading underscore
that is not a dunder; a use is a load of the name, or of an attribute of
that name, in any top-level statement other than the one that defines it,
so a helper that only calls itself counts as unused.

``Task.spec = None`` likewise exists only for the tracer: its ``_fisher_key``
reads ``task.spec``.  The check flags that line once the tracer no longer
reads the attribute, and any library module that starts to read one.
"""

import ast
from pathlib import Path

import pytest

import recadamlab

SOURCES = sorted(Path(recadamlab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TASKS_PATH = Path(recadamlab.__file__).parent / "tasks.py"


def imported_names(source: str):
    """(line, name, marked) per name an import statement binds; marked: a
    line of the statement carries ``# noqa: F401``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line
                         for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0], marked


def used_names(source: str) -> set:
    return {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list:
    used = used_names(source)
    return [f"line {lineno}: {name}" for lineno, name, marked in imported_names(source)
            if not marked and name not in used]


def stale_marked_imports(source: str) -> list:
    """'line n: name' for each name a marked import binds that its module uses after all."""
    used = used_names(source)
    return [f"line {lineno}: {name}" for lineno, name, marked in imported_names(source)
            if marked and name in used]


def test_unused_import_is_found():
    source = "import os\nfrom json import dumps, loads  # noqa: F401\nimport re\nre.compile\n"
    assert unused_imports(source) == ["line 1: os"]


def test_stale_marked_import_is_found():
    source = ("from json import dumps, loads  # noqa: F401\nimport os  # noqa: F401\n"
              "import re\nre.compile(loads('1'))\n")
    assert stale_marked_imports(source) == ["line 1: loads"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_marked_import_is_used(path):
    assert stale_marked_imports(path.read_text()) == []


def spec_reads(source: str) -> list:
    """'line n' for each load of an attribute called spec in source."""
    return [f"line {lineno}" for lineno in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "spec"
        and isinstance(node.ctx, ast.Load))]


def test_spec_read_is_found():
    source = "task.spec = None\nkey = task.spec or 0\nspec = 1\nif (\n  t.spec):\n    pass\n"
    assert spec_reads(source) == ["line 2", "line 5"]


def _task_spec_line() -> int:
    [task] = [statement for statement in ast.parse(TASKS_PATH.read_text()).body
              if isinstance(statement, ast.ClassDef) and statement.name == "Task"]
    [line] = [statement.lineno for statement in task.body if isinstance(statement, ast.Assign)
              and [target.id for target in statement.targets] == ["spec"]]
    return line


def test_task_spec_is_read_by_the_tracer_alone():
    assert spec_reads(TRACER_PATH.read_text()), (
        f"perfbench/tracer.py reads no task.spec: delete tasks.py line {_task_spec_line()}")
    assert {p.name: spec_reads(p.read_text()) for p in SOURCES} == {p.name: [] for p in SOURCES}


def wrapped_attributes(tracer_source: str) -> dict:
    """Module name -> the attributes the tracer's _FUNCTIONS table replaces on
    it; each row is (layer, module, attribute, units)."""
    [table] = [statement.value for statement in ast.parse(tracer_source).body
               if isinstance(statement, ast.Assign)
               and [target.id for target in statement.targets] == ["_FUNCTIONS"]]
    wrapped = {}
    for row in table.elts:
        _, module, attr, _ = row.elts
        wrapped.setdefault(module.id, set()).add(attr.value)
    return wrapped


def unwrapped_marked_imports(sources: dict, wrapped: dict) -> list:
    """'module: line n: name' for each name a marked import of sources (file
    name -> source text) binds that wrapped does not list for its module."""
    return [f"{module}: line {lineno}: {name}" for module, source in sources.items()
            for lineno, name, marked in imported_names(source)
            if marked and name not in wrapped.get(Path(module).stem, ())]


def test_unwrapped_marked_import_is_found():
    tracer = ('from a import b\n_FUNCTIONS = (("x.f", b, "f", None), ("x.g", b, "g", len))\n'
              '_KEYS = {}\n')
    sources = {"b.py": "from x import f, h  # noqa: F401\nfrom x import g  # noqa: F401\n",
               "c.py": "from x import (\n    f, g,  # noqa: F401\n)\n"}
    assert wrapped_attributes(tracer) == {"b": {"f", "g"}}
    assert unwrapped_marked_imports(sources, wrapped_attributes(tracer)) == [
        "b.py: line 1: h", "c.py: line 1: f", "c.py: line 1: g"]


def test_every_marked_import_is_wrapped_by_the_tracer():
    wrapped = wrapped_attributes(TRACER_PATH.read_text())
    assert unwrapped_marked_imports({p.name: p.read_text() for p in SOURCES}, wrapped) == []


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


def test_no_line_is_longer_than_99_characters():
    long_lines = [f"{path.name}: line {lineno}" for path in SOURCES
                  for lineno, line in enumerate(path.read_text().splitlines(), start=1)
                  if len(line) > 99]
    assert long_lines == []
