"""Every function, class and method in ``src/naivea`` is reached from ``src``,
every module-level name bound there is read, and every public name has a
caller.

A definition counts as reached when ``src`` names it in code (a ``Name`` or
an ``Attribute``; a docstring does not count), when ``naivea.__all__`` lists
it, or when ``perfbench/layers.py`` hooks it. A module-level name bound by
an assignment counts as read when ``src`` loads it (a ``Name`` read, not
written, or an ``Attribute``), or on those same two lists. A name in
``naivea.__all__`` has a caller when ``src`` names it in code outside
``__init__.py``, or when README's Library section does. Dunders are exempt
from all three.
Code that only tests call belongs in ``tests/``, as ``oracles.py`` does.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

from test_perfbench_hooks import layers  # noqa: F401  (the fixture)

import naivea

SRC = Path(naivea.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def _dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def _walk(paths):
    """The definitions in ``paths``, as (where, name), and every name their
    code uses."""
    defined, named = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def _exempt(hooks):
    """The names reached from outside ``src``: the public ones, and those
    that ``hooks``, perfbench's layers module, patches."""
    return {*naivea.__all__, *(attr for _, attr, _ in hooks.Tracer().patches())}


def test_every_definition_is_referenced_in_src(layers):  # noqa: F811
    defined, named = _walk(sorted(SRC.rglob("*.py")))
    named.update(_exempt(layers))
    unreached = [(where, name) for where, name in defined
                 if name not in named and not _dunder(name)]
    assert not unreached


def test_every_module_level_name_is_read_in_src(layers):  # noqa: F811
    bound, loaded = [], _exempt(layers)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound += [(f"{path.name}:{stmt.lineno}", node.id) for target in targets
                          for node in ast.walk(target)
                          if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unread = [(where, name) for where, name in bound
              if name not in loaded and not _dunder(name)]
    assert not unread


def test_every_public_name_has_a_caller():
    _, named = _walk(path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py")
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    named.update(re.findall(r"\w+", library.split("\n## ", 1)[0]))
    uncalled = [name for name in naivea.__all__ if name not in named and not _dunder(name)]
    assert not uncalled
