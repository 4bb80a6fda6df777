"""Every function, class and method in ``src/naivea`` is reached from ``src``.

A definition counts as reached when ``src`` names it in code (a ``Name`` or
an ``Attribute``; a docstring does not count), when ``naivea.__all__`` lists
it, or when ``perfbench/layers.py`` hooks it. Dunder methods are exempt.
Code that only tests call belongs in ``tests/``, as ``oracles.py`` does.
"""
from __future__ import annotations

import ast
from pathlib import Path

from test_perfbench_hooks import layers  # noqa: F401  (the fixture)

import naivea

SRC = Path(naivea.__file__).resolve().parent


def test_every_definition_is_referenced_in_src(layers):  # noqa: F811
    defined, named = [], set(naivea.__all__)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    named.update(attr for _, attr, _ in layers.Tracer().patches())
    unreached = [
        (where, name) for where, name in defined
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unreached
