"""README's library example runs as written, and every public name resolves."""
from __future__ import annotations

import re
from pathlib import Path

import naivea

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", library, flags=re.DOTALL)
    assert blocks, "README's Library section has no python example"
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_public_name_resolves():
    assert len(set(naivea.__all__)) == len(naivea.__all__)
    missing = [name for name in naivea.__all__ if not hasattr(naivea, name)]
    assert not missing
