"""The README's library example runs and prints what it promises."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under '## Library example'"
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out == "Escalates(witness=Divergent(stem=('A0',), cycle=('B', 'A')))\n"
