"""The package stays small: ``src/seqgames/*.py`` totals at most ``LINE_BUDGET`` lines.

A change that adds a capability pays for it elsewhere in the package; a
change that raises the budget says so, and why, in ``CHANGES.md``.
"""

from __future__ import annotations

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "seqgames"
LINE_BUDGET = 3279


def test_source_lines_stay_within_the_budget():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in sources}
    assert sum(lines.values()) <= LINE_BUDGET, lines
