"""No line of the library is longer than 120 columns, so the net line count
of ``src/`` cannot fall by packing expressions onto long lines."""

from __future__ import annotations

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT = 120


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_line_over_120_columns(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > LIMIT]
    assert long == [], f"lines over {LIMIT} columns: {long}"
