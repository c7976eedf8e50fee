"""The ``REPRO_*`` environment knobs the library reads are exactly the rows
of the README "Environment knobs" table.

A knob added to ``src/`` without a README row, or a row left behind after
its knob was retired, fails here. ``REPRO_BENCH_JSON`` is read by the
benchmarks only, so it has a row but no reader under ``src/``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
BENCH_ONLY = {"REPRO_BENCH_JSON"}


def src_knobs() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(KNOB.findall(path.read_text()))
    return names


def readme_knobs() -> set[str]:
    text = (ROOT / "README.md").read_text()
    table = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\|\s*`(REPRO_[A-Z0-9_]+)`", table, re.M))


def test_src_knobs_match_readme_table():
    assert src_knobs() == readme_knobs() - BENCH_ONLY


def test_retired_block_knob_is_gone():
    assert "REPRO_BLOCK" not in src_knobs() | readme_knobs()
