"""Structured reports of the shipped problems against golden digests.

Every engine speedup must leave the reports byte-identical.  The digests in
report_goldens.json are sha256 of `ovc <command> <problem> --format
structured` for each shipped problem except the acceptance battery
(selftest), which runs every criterion of ``tests/test_acceptance.py`` and
whose verdicts on criteria 1 and 6 hang on wall-clock gates.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ovc.cli import emit_report, run_command
from ovc.problems import parse_problem

HERE = Path(__file__).resolve().parent
PROBLEMS = HERE.parent / "problems"
GOLDENS = json.loads((HERE / "report_goldens.json").read_text())


def _shipped():
    out = {}
    for path in sorted(PROBLEMS.glob("*.ovc")):
        text = path.read_text(encoding="utf-8")
        if "\ncommand selftest" not in "\n" + text:
            out[path.name] = text
    return out


SHIPPED = _shipped()


def test_goldens_cover_the_shipped_problems():
    assert set(GOLDENS) == set(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_report_matches_golden(name):
    report = emit_report(run_command(parse_problem(SHIPPED[name])),
                         "structured")
    assert hashlib.sha256(report).hexdigest() == GOLDENS[name]
