"""Structured reports of the shipped problems against golden digests.

Every engine speedup must leave the reports byte-identical.  The digests in
``perfbench/goldens.json``, the benchmark's one golden file, read here and
never written, are sha256 of `ovc <command> <problem> --format structured`
for each shipped problem except the acceptance battery (selftest), which
runs every criterion of ``tests/test_acceptance.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from ovc.cli import emit_report, run_command
from ovc.problems import parse_problem

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:       # the benchmark package, run from anywhere
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import HERE as BENCH, shipped_problems  # noqa: E402

GOLDENS = json.loads((BENCH / "goldens.json").read_text())
SHIPPED = shipped_problems(ROOT)


def test_goldens_cover_the_shipped_problems():
    assert set(GOLDENS) == set(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_report_matches_golden(name):
    report = emit_report(run_command(parse_problem(SHIPPED[name])),
                         "structured")
    assert hashlib.sha256(report).hexdigest() == GOLDENS[name]
