#!/usr/bin/env python3
"""Run the acceptance battery directly (same checks as `ovc selftest`),
printing one line per criterion and exiting nonzero on any failure.

Usage: python scripts/run_selftest.py

It imports ovc from this checkout's ``src``, and puts that directory first on
PYTHONPATH for the CLI runs the battery starts, so no install is needed."""

import os
import pathlib
import sys
import time

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from ovc.acceptance import run_all  # noqa: E402


def main():
    t0 = time.monotonic()
    results = run_all()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number:02d} [{status}] {r.name}: {r.detail}")
        failed += not r.passed
    print(f"-- {len(results) - failed}/{len(results)} criteria passed in "
          f"{time.monotonic() - t0:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
