#!/usr/bin/env python3
"""Drive the CLI over every shipped problem file and print the reports.

Usage: python scripts/run_problems.py [--format text|structured]

The CLI runs from this checkout's ``src``, put first on the children's
PYTHONPATH, so no install is needed.  Exits 1 when a problem fails or when
no problem ran at all.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--format", default="text",
                    choices=("text", "structured"))
    args = ap.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    ran = failures = 0
    for path in sorted((ROOT / "problems").glob("*.ovc")):
        command = None
        for line in path.read_text().splitlines():
            if line.startswith("command "):
                command = line.split()[1]
                break
        if command == "selftest":
            continue  # the full battery runs as `ovc selftest`
        print(f"== {path.name} ({command})")
        proc = subprocess.run(
            [sys.executable, "-m", "ovc.cli", command, str(path),
             "--format", args.format], env=env)
        ran += 1
        failures += proc.returncode != 0
        print()
    if not ran:
        print(f"no problem files ran from {ROOT / 'problems'}",
              file=sys.stderr)
    return 1 if failures or not ran else 0


if __name__ == "__main__":
    raise SystemExit(main())
