#!/usr/bin/env python3
"""Paired before/after runs of one benchmark workload on two checkouts.

    python3 scripts/bench_pairs.py --base ../ovc-parent --head . \\
        --workload plane-fillin --seeds 7 8 9 10 11 12 13 14 15 16 \\
        --seconds 25 --label plane-fillin

Each pair runs ``perfbench/run.py --trace 0`` of each checkout, one after the
other, on one seed; which side goes first alternates from pair to pair, so a
drift of the host's speed favours neither.  Any checkout works as the base,
for example a ``git clone`` of the parent commit.  The script writes
``BENCH_<label>.json`` into the head checkout: each run's final JSON object,
and per end-to-end metric of BENCHMARK.json each side's median and quartiles,
the per-pair ratios head/base, their median and the number of pairs the head
won (ties count for neither side).  It exits 1, after writing the file, when
any run of either side reports ``"correct": false``, so a faster but wrong
head never reads as a clean result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def revision(checkout: Path) -> str | None:
    """The checkout's commit, marked ``-dirty`` when its tracked files other
    than ``BENCH_*.json`` differ from it, so that the file an earlier run
    wrote does not count; None outside a git repository."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        rev = git("describe", "--always", "--abbrev=12")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--",
                    ".", ":(exclude)BENCH_*.json")
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{rev}-dirty" if dirty else rev


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        ratios = [h / b if b else None for b, h in zip(base, head)]
        known = [r for r in ratios if r is not None]
        out[name] = {"better": m["better"], "base": spread(base),
                     "head": spread(head), "ratios": ratios,
                     "median_ratio": statistics.median(known) if known
                     else None,
                     "pairs_won": won, "pairs": len(pairs)}
    return out


def wrong_runs(pairs: list) -> list:
    """(seed, side) of every run whose oracles did not all pass."""
    return [(p["seed"], side) for p in pairs for side in ("base", "head")
            if not p[side]["correct"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--head", type=Path, default=Path("."))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair per seed")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    bench = json.loads((head / "BENCHMARK.json").read_text())

    pairs = []
    for i, seed in enumerate(args.seeds):
        first = "base" if i % 2 == 0 else "head"
        order = [("base", base), ("head", head)]
        if first == "head":
            order.reverse()
        pair = {"seed": seed, "first": first}
        for side, checkout in order:
            pair[side] = run_once(checkout, args.workload, seed, args.seconds)
        pairs.append(pair)
        walls = {s: pair[s]["metrics"]["wall_s"]["value"]
                 for s in ("base", "head")}
        print(f"pair {i + 1}/{len(args.seeds)} seed {seed} ({first} first): "
              f"wall_s base {walls['base']:.4f} head {walls['head']:.4f}",
              file=sys.stderr)

    result = {
        "label": args.label, "workload": args.workload,
        "seconds": args.seconds,
        "base": revision(base), "head": revision(head),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "summary": summarize(pairs, bench["end_to_end"]),
        "pairs": pairs,
    }
    out = head / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for name, s in result["summary"].items():
        print(f"{name:12s} base {s['base']['median']:.6g} "
              f"[{s['base']['q1']:.6g}, {s['base']['q3']:.6g}]  "
              f"head {s['head']['median']:.6g} "
              f"[{s['head']['q1']:.6g}, {s['head']['q3']:.6g}]  "
              f"median ratio {s['median_ratio']}  "
              f"won {s['pairs_won']}/{s['pairs']}")
    wrong = wrong_runs(pairs)
    for seed, side in wrong:
        print(f"seed {seed}: the {side} run failed its oracles",
              file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
