#!/usr/bin/env python3
"""Replay the sparse_snf calls of one benchmark pass through one or two
checkouts' kernels and compare the results.

    python3 scripts/snf_replay.py --workload plane-fillin --seed 1 \\
        [--base ../ovc-parent] [--repeat 5]

The script builds the workload of ``perfbench/workloads.py`` from this
checkout, rebinds ``sparse_snf`` in every ovc module that holds it (as the
benchmark's tracer does) and runs one pass, keeping each call's arguments.
It then replays the calls through this checkout's ``src/ovc/linalg.py``
and, with ``--base``, through the other checkout's: ``--repeat`` rounds,
each side once a round in a fresh interpreter, the side that goes first
alternating from round to round so that a drift of the host's speed
favours neither.  A round replays the whole list of calls again and again
until about ``ROUND_SECONDS`` of CPU time have passed, so that a short list
is still timed over many replays, and each side prints its median CPU time
per replay over all its rounds.

The calls replayed are the ones this checkout makes, each input copied and
pickled as an ``ovc.linalg.Entries`` and each keyword (``logs``) kept, so
the other checkout's kernel must take that layout and those keywords:
before any replay, each side's ``sparse_snf`` signature is checked, and a
kernel that lacks a keyword the calls pass ends the script with one line
naming it (exit 2).  So does a kernel that still takes ``track``: there
``logs=None`` does not make a run rank-only.  A change that alters what the
engine hands the kernel, rather than how the kernel reduces it, does not
show here: measure it with ``scripts/bench_pairs.py`` and the traced
``linalg.snf_nnz``.

With two sides, tracked results (``logs`` not None) must agree field by
field (pivots, row and column op logs, free lists), and rank-only results
(``logs`` None) on the invariants a rank-only reduction promises: the
divisors, the rank at every cutoff, the certification gap and the sizes of
the free lists.  Exits 1 on any
mismatch, or when the pass made no call at all.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUND_SECONDS = 1.0     # CPU time a round spends replaying, per side


def capture(workload_name: str, seed: int) -> list:
    """[(args, kwargs)] of every sparse_snf call one pass of the workload
    makes, in call order."""
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads
    from ovc import linalg

    workload = workloads.build(workload_name, seed, ROOT)
    original, calls = linalg.sparse_snf, []

    def recording(*args, **kwargs):
        args = list(args)
        if len(args) > 2:
            e = args[2]
            args[2] = linalg.Entries(list(e.rows), list(e.cols), list(e.vals))
        calls.append((tuple(args), dict(kwargs)))
        return original(*args, **kwargs)

    patched = [(mod, key) for name, mod in list(sys.modules.items())
               if mod is not None and (name == "ovc" or name.startswith("ovc."))
               for key, value in list(vars(mod).items()) if value is original]
    try:
        for mod, key in patched:
            setattr(mod, key, recording)
        for case in workload.cases:
            case.run()
    finally:
        for mod, key in patched:
            setattr(mod, key, original)
    return calls


def summarize(res) -> tuple:
    """What two kernels must agree on: every field of a tracked result, the
    promised invariants of a rank-only one."""
    if res.logs is not None:
        return ("tracked", res.pivots, res.row_ops, res.col_ops,
                res.free_cols, res.free_rows)
    return ("rank-only", res.divisors(),
            [res.rank(c) for c in range(res.N + 1)],
            res.certification_gap(), len(res.free_cols), len(res.free_rows))


def load_kernel(src: Path):
    """The ``ovc.linalg`` module under ``src``."""
    sys.path.insert(0, str(src))
    linalg = importlib.import_module("ovc.linalg")
    if not Path(linalg.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ovc.linalg imported from {linalg.__file__}, "
                         f"not {src}")
    return linalg


def missing_keywords(kernel, calls: list) -> list:
    """The keywords the calls pass that ``kernel`` does not take, in the
    order of their first use."""
    names = inspect.signature(kernel).parameters
    return list(dict.fromkeys(k for _, kwargs in calls for k in kwargs
                              if k not in names))


def replay(src: Path, calls: list) -> tuple[list, list]:
    """CPU seconds of each replay of the calls through the kernel under
    ``src``, replayed until ``ROUND_SECONDS`` have passed, and the summaries
    of their results."""
    linalg = load_kernel(src)
    times, stop = [], time.process_time() + ROUND_SECONDS
    while not times or time.process_time() < stop:
        t0 = time.process_time()
        results = [linalg.sparse_snf(*args, **kwargs)
                   for args, kwargs in calls]
        times.append(time.process_time() - t0)
    return times, [summarize(r) for r in results]


def check_side(side: str, checkout: Path, calls_file: Path) -> int:
    """Whether the side's kernel takes every keyword the calls pass and no
    ``track``, checked in a fresh interpreter: 0, or 2 once the child has
    printed the line that says which fails."""
    return subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--replay", str(calls_file), "--src",
                           str(checkout / "src"), "--check", side]).returncode


def run_side(side: str, checkout: Path, calls_file: Path) -> tuple:
    """One replay in a fresh interpreter, so that each side imports its own
    kernel and neither runs in the other's heap."""
    out = calls_file.with_name(f"{side}.pickle")
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--replay", str(calls_file), "--src",
                    str(checkout / "src"), "--out", str(out)], check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


FIELDS = {"tracked": ("kind", "pivots", "row_ops", "col_ops", "free_cols",
                      "free_rows"),
          "rank-only": ("kind", "divisors", "ranks", "gap", "free_cols",
                        "free_rows")}


def mismatches(head: list, base: list) -> list:
    """(call index, field) of every summary field the two sides differ in."""
    return [(i, f) for i, (h, b) in enumerate(zip(head, base))
            for f, x, y in zip(FIELDS[h[0]], h, b) if x != y]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--base", type=Path,
                    help="another checkout to replay the calls through")
    ap.add_argument("--repeat", type=int, default=5,
                    help="rounds; each side's median replay is reported")
    ap.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--check", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.replay:     # the child of check_side or run_side
        # the inputs unpickle as the Entries of the kernel under --src
        sys.path.insert(0, str(args.src))
        with open(args.replay, "rb") as fh:
            calls = pickle.load(fh)
        if args.check:
            kernel = load_kernel(args.src).sparse_snf
            missing = missing_keywords(kernel, calls)
            if missing:
                print(f"{args.check} {args.src.parent}: sparse_snf takes no "
                      f"keyword {', '.join(map(repr, missing))}, which the "
                      f"captured calls pass", file=sys.stderr)
                return 2
            if "track" in inspect.signature(kernel).parameters:
                print(f"{args.check} {args.src.parent}: sparse_snf still "
                      f"takes 'track', so logs=None is no rank-only run "
                      f"there", file=sys.stderr)
                return 2
            return 0
        with open(args.out, "wb") as fh:
            pickle.dump(replay(args.src, calls), fh)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    calls = capture(args.workload, args.seed)
    if not calls:
        print(f"{args.workload} seed {args.seed}: no sparse_snf call",
              file=sys.stderr)
        return 1
    tracked = sum(1 for a, kw in calls
                  if kw.get("logs", a[5] if len(a) > 5 else "UV") is not None)
    nnz = sum(len(a[2]) for a, _ in calls)
    print(f"{args.workload} seed {args.seed}: {len(calls)} calls "
          f"({tracked} tracked), {nnz} entries")

    sides = [("head", ROOT)] + ([("base", args.base.resolve())]
                                if args.base else [])
    with tempfile.TemporaryDirectory() as tmp:
        calls_file = Path(tmp) / "calls.pickle"
        with open(calls_file, "wb") as fh:
            pickle.dump(calls, fh)
        for side, checkout in sides:
            status = check_side(side, checkout, calls_file)
            if status:
                return status
        times, got = {side: [] for side, _ in sides}, {}
        for i in range(args.repeat):
            for side, checkout in sides[i % 2:] + sides[:i % 2]:
                seconds, got[side] = run_side(side, checkout, calls_file)
                times[side] += seconds
    for side, checkout in sides:
        median = statistics.median(times[side])
        print(f"{side:4s} {checkout}: median {median:.4f} s CPU per replay "
              f"({len(times[side])} replays in {args.repeat} rounds)")
    if not args.base:
        return 0
    bad = mismatches(got["head"], got["base"])
    for i, field in bad[:20]:
        print(f"call {i}: {field} differs", file=sys.stderr)
    if bad:
        print(f"{len(bad)} mismatched fields", file=sys.stderr)
        return 1
    print(f"all {len(calls)} results agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
