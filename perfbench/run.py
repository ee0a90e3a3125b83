#!/usr/bin/env python3
"""Benchmark for ovc: runs one workload as a closed loop in this single
process, checks every result against its oracle, and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports ovc from the
checkout's ``src`` and refuses to run without it.  Passes repeat, each one
only after the previous one finished, while another pass still fits in
``--seconds``.

``--trace 0`` prints the end-to-end metrics: the median pass time, the set-up
time (median of several set-ups, each in a fresh interpreter), the peak
resident memory, and the share of cases that passed their oracles.  Both
times are scaled by a reference job run beside them (perfbench/reference.py),
so that they read as seconds on a host of fixed speed.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see perfbench/README.md).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7          # one in this process, the rest in fresh ones
CHILD_TIMEOUT_S = 60


def run_pass(workload, tracer=None, meter=None) -> tuple[float, int, int]:
    """One pass over the workload's cases.

    Returns the seconds spent in the cases' engine work, the number of cases
    that raised or failed their oracle, and the number of reports whose
    digest differs from the golden one.  Oracles run outside the timed part;
    the tracer, if given, records only inside it.  The meter, if given, is
    handed each case's seconds and runs the reference job between cases."""
    gc.collect()
    elapsed, failed, mismatched = 0.0, 0, 0
    for case in workload.cases:
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = case.run()
        except Exception:  # noqa: BLE001 - a raising case is a failed case
            out = None
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        elapsed += dt
        if meter is not None:
            meter.add(dt)
        if tracer is not None:
            tracer.recording = False
        ok = out is not None and _passes(case, out)
        if not ok:
            print(f"case {case.name}: FAILED", file=sys.stderr)
        failed += not ok
        if case.golden is not None and out is not None:
            mismatched += hashlib.sha256(out).hexdigest() != case.golden
        del out
    return elapsed, failed, mismatched


def _passes(case, out) -> bool:
    try:
        return bool(case.check(out))
    except Exception:  # noqa: BLE001 - an oracle that raises is a failure
        traceback.print_exc(file=sys.stderr)
        return False


def _tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            value = sorted(samples)[math.ceil(q / 100 * n) - 1]
            return f"p{q:g}={value:.6f} s"
    return "none (fewer than 20 samples)"


def _setup_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ovc" / "__init__.py").is_file():
        print(f"error: no ovc sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import reference
    before = reference.reference_seconds()
    t0 = time.perf_counter()
    from perfbench import workloads
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, ROOT)
    setup = [reference.scaled(time.perf_counter() - t0, before,
                              reference.reference_seconds())]
    if args.setup_only:
        print(repr(setup[0]))
        return 0
    import ovc
    if not Path(ovc.__file__).resolve().is_relative_to(src):
        print(f"error: ovc imported from {ovc.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from perfbench.tracer import Tracer, installed, layer_metrics
    tracer = Tracer()
    children = 0 if args.trace else SETUP_SAMPLES - 1
    untraced, traced, layers, scaled = [], [], [], []
    meter = reference.Meter()
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        # the machine's speed drifts over seconds, so the fresh set-ups are
        # spread over the run rather than taken back to back
        taken = len(setup) - 1
        if taken < children and (time.perf_counter()
                                 >= start + taken * args.seconds / children):
            setup.append(_setup_in_child(args))
        if args.trace and len(untraced) > len(traced):
            tracer.reset()
            with installed(tracer):
                dt, bad, mismatched = run_pass(workload, tracer)
            traced.append(dt)
            layers.append(layer_metrics(tracer.spans, dt)
                          | {"cli.digest_mismatch": mismatched})
        else:
            dt, bad, mismatched = run_pass(workload, meter=meter)
            untraced.append(dt)
            scaled.append(meter.take())
        attempted += len(workload.cases)
        failed += bad
        # stop before a pass that would end past the deadline
        if (time.perf_counter() + dt > deadline
                and (traced or not args.trace)):
            break
    setup += [_setup_in_child(args) for _ in range(children + 1 - len(setup))]

    wall = statistics.median(scaled)
    median_pass = statistics.median(untraced)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(workload.cases)} cases per pass, closed loop, one caller")
    print(f"wall_s      {wall:.6f} s  median of {len(untraced)} untraced "
          f"passes, scaled to a host where the reference job takes "
          f"{reference.REF_SECONDS} s")
    print(f"            unscaled: median pass {median_pass:.6f} s; highest "
          f"percentile with >=10 beyond: {_tail(untraced)}; reference job "
          f"median {statistics.median(meter.samples):.6f} s")
    print(f"setup_s     {statistics.median(setup):.6f} s  median of "
          f"{len(setup)} set-ups, scaled the same way")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb {peak_mb:.1f} MB")
    print(f"fail_frac   {failed / attempted:.6f} frac  "
          f"({failed} of {attempted} cases)")

    if args.trace:
        metrics = {}
        for key in layers[0]:
            metrics[key] = _metric(statistics.median(l[key] for l in layers),
                                   _layer_unit(key))
        metrics["trace.overhead_frac"] = _metric(
            statistics.median(traced) / median_pass - 1, "frac")
        for key, m in metrics.items():
            print(f"{key:28s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "pass_frac": _metric(1 - failed / attempted, "frac"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "frac"
    if key.endswith("_per_map"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
