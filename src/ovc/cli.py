"""Batch front end: parse a problem file, dispatch to the engine, emit a
deterministic report.

    ovc <command> <problem-file> [--format text|structured] [--out PATH]

The command must match the problem file's command block.  Reports are
byte-identical for identical inputs and version; wall time goes to stderr so
it never breaks that guarantee.  Exit codes: 0 success, 1 engine error or a
failed selftest criterion (its report is written first), 2 parse error, an
unreadable problem file or an ``--out`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .errors import OvcError, ParseError
from .cohomology import (
    CohomologyReport,
    compact_support_cohomology,
    local_cohomology,
    mw_cohomology,
)
from .factor import factor_plus
from .groebner import complete_leading_basis, reduce_element
from .pairing import pairing_nondegeneracy_check
from .problems import COMMANDS, ProblemFile, parse_problem
from .pushforward import leray_assemble, pushforward_complex, snake_check
from .series import gauss_norm
from .unipotent import h0_h1_unipotent, horizontal_iterate, \
    strongly_unipotent_basis

class RunReport:
    __slots__ = ("command", "records")

    def __init__(self, command: str, records: list):
        self.command = command
        self.records = records   # ordered (key, value-string) pairs

    def add(self, key, value):
        self.records.append((str(key), str(value)))


def emit_report(report: RunReport, fmt: str = "structured") -> bytes:
    lines = []
    if fmt == "structured":
        lines.append(f"command={report.command}")
        lines.append(f"engine-version={__version__}")
        for k, v in report.records:
            lines.append(f"{k}={v}")
    else:
        lines.append(f"# report: {report.command} (engine {__version__})")
        for k, v in report.records:
            lines.append(f"{k:32s} {v}")
    return ("\n".join(lines) + "\n").encode()


def _term_records(report: RunReport, prefix: str, s):
    for exp, c in s.terms:
        report.add(f"{prefix}.{','.join(str(e) for e in exp)}", c.serialize())


def _matrix_records(report: RunReport, prefix: str, mat):
    for i, row in enumerate(mat.rows):
        for j, s in enumerate(row):
            _term_records(report, f"{prefix}[{i + 1},{j + 1}]", s)


def _cohomology_records(report: RunReport, rep: CohomologyReport):
    for deg, dd in sorted(rep.degrees.items()):
        report.add(f"h{deg}.dim", dd.dim)
        report.add(f"h{deg}.raw-dim", dd.raw_dim)
        if dd.edge_excluded:
            report.add(f"h{deg}.window-artifacts", dd.edge_excluded)
        for gi, gen in enumerate(dd.generators):
            if hasattr(gen, "records"):
                for label, val in gen.records():
                    a, J, I = label
                    js = "dx" + "dx".join(str(v + 1) for v in J) if J else "1"
                    report.add(
                        f"h{deg}.gen{gi}.c{a}.{js}."
                        f"{','.join(str(e) for e in I)}", val)
            else:  # module vectors from the unipotent route
                for a, comp in enumerate(gen.coords):
                    _term_records(report, f"h{deg}.gen{gi}.c{a}", comp)
    report.add("precision-floor", rep.precision_gap)
    report.add("truncation-loss",
               "none" if rep.truncation is None else rep.truncation)


def _verdict_records(report: RunReport, prefix: str, verdicts):
    for v in verdicts:
        report.add(f"{prefix}.{v.node}",
                   "exact" if v.passed else f"FAIL ({v.detail})")


def run_command(pf: ProblemFile) -> RunReport:
    """The report of the problem's command; ``parse_problem`` has already
    resolved and checked its arguments against ``problems.COMMANDS``."""
    name, args, opts = pf.command
    report = RunReport(name, [])
    if name == "cohomology":
        module = args[0]
        cc = local_cohomology(module) if module.ring.is_robba() \
            else mw_cohomology(module)
        _cohomology_records(report, cc.report)
    elif name == "compact-supports":
        _cohomology_records(report, compact_support_cohomology(args[0]).report)
    elif name == "pushforward":
        bundle = pushforward_complex(args[0], opts["robba"],
                                     unipotent=opts.get("unipotent", False))
        for k, v in bundle.dims().items():
            report.add(f"{k}.dim", v)
        report.add("r1prim.dim", "FAIL" if bundle.r1prim_dim is None
                   else bundle.r1prim_dim)
        _verdict_records(report, "snake", snake_check(bundle))
        report.add("note", bundle.note)
        report.add("precision-floor", pf.M)
    elif name == "leray":
        rep = leray_assemble(*args)
        report.add("fiber-kernel-rank", rep.fiber_kernel_rank)
        report.add("fiber-coker-rank", rep.fiber_coker_rank)
        for side, dims in (("P", rep.dims_P), ("Q", rep.dims_Q),
                           ("M", rep.dims_M)):
            for d, v in sorted(dims.items()):
                report.add(f"{side}.h{d}.dim", v)
        report.add("euler-identity", "pass" if rep.euler_ok else "FAIL")
        _verdict_records(report, "node", rep.node_verdicts)
    elif name == "factor":
        res = factor_plus(args[0], opts.get("bound"))
        _matrix_records(report, "V", res.V)
        _matrix_records(report, "W", res.W)
        report.add("det-valuations", ",".join(str(d) for d in res.det_valuations))
        report.add("certificate-ops", res.ops)
    elif name == "unipotent-basis":
        data = strongly_unipotent_basis(*args)
        for i, row in enumerate(data.nilpotent_X):
            for j, c in enumerate(row):
                report.add(f"X[{i + 1},{j + 1}]", c.serialize())
        report.add("nilpotency-index", data.nilpotency_e)
        report.add("gauge-verified", "pass" if data.verify() else "FAIL")
        _matrix_records(report, "U", data.change_of_basis)
        rep = h0_h1_unipotent(data)
        _cohomology_records(report, rep)
    elif name == "horizontal":
        data = strongly_unipotent_basis(args[0])
        log = horizontal_iterate(data, opts["w"], opts.get("L", 8))
        for i, c in enumerate(log.result.coords):
            _term_records(report, f"result.c{i}.term", c)
        report.add("headroom-used", log.headroom_used)
        report.add("slope-log", ",".join(
            "inf" if v is None else str(v) for v in log.steps))
    elif name == "pairing":
        rep = pairing_nondegeneracy_check(args[0])
        for b in rep.blocks:
            key = f"block.c{b.degree_c}.w{b.degree_mw}"
            report.add(f"{key}.dims", f"{b.dim_c}x{b.dim_mw}")
            report.add(f"{key}.rank", b.rank)
            report.add(f"{key}.nondegenerate",
                       "pass" if b.rank == b.dim_c == b.dim_mw else "FAIL")
        report.add("nondegenerate", "pass" if rep.nondegenerate else "FAIL")
    elif name == "groebner-reduce":
        y, z = opts["y"], opts["z"]
        basis = complete_leading_basis(opts["basis"])
        u = reduce_element(y, z, basis)
        _term_records(report, "u.term", u)
        report.add("gauss-value.u", gauss_norm(u).value)
        report.add("gauss-value.y", gauss_norm(y).value)
        report.add("leading-decay", basis[0].rho_D)
    elif name == "selftest":
        from .acceptance import run_all
        results = run_all()
        failed = 0
        for r in results:
            report.add(f"criterion.{r.number:02d}",
                       ("pass" if r.passed else "FAIL") + f" ({r.detail})")
            failed += 0 if r.passed else 1
        report.add("failures", failed)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ovc",
        description="finite-precision computer algebra for overconvergent "
                    "series rings and their cohomology")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    try:
        with open(args.problem, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as ex:
            raise ParseError(f"not UTF-8: {ex.reason}",
                             raw.count(b"\n", 0, ex.start) + 1) from None
        pf = parse_problem(text)
        if pf.command[0] != args.command:
            raise ParseError(
                f"problem file declares command {pf.command[0]!r}, "
                f"invoked as {args.command!r}")
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except ParseError as ex:
        print(f"parse error [{ex.code}]: {ex}", file=sys.stderr)
        return 2

    try:
        report = run_command(pf)
    except OvcError as ex:
        print(f"engine error [{ex.code}]: {ex}", file=sys.stderr)
        return 1
    except Exception as ex:  # noqa: BLE001 - no tracebacks reach the user
        print(f"engine error [engine.internal]: {type(ex).__name__}: {ex}",
              file=sys.stderr)
        return 1

    payload = emit_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(payload)
    print(f"wall-time {time.monotonic() - t0:.3f}s", file=sys.stderr)
    # a failing selftest still writes its report, then exits 1
    return 0 if dict(report.records).get("failures", "0") == "0" else 1


if __name__ == "__main__":
    raise SystemExit(main())
