"""Batch front end: parse a problem file, dispatch to the engine, emit a
deterministic report.

    ovc <command> <problem-file> [--format text|structured] [--out PATH]

The command must match the problem file's command block.  Reports are
byte-identical for identical inputs and version; wall time goes to stderr so
it never breaks that guarantee.  Exit codes: 0 success, 1 engine error,
2 parse error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from . import __version__
from .errors import OvcError, ParseError
from .cohomology import (
    ComplexCohomology,
    compact_support_cohomology,
    local_cohomology,
    mw_cohomology,
)
from .factor import factor_plus
from .groebner import complete_leading_basis, reduce_element
from .pairing import pairing_nondegeneracy_check
from .problems import ProblemFile, parse_problem
from .pushforward import leray_assemble, pushforward_complex, snake_check
from .report import CohomologyReport
from .series import gauss_norm
from .unipotent import h0_h1_unipotent, horizontal_iterate, \
    strongly_unipotent_basis

COMMANDS = ("cohomology", "compact-supports", "pushforward", "factor",
            "unipotent-basis", "horizontal", "pairing", "groebner-reduce",
            "selftest", "leray")


@dataclass
class RunReport:
    command: str
    records: list            # ordered (key, value-string) pairs

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


def _series_records(report: RunReport, prefix: str, s):
    for exp, c in s.terms:
        report.add(f"{prefix}.term.{','.join(str(e) for e in exp)}",
                   c.serialize())


def _matrix_records(report: RunReport, prefix: str, mat):
    for i, row in enumerate(mat.rows):
        for j, s in enumerate(row):
            for exp, c in s.terms:
                report.add(
                    f"{prefix}[{i + 1},{j + 1}].{','.join(str(e) for e in exp)}",
                    c.serialize())


def _cohomology_records(report: RunReport, cc: ComplexCohomology | CohomologyReport,
                        prefix: str = "h"):
    rep = cc.report if isinstance(cc, ComplexCohomology) else cc
    for deg, dd in sorted(rep.degrees.items()):
        report.add(f"{prefix}{deg}.dim", dd.dim)
        report.add(f"{prefix}{deg}.raw-dim", dd.raw_dim)
        if dd.edge_excluded:
            report.add(f"{prefix}{deg}.window-artifacts", dd.edge_excluded)
        for gi, gen in enumerate(dd.generators):
            if hasattr(gen, "records"):
                for label, val in gen.records():
                    a, J, I = label
                    js = "dx" + "dx".join(str(v + 1) for v in J) if J else "1"
                    report.add(
                        f"{prefix}{deg}.gen{gi}.c{a}.{js}."
                        f"{','.join(str(e) for e in I)}", val)
            else:  # module vectors from the unipotent route
                for a, comp in enumerate(gen.coords):
                    for exp, c in comp.terms:
                        report.add(
                            f"{prefix}{deg}.gen{gi}.c{a}."
                            f"{','.join(str(e) for e in exp)}", c.serialize())
    report.add("precision-floor", rep.precision_gap)
    report.add("truncation-loss",
               "none" if rep.truncation is None else rep.truncation)
    for note in rep.notes:
        report.add("note", note)


def run_command(pf: ProblemFile) -> RunReport:
    name, args = pf.command
    report = RunReport(name, [])
    if name == "cohomology":
        module = _module(pf, args[0])
        cc = local_cohomology(module) if module.ring.is_robba() \
            else mw_cohomology(module)
        _cohomology_records(report, cc)
    elif name == "compact-supports":
        cc = compact_support_cohomology(_module(pf, args[0]))
        _cohomology_records(report, cc)
    elif name == "pushforward":
        module = _module(pf, args[0])
        opts = dict(zip(args[1::2], args[2::2]))
        ring = pf.rings.get(opts.get("robba", ""))
        if ring is None:
            raise ParseError("pushforward needs 'robba <ring>'")
        bundle = pushforward_complex(module, ring,
                                     unipotent="unipotent" in args)
        for k, v in bundle.dims().items():
            report.add(f"{k}.dim", v)
        report.add("r1prim.dim", bundle.r1prim_dim)
        for verdict in snake_check(bundle):
            report.add(f"snake.{verdict.node}",
                       "exact" if verdict.passed else f"FAIL ({verdict.detail})")
        for note in bundle.notes:
            report.add("note", note)
        report.add("precision-floor", pf.M)
    elif name == "leray":
        if len(args) != 3:
            raise ParseError("leray needs '<module> <fiber> <base>'")
        module = _module(pf, args[0])
        fiber, base = args[1], args[2]
        if fiber == base or not {fiber, base} <= set(module.ring.variables):
            raise ParseError("leray needs a fiber and a base that are two "
                             "different variables of the module's ring")
        rep = leray_assemble(module, fiber, base)
        report.add("fiber-kernel-rank", rep.fiber_kernel_rank)
        report.add("fiber-coker-rank", rep.fiber_coker_rank)
        for d, v in sorted(rep.dims_P.items()):
            report.add(f"P.h{d}.dim", v)
        for d, v in sorted(rep.dims_Q.items()):
            report.add(f"Q.h{d}.dim", v)
        for d, v in sorted(rep.dims_M.items()):
            report.add(f"M.h{d}.dim", v)
        report.add("euler-identity", "pass" if rep.euler_ok else "FAIL")
        for node, ok, detail in rep.node_verdicts:
            report.add(f"node.{node}", "exact" if ok else f"FAIL ({detail})")
    elif name == "factor":
        mat = pf.matrices.get(args[0])
        if mat is None:
            raise ParseError(f"matrix {args[0]!r} not defined")
        opts = dict(zip(args[1::2], args[2::2]))
        bound = int(opts["bound"]) if "bound" in opts else None
        res = factor_plus(mat, bound)
        _matrix_records(report, "V", res.V)
        _matrix_records(report, "W", res.W)
        report.add("det-valuations", ",".join(str(d) for d in res.det_valuations))
        report.add("certificate-ops", len(res.certificate))
    elif name == "unipotent-basis":
        module = _module(pf, args[0])
        filt = pf.matrices.get(args[1]) if len(args) > 1 else None
        data = strongly_unipotent_basis(module, filt)
        for i, row in enumerate(data.nilpotent_X):
            for j, c in enumerate(row):
                report.add(f"X[{i + 1},{j + 1}]", c.serialize())
        report.add("nilpotency-index", data.nilpotency_e)
        report.add("gauge-verified", "pass" if data.verify() else "FAIL")
        _matrix_records(report, "U", data.change_of_basis)
        rep = h0_h1_unipotent(data)
        _cohomology_records(report, rep)
    elif name == "horizontal":
        module = _module(pf, args[0])
        opts = dict(zip(args[1::2], args[2::2]))
        w = pf.vectors.get(opts.get("w", ""))
        if w is None:
            raise ParseError("horizontal needs 'w <vector>'")
        L = int(opts.get("L", "8"))
        data = strongly_unipotent_basis(module)
        log = horizontal_iterate(data, w, L)
        for i, c in enumerate(log.result.coords):
            _series_records(report, f"result.c{i}", c)
        report.add("headroom-used", log.headroom_used)
        report.add("slope-log", ",".join(
            "inf" if v is None else str(v) for v in log.steps))
    elif name == "pairing":
        rep = pairing_nondegeneracy_check(_module(pf, args[0]))
        for b in rep.blocks:
            key = f"block.c{b.degree_c}.w{b.degree_mw}"
            report.add(f"{key}.dims", f"{b.dim_c}x{b.dim_mw}")
            report.add(f"{key}.rank", b.rank)
            report.add(f"{key}.nondegenerate",
                       "pass" if (b.left_injects and b.right_injects) else "FAIL")
        report.add("nondegenerate", "pass" if rep.nondegenerate else "FAIL")
    elif name == "groebner-reduce":
        opts = dict(zip(args[0::2], args[1::2]))
        for key in ("basis", "y", "z"):
            if key not in opts:
                raise ParseError(f"groebner-reduce needs '{key} <series>'")
        gens = [_named(pf.series, "series", g)
                for g in opts["basis"].split(",")]
        y, z = (_named(pf.series, "series", opts[k]) for k in ("y", "z"))
        basis = complete_leading_basis(gens)
        u = reduce_element(y, z, basis)
        _series_records(report, "u", u)
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
        if failed:
            raise OvcError(f"{failed} acceptance criteria failed")
    else:
        raise ParseError(f"unknown command {name!r}")
    return report


def _module(pf: ProblemFile, name: str):
    return _named(pf.modules, "module", name)


def _named(table: dict, kind: str, name: str):
    if name not in table:
        raise ParseError(f"{kind} {name!r} not defined")
    return table[name]


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
        text = open(args.problem, encoding="utf-8").read()
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
    except ParseError as ex:
        print(f"parse error [{ex.code}]: {ex}", file=sys.stderr)
        return 2
    except OvcError as ex:
        print(f"engine error [{ex.code}]: {ex}", file=sys.stderr)
        return 1
    except Exception as ex:  # noqa: BLE001 - no tracebacks reach the user
        print(f"engine error [engine.internal]: {type(ex).__name__}: {ex}",
              file=sys.stderr)
        return 1

    payload = emit_report(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    print(f"wall-time {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
