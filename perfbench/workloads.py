"""The benchmark's workloads: seeded problem texts, the cases one pass runs,
and the oracle each case is checked against.

Every input reaches the engine as problem-file text parsed by
``ovc.problems.parse_problem``; the benchmark computes the texts itself from
the seed.  Engine functions are looked up through their module at call time
(``cohomology.mw_cohomology``, never a ``from`` import) so that the traced
run's rebinding reaches them.

Run this module to print the structured-report digests of the shipped
problems, the content of ``goldens.json``:

    PYTHONPATH=src python3 -m perfbench.workloads > perfbench/goldens.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ovc import (cli, cohomology, factor, groebner, modules, problems,
                 pushforward, pairing, series, unipotent)

HERE = Path(__file__).resolve().parent
UNITS = (1, 2, 4, 5, 7, 8)          # residues prime to 3, the prime used here


@dataclass
class Case:
    name: str
    run: Callable[[], object]           # the timed engine work
    check: Callable[[object], bool]     # the oracle, run untimed
    golden: str | None = None           # sha256 of the report bytes


@dataclass
class Workload:
    name: str
    texts: list                         # every problem text the engine sees
    cases: list


# -- problem texts ---------------------------------------------------------------

def _text(p: int, M: int, body: list, command: str) -> str:
    return "\n".join(["version 1", f"p {p}", f"M {M}", *body,
                      f"command {command}"]) + "\n"


def _series(name: str, ring: str, terms: dict) -> list:
    rows = [f"series {name} {ring}"]
    rows += [f"  term {' '.join(map(str, e))} {c}"
             for e, c in sorted(terms.items()) if c]
    return rows + ["end"]


def _rank1(variables: str, window: int, conn: dict) -> list:
    """A rank-one module M1 over the Tate ring W on [0, window]^n whose
    dx_v connection is the polynomial conn[v] ({exponent tuple: int})."""
    body = [f"ring W tate vars {','.join(variables)} "
            f"window {','.join([f'0:{window}'] * len(variables))}"]
    gammas = []
    for v in variables:
        body += _series(f"c{v}", "W", conn.get(v, {}))
        body += [f"matrix G{v} W 1 1", f"  entry 1 1 c{v}", "end"]
        gammas.append(f"gamma {v} G{v}")
    return body + [f"module M1 ring W rank 1 {' '.join(gammas)}"]


def _unit_poly(rng: random.Random, degree: int, var: int, nvars: int) -> dict:
    """A polynomial in one variable with unit coefficients in every degree
    up to ``degree``: fixing the shape keeps elimination cost similar
    across seeds, while the seed still picks every coefficient."""
    def exp(i):
        return tuple(i if k == var else 0 for k in range(nvars))
    return {exp(i): rng.choice(UNITS) for i in range(degree + 1)}


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class _Inputs:
    """Collects the problem texts of a workload while parsing them."""

    def __init__(self):
        self.texts: list[str] = []

    def parse(self, text: str):
        self.texts.append(text)
        return problems.parse_problem(text)

    def module(self, text: str):
        return self.parse(text).modules["M1"]


def _dims_case(name: str, run, expect) -> Case:
    return Case(name, run, lambda cc: cc.report.dims() == expect())


# -- grid-generators ---------------------------------------------------------------

# windows of the plane, of 3-space and of the compactly supported plane.  The
# north-star plane at window 200 peaks at about 210 MB, and on a busy host a
# case that large slows down less than the reference job that scales it, so
# its scaled time wanders; at these windows no case lasts a second and a
# 25-second run times each one about twenty times (see "Noise" in README.md)
GRID_WINDOWS = (80, 10, 40)


def grid_generators(seed: int, root: Path) -> Workload:
    """Trivial coefficients with generators: assembly, SNF and generator
    extraction each take a visible share of a pass.  The seed is unused."""
    inp = _Inputs()
    wp, ws, wc = GRID_WINDOWS
    plane = inp.module(_text(3, 20, _rank1("xy", wp, {}), "cohomology M1"))
    space = inp.module(_text(3, 20, _rank1("xyz", ws, {}), "cohomology M1"))
    compact = inp.module(_text(3, 20, _rank1("xy", wc, {}),
                               "compact-supports M1"))
    cases = [
        _dims_case(f"plane-w{wp}", lambda: cohomology.mw_cohomology(plane),
                   lambda: {0: 1, 1: 0, 2: 0}),
        _dims_case(f"space-w{ws}", lambda: cohomology.mw_cohomology(space),
                   lambda: {0: 1, 1: 0, 2: 0, 3: 0}),
        # compact supports of the plane sit in the top degree 4
        _dims_case(f"compact-plane-w{wc}",
                   lambda: cohomology.compact_support_cohomology(compact),
                   lambda: {2: 0, 3: 0, 4: 1}),
    ]
    return Workload("grid-generators", inp.texts, cases)


# -- plane-fillin -------------------------------------------------------------------

FILLIN_WINDOW = 16
FILLIN_SHAPES = ((1, 2), (2, 1), (2, 2)) * 16    # (deg f, deg g) per module


def plane_fillin(seed: int, root: Path) -> Workload:
    """Rank-one plane modules with connection f(x) dx + g(y) dy, integrable
    by construction; elimination fill-in dominates.  The oracle is Kunneth:
    the plane's dims are the convolution of the engine's own line dims."""
    rng = random.Random(seed)
    inp = _Inputs()
    cases = []
    for k, (df, dg) in enumerate(FILLIN_SHAPES):
        f = _unit_poly(rng, df, 0, 2)
        g = _unit_poly(rng, dg, 1, 2)
        plane = inp.module(_text(3, 20, _rank1("xy", FILLIN_WINDOW,
                                               {"x": f, "y": g}),
                                 "cohomology M1"))
        line_f = inp.module(_text(3, 20, _rank1(
            "x", FILLIN_WINDOW, {"x": {(e[0],): c for e, c in f.items()}}),
            "cohomology M1"))
        line_g = inp.module(_text(3, 20, _rank1(
            "y", FILLIN_WINDOW, {"y": {(e[1],): c for e, c in g.items()}}),
            "cohomology M1"))
        cases.append(_dims_case(
            f"fillin-{k}-deg{df}{dg}",
            lambda m=plane: cohomology.mw_cohomology(m),
            functools.cache(lambda a=line_f, b=line_g: _kunneth(a, b))))
    return Workload("plane-fillin", inp.texts, cases)


def _kunneth(line_f, line_g) -> dict:
    a = cohomology.mw_cohomology(line_f).report.dims()
    b = cohomology.mw_cohomology(line_g).report.dims()
    return {k: sum(a.get(i, 0) * b.get(k - i, 0) for i in range(k + 1))
            for k in range(3)}


# -- leray-dims ---------------------------------------------------------------------

LERAY_WINDOW = 70


def leray_dims(seed: int, root: Path) -> Workload:
    """Consumers of ranks only: Leray assembly, the pairing check and the
    pushforward snake, the only load on pushforward.py and pairing.py."""
    rng = random.Random(seed)
    inp = _Inputs()
    trivial = inp.module(_text(3, 12, _rank1("xy", LERAY_WINDOW, {}),
                               "leray M1 x y"))
    dwork = inp.module(_text(3, 12, _rank1("xy", LERAY_WINDOW,
                                           {"x": {(0, 0): 1}}),
                             "leray M1 x y"))
    randm = inp.module(_text(3, 12, _rank1(
        "xy", 30, {"x": _unit_poly(rng, 1, 0, 2),
                   "y": _unit_poly(rng, 2, 1, 2)}), "leray M1 x y"))
    pair = inp.module(_text(3, 12, _rank1("xy", 30, {}), "pairing M1"))
    line = inp.parse(_text(3, 12, _rank1("x", 400, {})
                           + ["ring R robba vars t window -402:402 slope 1"],
                           "pushforward M1 robba R"))
    cases = [_leray_case(f"leray-{name}", m)
             for name, m in (("trivial-w70", trivial), ("dwork-w70", dwork),
                             ("random-w30", randm))]
    cases.append(Case("pairing-w30",
                      lambda: pairing.pairing_nondegeneracy_check(pair),
                      lambda rep: rep.nondegenerate))
    cases.append(Case(
        "snake-line-w400",
        lambda: pushforward.snake_check(pushforward.pushforward_complex(
            line.modules["M1"], line.rings["R"])),
        lambda verdicts: len(verdicts) == 6
        and all(v.passed for v in verdicts)))
    return Workload("leray-dims", inp.texts, cases)


def _leray_case(name: str, module) -> Case:
    direct = functools.cache(
        lambda: cohomology.mw_cohomology(module).report.dims())
    return Case(name,
                lambda: pushforward.leray_assemble(module, "x", "y"),
                lambda rep: rep.euler_ok
                and all(ok for _, ok, _ in rep.node_verdicts)
                and rep.dims_M == direct())


# -- problems-batch -----------------------------------------------------------------

BOUNDDENOM_M_SPAN = 6
FACTOR_CASES = 12
GROEBNER_CASES = 12
HORIZONTAL_CASES = 6


def shipped_problems(root: Path) -> dict:
    """name -> text of every shipped problem except the acceptance battery."""
    out = {}
    for path in sorted((root / "problems").glob("*.ovc")):
        text = path.read_text(encoding="utf-8")
        if "\ncommand selftest" not in "\n" + text:
            out[path.name] = text
    return out


def run_problem(text: str) -> bytes:
    """The path of `ovc <command> <file> --format structured`."""
    return cli.emit_report(cli.run_command(problems.parse_problem(text)),
                           "structured")


def problems_batch(seed: int, root: Path) -> Workload:
    """Every shipped problem through parse -> run -> emit, plus seeded small
    instances of the denominator bound, horizontal iteration, factorization
    and norm-controlled division.  Per-call overheads dominate."""
    rng = random.Random(seed)
    inp = _Inputs()
    goldens = json.loads((HERE / "goldens.json").read_text())
    cases = []
    for name, text in shipped_problems(root).items():
        inp.texts.append(text)
        cases.append(Case(name, lambda t=text: run_problem(t),
                          lambda out: b"FAIL" not in out, goldens.get(name)))
    cases.append(_bounddenom_case(rng))
    cases += [_horizontal_case(rng, inp, k) for k in range(HORIZONTAL_CASES)]
    cases += [_factor_case(rng, inp, k) for k in range(FACTOR_CASES)]
    cases += [_groebner_case(rng, inp, k) for k in range(GROEBNER_CASES)]
    return Workload("problems-batch", inp.texts, cases)


def _bounddenom_case(rng: random.Random) -> Case:
    """A seeded slice of the exhaustive box m in [-20, 20], l in [1, 30],
    e in [1, 4], p in {2, 3, 5}; every l is kept so the cost is seed-free."""
    m0 = rng.randint(-20, 21 - BOUNDDENOM_M_SPAN)
    box = [(m, l, e, p) for p in (2, 3, 5)
           for m in range(m0, m0 + BOUNDDENOM_M_SPAN)
           for l in range(1, 31) for e in range(1, 5)]
    expect = functools.cache(
        lambda: [exact_denominator(*args) for args in box])

    def check(results):
        return all(exact <= bound and exact == want
                   for (bound, exact), want in zip(results, expect()))

    return Case(f"bounddenom-m{m0}",
                lambda: [unipotent.bounddenom(*args, verify=True)
                         for args in box], check)


def _vp(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def exact_denominator(m: int, l: int, e: int, p: int) -> int:
    """Least k >= 0 with p^k prod_{i=1..l} (m+x+i)/i integral in
    Q_p[x]/(x^e), computed directly with rationals."""
    poly = [Fraction(1)] + [Fraction(0)] * (e - 1)
    for i in range(1, l + 1):
        poly = [(poly[j] * (m + i) + (poly[j - 1] if j else 0)) / i
                for j in range(e)]
    return max([0] + [-_vp(c, p) for c in poly if c])


def _laurent(terms: dict) -> dict:
    return {(k,): c for k, c in terms.items()}


def _horizontal_case(rng: random.Random, inp: _Inputs, k: int) -> Case:
    """Criterion 7's random instances: a strictly upper triangular
    connection on the annulus, iterated to L = 8."""
    p, M, window, L = 3, 60, 10, 8
    rank = 2 + k % 2
    body = [f"ring R robba vars t window -{window}:{window} slope 1"]
    entries = []
    for i in range(rank):
        for j in range(i + 1, rank):
            body += _series(f"n{i}{j}", "R",
                            _laurent({rng.randint(-1, 1): rng.randint(0, 3)}))
            entries.append(f"  entry {i + 1} {j + 1} n{i}{j}")
    body += [f"matrix N R {rank} {rank}", *entries, "end",
             f"module M1 ring R rank {rank} connection N"]
    for i in range(rank):
        body += _series(f"w{i}", "R",
                        _laurent({rng.randint(-4, 4): rng.randint(1, 9)}))
    body += ["vector w M1"] + [f"  comp {i + 1} w{i}" for i in range(rank)]
    body += ["end"]
    pf = inp.parse(_text(p, M, body, f"horizontal M1 w w L {L}"))
    module, w = pf.modules["M1"], pf.vectors["w"]
    ceiling = Fraction(M - window)   # w-value floor once a difference vanishes

    def run():
        data = unipotent.strongly_unipotent_basis(module)
        return unipotent.horizontal_iterate(data, w, L)

    def check(log):
        # converging: the slope is positive, or w was horizontal from the
        # start and every difference vanished
        vals = [ceiling if v is None else v for v in log.steps]
        return vals[-1] > vals[0] or vals[0] == vals[-1] == ceiling

    return Case(f"horizontal-{k}-rank{rank}", run, check)


def _factor_case(rng: random.Random, inp: _Inputs, k: int) -> Case:
    """Criterion 9's random instances: diag(p^a t^b) moved by integral row
    operations and a plus-part unit, so U = V W exists."""
    p, M, window = 3, 14, 16
    n = 2 if k % 2 == 0 else 3
    dv = [rng.randint(0, 1) for _ in range(n)]
    while sum(dv) > 3:
        dv[rng.randrange(n)] = 0
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = {(rng.randint(-2, 2),): p ** dv[i]}
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        lam = {(rng.randint(-1, 1),): rng.randint(1, 4)}
        rows[j] = [_padd(x, _pmul(lam, y)) for x, y in zip(rows[j], rows[i])]
    unit = {(0,): 1, (rng.randint(1, 2),): p * rng.randint(1, 2)}
    r = rng.randrange(n)
    rows[r] = [_pmul(unit, x) for x in rows[r]]
    body = [f"ring R robba vars t window -{window}:{window} slope 1"]
    entries = []
    for i in range(n):
        for j in range(n):
            if rows[i][j]:
                body += _series(f"u{i}{j}", "R", rows[i][j])
                entries.append(f"  entry {i + 1} {j + 1} u{i}{j}")
    body += [f"matrix U R {n} {n}", *entries, "end"]
    U = inp.parse(_text(p, M, body, "factor U bound 4")).matrices["U"]
    digits = M - 4

    def check(res):
        vals = list(res.det_valuations)
        ident = res.W.mul(res.W_inv).sub(modules.SeriesMatrix.identity(
            U.descriptor, n))
        return (res.V.mul(res.W).sub(U).is_zero_at_precision(digits)
                and ident.is_zero_at_precision(digits)
                and vals == list(range(vals[0], -1, -1)))

    return Case(f"factor-{k}-n{n}", lambda: factor.factor_plus(U, 4), check)


def _groebner_case(rng: random.Random, inp: _Inputs, k: int) -> Case:
    """Criterion 10's random instances: y in the ideal (g1, g2) and
    z = y + g1 h, reduced with norm control."""
    p, M = 3, 14

    def rand(maxdeg=2, terms=3, unit=False):
        data = {}
        for _ in range(terms):
            e = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
            data[e] = rng.randint(1, 8) * p ** rng.randint(0, 1)
        if unit:
            data[(0, 0)] = 1
        return data

    g1, g2 = rand(), rand()
    y = _padd(_pmul(g1, rand(1, 2, unit=True)), _pmul(g2, rand(1, 2)))
    z = _padd(y, _pmul(g1, rand(1, 1)))
    body = ["ring W dagger vars x,y window 0:14,0:14 decay 1"]
    for name, terms in (("g1", g1), ("g2", g2), ("yv", y), ("zv", z)):
        body += _series(name, "W", terms)
    pf = inp.parse(_text(p, M, body, "groebner-reduce basis g1,g2 y yv z zv"))
    gens = [pf.series["g1"], pf.series["g2"]]
    yv, zv = pf.series["yv"], pf.series["zv"]

    def run():
        basis = groebner.complete_leading_basis(gens)
        return basis, groebner.reduce_element(yv, zv, basis)

    def check(out):
        basis, u = out
        gy, gu = series.gauss_norm(yv).value, series.gauss_norm(u).value
        D = basis[0].rho_D
        ru, rz = series.rho_value(u, D), series.rho_value(zv, D)
        return (not (gu is not None and gy is not None and gu < gy)
                and not (ru is not None and rz is not None and ru < rz)
                and groebner.reduces_to_zero(u.sub(zv), basis))

    return Case(f"groebner-{k}", run, check)


BUILDERS = {
    "grid-generators": grid_generators,
    "plane-fillin": plane_fillin,
    "leray-dims": leray_dims,
    "problems-batch": problems_batch,
}


def build(name: str, seed: int, root: Path) -> Workload:
    return BUILDERS[name](seed, root)


def golden_digests(root: Path) -> dict:
    return {name: hashlib.sha256(run_problem(text)).hexdigest()
            for name, text in shipped_problems(root).items()}


if __name__ == "__main__":
    json.dump(golden_digests(HERE.parent), sys.stdout, indent=1,
              sort_keys=True)
    print()
