"""Certified dimensions against answers known in closed form (ROADMAP item
15).

* trivial coefficients on n-space: h^0 = 1 and h_c^(2n) = 1, all others 0;
* d/dx + c on the line with v_p(c) > 1/(p - 1): e^(cx) is overconvergent,
  so the module is trivial, (h^0, h^1) = (1, 0) and (h_c^1, h_c^2) = (0, 1);
  so is d/dx + sum a_k x^k when every v_p(a_k/(k + 1)) > 1/(p - 1), and
  c_1 dx + c_2 dy on the plane when every v_p(c_i) > 1/(p - 1);
* d/dx + a + bx with b a unit and a in Z_p: h^0 = 0 and h^1 >= 1 (item 17);
* t d/dt + a over the Robba ring, a rational with its denominator prime to
  p: (1, 1) when a is an integer, (0, 0) otherwise.  This is the ring's
  answer, not the window's, so an integer a counts only inside the window;
* Dwork's exponential module d + pi df at p = 2, where pi = -2 (pi^(p-1) =
  -p), for f = x^d with d odd (item 20): h^0 = 0, since the solution
  e^(2f) has coefficients 2^n/n! at x^(dn), of valuation s_2(n), which
  does not grow, and h^1 = d - 1 (Dwork; Robba's index with irregularity
  d).  A ``tate`` window assembles the same complex as a ``dagger`` one
  (item 22), so both answer for the dagger algebra.

Every printed dim counts as certified until a report can leave a degree
uncertified (item 8).  A known miss is a strict xfail naming its item, so
the fix that mends it must drop the mark.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ovc.acceptance import kummer_module, trivial_module
from ovc.cli import emit_report, run_command
from ovc.cohomology import (
    compact_support_cohomology,
    local_cohomology,
    mw_cohomology,
)
from ovc.modules import SeriesMatrix, SigmaNablaModule
from ovc.problems import parse_problem
from ovc.series import TATE, RingDescriptor, Series

P = 3


def _dx_plus(poly, M, W):
    """d/dx + sum a_k x^k, for poly = {k: a_k}, on the Tate line window 0:W."""
    ring = RingDescriptor(TATE, ("x",), ((0, W),), P, M)
    gam = SeriesMatrix.make(ring, [[Series.from_ints(
        ring, {(k,): a for k, a in poly.items()})]])
    return SigmaNablaModule(ring, 1, gammas=(("x", gam),))


def _plane(c, M, W):
    """d + c_1 dx + c_2 dy on the Tate plane window 0:W x 0:W."""
    ring = RingDescriptor(TATE, ("x", "y"), ((0, W), (0, W)), P, M)
    return SigmaNablaModule(ring, 1, gammas=tuple(
        (v, SeriesMatrix.make(ring, [[Series.from_ints(ring, {(0, 0): ci})]]))
        for v, ci in zip("xy", c)))


def _miss(item, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


def _kummer_draws(seed=15, count=8):
    """Seeded (a, W, M): rationals with denominators prime to p that are not
    integers, then integers strictly inside the window -W..W."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(-60, 60), rng.choice((2, 4, 5, 7)))
        if a.denominator > 1:
            out.append((a, rng.randint(6, 30), rng.choice((8, 12))))
    for _ in range(count):
        W = rng.randint(6, 30)
        out.append((Fraction(rng.randint(1 - W, W - 1)), W,
                    rng.choice((8, 12))))
    return out


CASES = [
    ("trivial-line-mw", lambda: mw_cohomology(trivial_module(1, P, 8, 12)),
     {0: 1, 1: 0}),
    ("trivial-line-compact",
     lambda: compact_support_cohomology(trivial_module(1, P, 8, 12)),
     {1: 0, 2: 1}),
    ("trivial-plane-mw", lambda: mw_cohomology(trivial_module(2, P, 8, 6)),
     {0: 1, 1: 0, 2: 0}),
    ("trivial-plane-compact",
     lambda: compact_support_cohomology(trivial_module(2, P, 8, 6)),
     {2: 0, 3: 0, 4: 1}),
]
for c, M, W in ((3, 8, 12), (6, 8, 12), (9, 8, 12), (9, 12, 20)):
    CASES += [
        (f"dx+{c}-M{M}-W{W}-mw",
         lambda c=c, M=M, W=W: mw_cohomology(_dx_plus({0: c}, M, W)),
         {0: 1, 1: 0}),
        (f"dx+{c}-M{M}-W{W}-compact",
         lambda c=c, M=M, W=W: compact_support_cohomology(
             _dx_plus({0: c}, M, W)),
         {1: 0, 2: 1}),
    ]
for a, W, M in [(Fraction(0), 20, 12), (Fraction(1), 20, 12),
                (Fraction(1, 2), 20, 12), (Fraction(3, 2), 20, 12),
                (Fraction(-3, 2), 20, 12), (Fraction(5, 4), 20, 12),
                (Fraction(2), 20, 12)] + _kummer_draws():
    want = {0: 1, 1: 1} if a.denominator == 1 else {0: 0, 1: 0}
    CASES.append((f"tdt+{a}-M{M}-W{W}",
                  lambda a=a, W=W, M=M: local_cohomology(
                      kummer_module(a, P, M, W)),
                  want))

MISSES = [
    # the truncation of e^(-3x) is a cycle only up to its tail valuation,
    # about W/2, so at M = 12 no window up to 16 certifies h^0 = 1
    *[pytest.param(lambda W=W: mw_cohomology(_dx_plus({0: 3}, 12, W)),
                   {0: 1, 1: 0}, id=f"dx+3-M12-W{W}-mw",
                   marks=_miss(15, "h^0 = 0 at every W from 6 to 16"))
      for W in (6, 11, 16)],
    # compact supports of d/dx + 3 flip with the window
    pytest.param(lambda: compact_support_cohomology(_dx_plus({0: 3}, 8, 13)),
                 {1: 0, 2: 1}, id="dx+3-M8-W13-compact",
                 marks=_miss(6, "h_c^1 = 1 at W = 13")),
    # t^-54 is in the Robba ring but not in the window -30..30
    pytest.param(lambda: local_cohomology(kummer_module(54, P, 16, 30)),
                 {0: 1, 1: 1}, id="tdt+54-M16-W30",
                 marks=_miss(11, "integer exponent outside the window")),
    # a one-term class at the window edge reads as divergent
    pytest.param(lambda: local_cohomology(kummer_module(30, P, 12, 30)),
                 {0: 1, 1: 1}, id="tdt+30-M12-W30",
                 marks=_miss(9, "the slope rule excludes t^-30 at the edge")),
    # 3^8/2 vanishes at M = 8 and is dropped at parse time, so the module
    # reads as t d/dt
    pytest.param(lambda: local_cohomology(
        kummer_module(Fraction(3 ** 8, 2), P, 8, 10)),
                 {0: 0, 1: 0}, id="tdt+3^8/2-M8-W10",
                 marks=_miss(2, "data that vanish at M become exact zeros")),
]


# Trivial polynomial connections d/dx + sum a_k x^k, by the windows where
# today's rule is right for cohomology and for compact supports; every
# other window misses at M = 8 and 12 alike.  Raising the exponent, 3x and
# 9x^2 flip with W (item 17); 3 + 9x^2 dies at precision like d/dx + 3
# (item 15).
for name, poly, right_mw, right_c, item in (
        ("3x", {1: 3}, {12}, set(), 17),
        ("9x^2", {2: 9}, {10, 12, 13}, {10, 11, 13}, 17),
        ("3+9x^2", {0: 3, 2: 9}, set(), set(), 15)):
    for M, W in product((8, 12), range(10, 14)):
        for side, cohomology, want, right in (
                ("mw", mw_cohomology, {0: 1, 1: 0}, right_mw),
                ("compact", compact_support_cohomology, {1: 0, 2: 1},
                 right_c)):
            key = f"dx+{name}-M{M}-W{W}-{side}"
            run = (lambda cohomology=cohomology, poly=poly, M=M, W=W:
                   cohomology(_dx_plus(poly, M, W)))
            if W in right:
                CASES.append((key, run, want))
            else:
                MISSES.append(pytest.param(
                    run, want, id=key,
                    marks=_miss(item, f"d/dx + {name} is trivial")))

# c_1 dx + c_2 dy on the plane.  With v_3(c_i) >= 2 today's rule is right
# except on the compact side at (M, W) = (12, 10), whose h_c^2 and h_c^3
# are the Künneth images of d/dx + 9's h_c^1 = 1 (item 6); a coefficient
# 3 dies at precision like d/dx + 3 (item 15).
for c, (M, W) in product(((9, 9), (9, 27), (3, 9), (3, 3)),
                          ((8, 6), (8, 8), (12, 8), (12, 10))):
    for side, cohomology, want in (
            ("mw", mw_cohomology, {0: 1, 1: 0, 2: 0}),
            ("compact", compact_support_cohomology, {2: 0, 3: 0, 4: 1})):
        key = f"plane{c[0]},{c[1]}-M{M}-W{W}-{side}"
        run = (lambda cohomology=cohomology, c=c, M=M, W=W:
               cohomology(_plane(c, M, W)))
        if 3 in c:
            MISSES.append(pytest.param(
                run, want, id=key,
                marks=_miss(15, "a coefficient 3 makes every dim read 0")))
        elif side == "compact" and (M, W) == (12, 10):
            MISSES.append(pytest.param(
                run, want, id=key,
                marks=_miss(6, "h_c^2 and h_c^3 are not 0")))
        else:
            CASES.append((key, run, want))

# d/dx + a + bx with b a unit: right only for d/dx + x at W = 12.
NO_SECTION = [
    pytest.param(poly, M, W, id=f"dx+{name}-M{M}-W{W}",
                 marks=() if (name, W) == ("x", 12) else _miss(
                     17, "the box drops the exponent-raising term"))
    for name, poly in (("x", {1: 1}), ("1+x", {0: 1, 1: 1}))
    for M, W in product((8, 12), range(10, 14))]


@pytest.mark.parametrize("run,want", [pytest.param(r, w, id=name)
                                      for name, r, w in CASES])
def test_certified_dims_match_the_closed_form(run, want):
    assert run().report.dims() == want


@pytest.mark.parametrize("run,want", MISSES)
def test_known_misses(run, want):
    assert run().report.dims() == want


@pytest.mark.parametrize("poly,M,W", NO_SECTION)
def test_exponent_raising_lines_have_a_class_and_no_section(poly, M, W):
    dims = mw_cohomology(_dx_plus(poly, M, W)).report.dims()
    assert dims[0] == 0 and dims[1] >= 1


# Dwork's exponential modules at p = 2: f = x^d, under both ring kinds.
DWORK_RUNS = list(product((8, 12), (8, 10, 13, 16, 20)))


def dwork_text(kind, d, M, W, command="cohomology"):
    """The problem text of d + pi d(x^d) at p = 2, pi = -2: Gamma_x is
    -2 d x^(d-1), on a ``kind`` ring with window 0:W."""
    return "\n".join(["version 1", "p 2", f"M {M}",
                      f"ring W {kind} vars x window 0:{W}",
                      "series G W", f"  term {d - 1} {-2 * d}", "end",
                      "matrix G W 1 1", "  entry 1 1 G", "end",
                      "module M1 ring W rank 1 gamma x G",
                      f"command {command} M1"]) + "\n"


DWORK = [
    pytest.param(kind, d, M, W, id=f"dwork-x^{d}-{kind}-M{M}-W{W}",
                 marks=() if d == 1 else pytest.mark.xfail(
                     strict=True, reason="ROADMAP items 17 and 1: the box "
                     "drops the exponent-raising term, so h^1 = d - 1 is "
                     "out of reach, and a false h^0 = 1 can be certified"))
    for d in (1, 3, 5) for kind in ("tate", "dagger") for M, W in DWORK_RUNS]


@pytest.mark.parametrize("kind,d,M,W", DWORK)
def test_dwork_exponential_modules(kind, d, M, W):
    module = parse_problem(dwork_text(kind, d, M, W)).command[1][0]
    assert mw_cohomology(module).report.dims() == {0: 0, 1: d - 1}


def test_dwork_reports_do_not_tell_tate_from_dagger():
    # both kinds assemble the same complex, so a certificate on a tate
    # window is one about the dagger algebra
    for d in (1, 3, 5):
        for M, W in DWORK_RUNS:
            tate, dagger = (emit_report(run_command(parse_problem(
                dwork_text(kind, d, M, W)))) for kind in ("tate", "dagger"))
            assert tate == dagger, (d, M, W)
