"""The acceptance battery: one callable per criterion, shared by the CLI
selftest command and the test suite.  Each check pins its tolerances here;
nothing is deferred to later calibration."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from .cohomology import (
    ChainVector,
    compact_support_cohomology,
    local_cohomology,
    mw_cohomology,
)
from .factor import ElementaryOp, apply_elementary, factor_plus
from .groebner import (
    complete_leading_basis,
    hadamard_check,
    reduce_element,
    reduces_to_zero,
    rho_value,
)
from .modules import (
    ModuleVector,
    SeriesMatrix,
    SigmaNablaModule,
    apply_D,
    trace_projector_check,
)
from .padics import make_scalar
from .pairing import apply_complex_map, pairing_nondegeneracy_check, residue_pairing
from .pushforward import (
    leray_assemble,
    perturb_r1f,
    pushforward_complex,
    snake_check,
)
from .series import (
    DAGGER,
    ROBBA,
    TATE,
    RingDescriptor,
    Series,
    gauss_norm,
)
from .unipotent import (
    bounddenom,
    h0_h1_unipotent,
    horizontal_iterate,
    nonconstant_part,
    strongly_unipotent_basis,
)


class CriterionResult(NamedTuple):
    number: int
    passed: bool
    detail: str


def trivial_module(nvars: int, p: int, M: int, window: int) -> SigmaNablaModule:
    names = tuple("xyzw"[:nvars])
    ring = RingDescriptor(TATE, names, ((0, window),) * nvars, p, M)
    z = SeriesMatrix.zero(ring, 1)
    return SigmaNablaModule(ring, 1, gammas=tuple((v, z) for v in names))


def unit_constant_module(p: int, M: int, window: int,
                         nvars: int = 1) -> SigmaNablaModule:
    """The trivial module with Gamma_x = 1, that is d/dx + 1.  It is not
    Dwork's module d + pi dx: |1| > |pi|, so its solution e^(-x) does not
    converge on the closed unit disc."""
    module = trivial_module(nvars, p, M, window)
    (x, _), *rest = module.gammas
    return module._replace(gammas=(
        (x, SeriesMatrix.identity(module.ring, 1)), *rest))


def robba_line(p: int, M: int, window: int) -> RingDescriptor:
    """The Robba window -window..window in t, slope 1."""
    return RingDescriptor(ROBBA, ("t",), ((-window, window),), p, M,
                          slope=Fraction(1))


def kummer_module(a, p: int, M: int, window: int) -> SigmaNablaModule:
    ring = robba_line(p, M, window)
    conn = SeriesMatrix.make(ring, [[Series.monomial(ring, (0,), Fraction(a))]])
    return SigmaNablaModule(ring, 1, connection=conn)


# -- criteria -----------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """MW cohomology of the line and the plane, trivial coefficients."""
    ok, details = True, []
    for p in (3, 5):
        t0 = time.monotonic()
        d1 = mw_cohomology(trivial_module(1, p, 20, 200)).report.dims()
        d2 = mw_cohomology(trivial_module(2, p, 20, 200)).report.dims()
        dt = time.monotonic() - t0
        good = d1 == {0: 1, 1: 0} and d2 == {0: 1, 1: 0, 2: 0} and dt < 5.0
        ok = ok and good
        details.append(f"p={p}: line {d1}, plane {d2}"
                       + ("" if dt < 5.0 else f", {dt:.2f}s over 5 s"))
    return CriterionResult(1, ok, "; ".join(details))


def criterion_2() -> CriterionResult:
    """Compact supports: top degree one-dimensional, the rest zero, with the
    dlog volume class as generator."""
    ok, details = True, []
    for n, window in ((1, 60), (2, 24)):
        mod = trivial_module(n, 3, 16, window)
        cc = compact_support_cohomology(mod)
        dims = cc.report.dims()
        expect = {n + j: (1 if j == n else 0) for j in range(n + 1)}
        good = dims == expect
        gen = cc.report.generators(2 * n)
        if good and len(gen) == 1:
            recs = gen[0].records()
            lbl, val = recs[0]
            good = (len(recs) == 1 and lbl[2] == (1,) * n
                    and lbl[1] == tuple(range(n)))
            # cross-check by pairing against 1
            mw = mw_cohomology(mod.dual())
            one = mw.report.generators(0)[0]
            pairing = residue_pairing(gen[0], one, n)
            good = good and pairing.val == 0
        else:
            good = False
        ok = ok and good
        details.append(f"n={n}: {dims}")
    return CriterionResult(2, ok, "; ".join(details))


def criterion_3() -> CriterionResult:
    """The rank-one dlog family over the annulus, against the Robba ring's
    answer: (1, 1) for an integer exponent, (0, 0) otherwise."""
    window, p, M = 30, 3, 16
    ok, details = True, []
    for a, expect in ((0, (1, 1)), (Fraction(1, 2), (0, 0))):
        dims = local_cohomology(kummer_module(a, p, M, window)).report.dims()
        ok = ok and dims == {0: expect[0], 1: expect[1]}
        details.append(f"a={a}: {dims}")
    return CriterionResult(3, ok, "; ".join(details))


def criterion_4() -> CriterionResult:
    """Residue adjointness on random windowed pairs, exactly at precision.

    Pairs are drawn inside the window with a one-step margin so that every
    pairing partner of a differential term is present in the model."""
    rng = random.Random(20240)
    fails = total = 0
    for n, window in ((1, 10), (2, 6)):
        mod = trivial_module(n, 3, 14, window)
        cc = compact_support_cohomology(mod)
        mwd = mw_cohomology(mod.dual())
        his = (window,) * n
        for i in range(n):
            csp, wsp = cc.cdata.spaces[i], mwd.cdata.spaces[n - i - 1]
            cl = [l for l in csp.labels
                  if all(1 <= x <= h - 1 for x, h in zip(l[2], his))]
            wl = [l for l in wsp.labels
                  if all(x <= h - 1 for x, h in zip(l[2], his))]
            rounds = 334 if n == 1 else 167
            for _ in range(rounds):
                total += 1
                v = ChainVector(csp, {
                    lbl: make_scalar(rng.randint(1, 50), 3, 14)
                    for lbl in rng.sample(cl, k=min(4, len(cl)))})
                w = ChainVector(wsp, {
                    lbl: make_scalar(rng.randint(1, 50), 3, 14)
                    for lbl in rng.sample(wl, k=min(4, len(wl)))})
                lhs = residue_pairing(v, apply_complex_map(mwd, n - i - 1, w), n)
                rhs = residue_pairing(apply_complex_map(cc, i, v), w, n)
                if not lhs.add(rhs).is_zero():
                    fails += 1
    return CriterionResult(4, fails == 0,
                           f"{total - fails}/{total} pairs exact")


def criterion_5() -> CriterionResult:
    """Pairing nondegeneracy for the trivial test modules."""
    ok, details = True, []
    for n, window in ((1, 30), (2, 12)):
        rep = pairing_nondegeneracy_check(trivial_module(n, 3, 14, window))
        ok = ok and rep.nondegenerate
        details.append(f"trivial n={n}: "
                       + ("full rank" if rep.nondegenerate else "FAIL"))
    return CriterionResult(5, ok, "; ".join(details))


def criterion_6() -> CriterionResult:
    """Denominator bound, exhaustively on the small box."""
    t0 = time.monotonic()
    worst = 0
    for p in (2, 3, 5):
        for m in range(-20, 21):
            for l in range(1, 31):
                for e in range(1, 5):
                    bound, exact = bounddenom(m, l, e, p, verify=True)
                    if exact > bound:
                        return CriterionResult(
                            6, False, f"exact {exact} > bound {bound} at "
                            f"(m={m}, l={l}, e={e}, p={p})")
                    worst = max(worst, exact)
    dt = time.monotonic() - t0
    return CriterionResult(
        6, dt < 10.0, f"exhaustive box ok, worst exact {worst}"
        + ("" if dt < 10.0 else f", {dt:.2f}s over 10 s"))


def criterion_7() -> CriterionResult:
    """Horizontal iteration: exactness on the worked example and positive
    convergence slopes on random instances."""
    p, M, window = 3, 60, 10
    ring = robba_line(p, M, window)
    N = SeriesMatrix.from_scalars(ring, [[0, 1], [0, 0]])
    mod = SigmaNablaModule(ring, 2, connection=N)
    data = strongly_unipotent_basis(mod)
    w = ModuleVector.make(mod, [Series.monomial(ring, (3,)), Series.one(ring)])
    log = horizontal_iterate(data, w, window)
    ok = apply_D(mod, log.result).is_zero_at_precision(M - log.headroom_used)
    detail = [f"worked example horizontal: {ok}"]

    rng = random.Random(7)
    slopes_ok = True
    ceiling = Fraction(M - window)   # w-value floor once a difference vanishes
    for trial in range(6):
        rank = rng.choice((2, 3))
        rows = [[Series.zero(ring)] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                rows[i][j] = Series.make(ring, {
                    (rng.randint(-1, 1),):
                    make_scalar(rng.randint(0, 3), p, M)})
        Nr = SeriesMatrix.make(ring, rows)
        modr = SigmaNablaModule(ring, rank, connection=Nr)
        datar = strongly_unipotent_basis(modr)
        coords = [Series.make(ring, {(rng.randint(-4, 4),):
                                     make_scalar(rng.randint(1, 9), p, M)})
                  for _ in range(rank)]
        logr = horizontal_iterate(datar, ModuleVector.make(modr, coords), 8)
        vals = [ceiling if v is None else v for v in logr.steps]
        slope = (vals[-1] - vals[0]) / (len(vals) - 1)
        slopes_ok = slopes_ok and slope > 0
    detail.append(f"random slopes positive: {slopes_ok}")
    return CriterionResult(7, ok and slopes_ok, "; ".join(detail))


def criterion_8() -> CriterionResult:
    """Strongly unipotent basis extraction and span invariance."""
    p, M, window = 3, 24, 10
    ring = robba_line(p, M, window)
    t = Series.monomial(ring, (1,))
    N = SeriesMatrix.make(ring, [[Series.zero(ring), t],
                                 [Series.zero(ring), Series.zero(ring)]])
    mod = SigmaNablaModule(ring, 2, connection=N)
    d1 = strongly_unipotent_basis(mod)
    x_zero = all(c.is_zero() or (c.val is not None and c.val >= M)
                 for row in d1.nilpotent_X for c in row)
    ok = x_zero and d1.verify()
    # second filtration: w2' = w2 + t^2 w1
    filt = SeriesMatrix.make(ring, [[Series.one(ring), Series.monomial(ring, (2,))],
                                    [Series.zero(ring), Series.one(ring)]])
    d2 = strongly_unipotent_basis(mod, filt)
    ok = ok and d2.verify()
    U1, U2 = d1.change_of_basis, d2.change_of_basis
    const = U1.inverse().mul(U2).map(
        nonconstant_part).is_zero_at_precision(M - 2)
    return CriterionResult(
        8, ok and const,
        f"X=0 {x_zero}, gauge verified, transition constant {const}")


def criterion_9() -> CriterionResult:
    """Factorization of random integral-invertible matrices."""
    p, M, window = 3, 14, 16
    ring = robba_line(p, M, window)
    rng = random.Random(99)

    def rand_plus_unit():
        # 1 + p t^k, a plus-part unit
        k = rng.randint(1, 2)
        return Series.make(ring, {(0,): make_scalar(1, p, M),
                                  (k,): make_scalar(p * rng.randint(1, 2), p, M)})

    checked = 0
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 3
        diag_vals = [rng.randint(0, 1) for _ in range(n)]
        while sum(diag_vals) > 3:
            diag_vals[rng.randrange(n)] = 0
        rows = [[Series.zero(ring) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = Series.monomial(
                ring, (rng.randint(-2, 2),), p ** diag_vals[i])
        U = SeriesMatrix.make(ring, rows)
        # sprinkle integral elementary operations
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            lam = Series.make(ring, {(rng.randint(-1, 1),):
                                     make_scalar(rng.randint(1, 4), p, M)})
            U = apply_elementary(U, ElementaryOp("add", i, j, lam), side="row")
        U = apply_elementary(
            U, ElementaryOp("scale", rng.randrange(n), -1, rand_plus_unit()),
            side="row")
        res = factor_plus(U, max_det_valuation=4)
        # reconstruction and shape checks
        digits = M - 4
        if not res.V.mul(res.W).sub(U).is_zero_at_precision(digits):
            return CriterionResult(9, False, f"V W != U at trial {trial}")
        vals = [v for v in res.det_valuations]
        if vals != list(range(vals[0], -1, -1)):
            return CriterionResult(9, False,
                                   f"det valuations {vals} not stepping by 1")
        g = res.V.max_defect_value()
        if g is not None and g < 0:
            return CriterionResult(9, False, "V not integral")
        vdet = res.V.det().gauss_value()
        if vdet != 0:
            return CriterionResult(9, False, f"V det content {vdet}")
        if any(e[0] < 0 for mat in (res.W, res.W_inv) for row in mat.rows
               for s in row for e in s.support()):
            return CriterionResult(9, False, "W not plus-part")
        ident = res.W.mul(res.W_inv).sub(SeriesMatrix.identity(ring, n))
        if not ident.is_zero_at_precision(digits):
            return CriterionResult(9, False, "W inverse fails")
        checked += 1
    return CriterionResult(9, True,
                           f"{checked} random matrices factored and verified")


def criterion_10() -> CriterionResult:
    """Norm-controlled division and the three-circles check."""
    p, M = 3, 14
    ring = RingDescriptor(DAGGER, ("x", "y"), ((0, 14), (0, 14)), p, M, decay=1)
    rng = random.Random(5)

    def rand_series(maxdeg=2, terms=3, unit=False):
        data = {}
        for _ in range(terms):
            e = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
            data[e] = make_scalar(rng.randint(1, 8) * p ** rng.randint(0, 1),
                                  p, M)
        if unit:
            data[(0, 0)] = make_scalar(1, p, M)
        return Series.make(ring, data)

    count = divided = 0
    for trial in range(100):
        g1, g2 = rand_series(), rand_series()
        if g1.is_zero() or g2.is_zero():
            continue
        basis = complete_leading_basis([g1, g2])
        # y in the ideal and divisible by p, z = y + g1 * (a unit), so that
        # |z| > |y| as a rule and the division has to cancel terms
        y = g1.mul(rand_series(1, 2, unit=True)).add(
            g2.mul(rand_series(1, 2))).scale(p)
        if y.is_zero():
            continue
        z = y.add(g1.mul(rand_series(1, 2, unit=True)))
        u = reduce_element(y, z, basis)
        divided += u.terms != z.terms
        gy, gu = gauss_norm(y).value, gauss_norm(u).value
        if gu is not None and gy is not None and gu < gy:
            return CriterionResult(10, False, f"|u| > |y| at trial {trial}")
        D = basis[0].rho_D
        ru, rz = rho_value(u, D), rho_value(z, D)
        if ru is not None and rz is not None and ru < rz:
            return CriterionResult(10, False,
                                   f"|u|_rho > |z|_rho at trial {trial}")
        if not reduces_to_zero(u.sub(z), basis):
            return CriterionResult(10, False,
                                   f"u - z not in the ideal at trial {trial}")
        h = hadamard_check(u if not u.is_zero() else y, 2, Fraction(1, 2))
        if not h.passed:
            return CriterionResult(10, False,
                                   f"three-circles failed at trial {trial}")
        count += 1
    # monomial equality in the three-circles bound
    mono = Series.monomial(ring, (3, 1), 9)
    h = hadamard_check(mono, 3, Fraction(2, 3))
    eq = h.value_C == (1 - Fraction(2, 3)) * h.value_A + Fraction(2, 3) * h.value_B
    return CriterionResult(10, count >= 60 and 2 * divided >= count and eq,
                           f"{count} instances, {divided} divided; "
                           f"monomial equality {eq}")


def criterion_11() -> CriterionResult:
    """Snake exactness for the test bundles, with a failing negative control."""
    p, M = 3, 12
    ring = robba_line(p, M, 16)
    bundles = {name: pushforward_complex(mod, ring)
               for name, mod in (("trivial", trivial_module(1, p, M, 12)),
                                 ("twisted", unit_constant_module(p, M, 12)))}
    results = [(name, all(v.passed for v in snake_check(bundle)))
               for name, bundle in bundles.items()]
    bad = snake_check(perturb_r1f(bundles["trivial"]))
    neg = (not all(v.passed for v in bad)) and \
        [v.node for v in bad if not v.passed] == ["r1f"]
    ok = all(r for _, r in results) and neg
    return CriterionResult(11, ok, "; ".join(
        f"{n}: {'exact' if r else 'FAIL'}" for n, r in results)
        + f"; negative control fails at r1f: {neg}")


def criterion_12() -> CriterionResult:
    """Trace after pullback is multiplication by the degree, and the
    normalized composite fixes cohomology classes."""
    p, M, window = 5, 12, 18
    ring = robba_line(p, M, window)
    mod = SigmaNablaModule(ring, 1, connection=SeriesMatrix.zero(ring, 1))
    data = strongly_unipotent_basis(mod)
    rep = h0_h1_unipotent(data)
    h0 = [tuple(v.coords) for v in rep.generators(0)]
    h1 = [tuple(v.coords) for v in rep.generators(1)]
    ok = all(trace_projector_check(mod, e, h0_reps=h0, h1_reps=h1)
             for e in (2, 3))
    return CriterionResult(12, ok,
                           "identity on ring elements and classes for e in {2,3}")


def criterion_13() -> CriterionResult:
    """Leray assembly against the direct computation on the plane."""
    p, M, window = 3, 12, 10
    ok, details = True, []
    for name, mod in (("trivial", trivial_module(2, p, M, window)),
                      ("twisted-x",
                       unit_constant_module(p, M, window, nvars=2))):
        rep = leray_assemble(mod, "x", "y")
        direct = mw_cohomology(mod).report.dims()
        good = rep.euler_ok and all(v for _, v, _ in rep.node_verdicts) \
            and rep.dims_M == direct
        ok = ok and good
        details.append(f"{name}: dims {rep.dims_M}, euler {rep.euler_ok}")
    return CriterionResult(13, ok, "; ".join(details))


def criterion_14() -> CriterionResult:
    """Byte-determinism of reports across repeated runs."""
    import os
    import subprocess
    import sys
    import tempfile

    problem = """version 1
p 3
M 12
ring W tate vars x window 0:12
ring R robba vars t window -14:14 slope 1
matrix Z W 1 1
end
module M1 ring W rank 1 gamma x Z
command pushforward M1 robba R
"""
    outputs = []
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "problem.ovc")
        with open(path, "w") as fh:
            fh.write(problem)
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "ovc.cli", "pushforward", path,
                 "--format", "structured"],
                capture_output=True)
            if proc.returncode != 0:
                return CriterionResult(14, False, f"exit {proc.returncode}: "
                                       f"{proc.stderr.decode()[:200]}")
            outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    return CriterionResult(14, ok,
                           f"{len(outputs[0])} bytes, identical across "
                           "three runs")


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13, criterion_14]


def run_all() -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        try:
            results.append(fn())
        except Exception as ex:  # a crash is a failure, not an abort
            num = int(fn.__name__.rsplit("_", 1)[1])
            results.append(CriterionResult(num, False, f"exception: {ex!r}"))
    return results
