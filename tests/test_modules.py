"""Modules with connection: operator actions, compatibility checks,
pullbacks, and traces along cyclic covers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc.cohomology import ChainVector, mw_cohomology
from ovc.modules import (
    ModuleVector,
    SeriesMatrix,
    SigmaNablaModule,
    apply_D,
    check_frobenius_compat,
    check_integrability,
    trace_map,
    trace_projector_check,
)
from ovc.padics import make_scalar
from ovc.pairing import apply_complex_map
from ovc.series import (
    DAGGER,
    ROBBA,
    RingDescriptor,
    Series,
    frobenius_substitute,
    invert_series,
    kummer_substitute,
    t_d_dt,
)

P, M = 3, 12
R = RingDescriptor(ROBBA, ("t",), ((-12, 12),), P, M, slope=Fraction(1), q=3)
W2 = RingDescriptor(DAGGER, ("x", "y"), ((0, 8), (0, 8)), P, M, decay=1)


def test_apply_D_examples():
    mod = SigmaNablaModule(R, 1, connection=SeriesMatrix.zero(R, 1))
    out = apply_D(mod, ModuleVector.make(mod, [Series.monomial(R, (1,))]))
    assert out.coords[0].terms == Series.monomial(R, (1,)).terms
    n2 = SigmaNablaModule(R, 2,
                          connection=SeriesMatrix.from_scalars(R, [[0, 1], [0, 0]]))
    out2 = apply_D(n2, ModuleVector.make(n2, [0, 1]))
    assert [not c.is_zero() for c in out2.coords] == [True, False]
    const = apply_D(mod, ModuleVector.make(mod, [5]))
    assert const.is_zero_at_precision()


def _nabla_x(mod, exp, c):
    """The dx coefficient of nabla(c x^exp e_0), read off the first
    differential of the module's de Rham complex, as {exponent: unit}."""
    cc = mw_cohomology(mod)
    v = ChainVector(cc.cdata.spaces[0],
                    {(0, (), exp): make_scalar(c, P, M)})
    out = apply_complex_map(cc, 0, v).data
    return {I: x.unit for (a, J, I), x in out.items() if J == (0,)}


def test_apply_nabla_v_examples():
    z = SeriesMatrix.zero(W2, 1)
    mod = SigmaNablaModule(W2, 1, gammas=(("x", z), ("y", z)))
    assert _nabla_x(mod, (2, 0), 1) == {(1, 0): 2}
    const = SigmaNablaModule(W2, 1, gammas=(
        ("x", SeriesMatrix.from_scalars(W2, [[7]])), ("y", z)))
    assert _nabla_x(const, (0, 0), 1) == {(0, 0): 7}
    assert _nabla_x(mod, (0, 0), 4) == {}


def test_frobenius_compat():
    trivial = SigmaNablaModule(R, 1, connection=SeriesMatrix.zero(R, 1),
                               frobenius=SeriesMatrix.identity(R, 1))
    assert check_frobenius_compat(trivial)
    # rank one with constant a = m/(q-1) and F acting through t^m:
    # t dPhi/dt = m Phi and q a - a = m, so the square commutes exactly
    a = Series.monomial(R, (0,), Fraction(1, 2))
    mod = SigmaNablaModule(R, 1, connection=SeriesMatrix.make(R, [[a]]),
                           frobenius=SeriesMatrix.make(
                               R, [[Series.monomial(R, (1,))]]))
    assert check_frobenius_compat(mod)
    bad = SigmaNablaModule(R, 1, connection=SeriesMatrix.zero(R, 1),
                           frobenius=SeriesMatrix.make(
                               R, [[Series.monomial(R, (1,))]]))
    assert not check_frobenius_compat(bad)
    # rank-2 nilpotent with the filtration-compatible Frobenius diag(1, q)
    N = SeriesMatrix.from_scalars(R, [[0, 1], [0, 0]])
    Phi = SeriesMatrix.make(R, [
        [Series.one(R), Series.zero(R)],
        [Series.zero(R), Series.monomial(R, (0,), 3)]])
    assert check_frobenius_compat(
        SigmaNablaModule(R, 2, connection=N, frobenius=Phi))


def test_integrability_examples():
    z = SeriesMatrix.zero(W2, 1)
    assert check_integrability(SigmaNablaModule(W2, 1,
                                                gammas=(("x", z), ("y", z))))
    gy = SeriesMatrix.make(W2, [[Series.monomial(W2, (0, 1))]])
    assert not check_integrability(SigmaNablaModule(
        W2, 1, gammas=(("x", gy), ("y", z))))
    gx2 = SeriesMatrix.make(W2, [[Series.monomial(W2, (0, 1))]])
    gy2 = SeriesMatrix.make(W2, [[Series.monomial(W2, (1, 0))]])
    assert check_integrability(SigmaNablaModule(
        W2, 1, gammas=(("x", gx2), ("y", gy2))))


def _kummer_pullback(mod, e):
    """Pullback along t -> t^e: the dlog chain rule multiplies the
    connection by the cover degree."""
    sub = lambda s: kummer_substitute(s, e)
    return SigmaNablaModule(
        mod.ring, mod.rank, connection=mod.connection.map(sub).scale(e),
        frobenius=mod.frobenius.map(sub) if mod.frobenius else None)


def test_pullback_examples():
    a = Series.monomial(R, (0,), Fraction(1, 2))
    mod = SigmaNablaModule(R, 1, connection=SeriesMatrix.make(R, [[a]]))
    assert _kummer_pullback(mod, 1).connection.rows[0][0].terms == a.terms
    doubled = _kummer_pullback(mod, 2)
    assert doubled.connection.rows[0][0].coeff((0,)).sub(
        make_scalar(1, P, M)).is_zero()
    # D of a pulled-back section is the degree times the pulled-back D,
    # for the Kummer covers and for the Frobenius lift t -> t^q
    v = ModuleVector.make(mod, [Series.from_ints(R, {(1,): 1, (-2,): 4})])
    Dv = apply_D(mod, v)
    q = R.qeff
    frob = SigmaNablaModule(R, 1, connection=mod.connection.map(
        frobenius_substitute).scale(q))
    for e, pulled, sub in (
            (1, _kummer_pullback(mod, 1), lambda s: kummer_substitute(s, 1)),
            (2, doubled, lambda s: kummer_substitute(s, 2)),
            (q, frob, frobenius_substitute)):
        lhs = apply_D(pulled, ModuleVector(pulled, tuple(
            sub(c) for c in v.coords)))
        for x, y in zip(lhs.coords, Dv.coords):
            assert x.sub(sub(y).scale(e)).is_zero()


def test_pullback_preserves_compat():
    a = Series.monomial(R, (0,), Fraction(1, 2))
    mod = SigmaNablaModule(R, 1, connection=SeriesMatrix.make(R, [[a]]),
                           frobenius=SeriesMatrix.make(
                               R, [[Series.monomial(R, (1,))]]))
    pulled = _kummer_pullback(mod, 2)
    assert check_frobenius_compat(pulled)
    assert not check_frobenius_compat(SigmaNablaModule(
        R, 1, connection=mod.connection,
        frobenius=pulled.frobenius))


def test_trace_examples():
    R5 = RingDescriptor(ROBBA, ("t",), ((-12, 12),), 5, 10, slope=Fraction(1))
    w = Series.from_ints(R5, {(2,): 1, (3,): 1})
    tr = trace_map(w, 2)
    ((e, c),) = tr.terms
    assert e == (1,) and c.unit == 2
    one = trace_map(Series.one(R5), 3)
    assert one.coeff((0,)).unit == 3
    with pytest.raises(ValueError):
        trace_map(w, 5)


@given(st.integers(-4, 4), st.integers(1, 9), st.sampled_from([2, 3, 4]))
@settings(max_examples=60)
def test_trace_of_pullback_is_degree(k, c, e):
    R5 = RingDescriptor(ROBBA, ("t",), ((-20, 20),), 5, 10, slope=Fraction(1))
    if e % 5 == 0:
        return
    f = Series.from_ints(R5, {(k,): c})
    raw = trace_map(kummer_substitute(f, e), e)
    expected = f.scale(e)
    assert raw.sub(expected).is_zero()


def test_trace_projector_check():
    R5 = RingDescriptor(ROBBA, ("t",), ((-18, 18),), 5, 10, slope=Fraction(1))
    mod = SigmaNablaModule(R5, 1, connection=SeriesMatrix.zero(R5, 1))
    one = (Series.one(R5),)
    for e in (2, 3):
        assert trace_projector_check(mod, e, h0_reps=[one], h1_reps=[one])


def test_leibniz_rule_for_D():
    n2 = SigmaNablaModule(R, 2,
                          connection=SeriesMatrix.from_scalars(R, [[0, 1], [0, 0]]))
    c = Series.from_ints(R, {(2,): 5, (-1,): 1})
    v = ModuleVector.make(n2, [Series.one(R), Series.monomial(R, (1,))])
    cv = ModuleVector(n2, tuple(c.mul(x) for x in v.coords))
    lhs = apply_D(n2, cv)
    dv = apply_D(n2, v)
    rhs = tuple(t_d_dt(c).mul(x).add(c.mul(y))
                for x, y in zip(v.coords, dv.coords))
    for a, b in zip(lhs.coords, rhs):
        diff = a.sub(b)
        assert diff.is_zero() or all(cc.val is None or cc.val >= M - 1
                                     for _, cc in diff.terms)


def test_dual_module():
    gx = SeriesMatrix.from_scalars(W2, [[2]])
    mod = SigmaNablaModule(W2, 1, gammas=(("x", gx),))
    dual = mod.dual()
    assert dual.gamma("x").rows[0][0].coeff((0, 0)).sub(
        make_scalar(-2, P, M)).is_zero()


def _unit_det_matrix(ring, n, rng):
    """U D L: D diagonal of units c t^k (1 + p t), U and L unitriangular
    with small integral entries, so the determinant is the product of D's
    diagonal."""
    one, zero = Series.one(ring), Series.zero(ring)

    def unitriangular(upper):
        return SeriesMatrix.make(ring, [[
            one if i == j else
            Series.from_ints(ring, {(rng.randint(-1, 1),):
                                    rng.randint(-4, 4) or 1})
            if (j > i) == upper else zero
            for j in range(n)] for i in range(n)])

    D = SeriesMatrix.make(ring, [[
        Series.from_ints(ring, {(k,): rng.choice((1, 2, 4, 5)), (k + 1,): P})
        if i == j else zero for j in range(n)]
        for i, k in ((i, rng.randint(-1, 1)) for i in range(n))])
    return unitriangular(True).mul(D).mul(unitriangular(False))


def test_inverse_of_unit_determinant_matrices():
    """A A^-1 is the identity to M - 4 digits, the tolerance criterion 9
    asks of W W^-1, on seeded 1x1, 2x2 and 3x3 matrices; a 1x1 inverse is
    the series inverse of its entry, term for term."""
    ring = RingDescriptor(ROBBA, ("t",), ((-10, 10),), P, M,
                          slope=Fraction(1))
    rng = random.Random(33)
    for n in (1, 2, 3):
        for _ in range(10):
            A = _unit_det_matrix(ring, n, rng)
            inv = A.inverse()
            assert A.mul(inv).sub(SeriesMatrix.identity(ring, n)) \
                .is_zero_at_precision(M - 4)
            if n == 1:
                assert inv.rows[0][0].terms == \
                    invert_series(A.rows[0][0]).terms
