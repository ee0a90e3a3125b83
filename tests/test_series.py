"""Windowed series arithmetic: worked examples and the ring laws."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ovc.errors import (
    AmbiguousResidueError,
    NotARecognizedUnitError,
    ResidueObstructionError,
)
from ovc.groebner import rho_leading_term
from ovc.modules import SeriesMatrix
from ovc.padics import PadicApprox, make_scalar
from ovc.series import (
    DAGGER,
    ROBBA,
    ROBBA_PLUS,
    TATE,
    RingDescriptor,
    Series,
    d_dt,
    dlog_antiderivative,
    frobenius_substitute,
    gauss_norm,
    invert_series,
    kummer_substitute,
    rho_value,
    t_d_dt,
    w_slope,
)
from test_groebner import deglex_compare

P, M = 3, 10
R = RingDescriptor(ROBBA, ("t",), ((-12, 12),), P, M, slope=Fraction(1))
W1 = RingDescriptor(DAGGER, ("x",), ((0, 12),), P, M, decay=1)
W2 = RingDescriptor(DAGGER, ("x", "y"), ((0, 8), (0, 8)), P, M, decay=1)


def S(desc, ints):
    return Series.from_ints(desc, ints)


def scalars(s):
    return {e: (c.val, c.unit) for e, c in s.terms}


def test_gauss_norm_examples():
    assert gauss_norm(S(W1, {(0,): 3, (1,): 1})).value == 0
    assert gauss_norm(Series.zero(W1)).value is None
    assert gauss_norm(S(W1, {(0,): 9, (2,): 3})).value == 1


def test_gauss_norm_flags_limited_zero():
    s = Series.make(W1, {(0,): PadicApprox.limited_zero(P, 2),
                         (1,): make_scalar(9, P, M)})
    r = gauss_norm(s)
    assert r.value == 2 and r.uncertain


def test_w_slope_examples():
    x = S(R, {(-2,): 3, (1,): 1})
    assert w_slope(x, 1) == -1
    assert w_slope(Series.one(R), Fraction(1, 2)) == 0
    # sum p^i t^-i at s = 1/2: derived by direct scan
    scan = S(R, {(-i,): P ** i for i in range(0, 11)})
    expected = min(Fraction(i) - Fraction(i, 2) for i in range(0, 11))
    assert w_slope(scan, Fraction(1, 2)) == expected == 0


def test_w_slope_range_check():
    with pytest.raises(ValueError):
        w_slope(Series.one(R), 2)



def test_ring_without_variables_is_rejected():
    # every complex of such a ring would have no map to reduce
    with pytest.raises(ValueError, match="at least one variable"):
        RingDescriptor(TATE, (), (), P, M)


def test_q_must_be_a_power_of_p():
    for q in (6, -3, 1):
        with pytest.raises(ValueError, match="q must be a power of p"):
            RingDescriptor(TATE, ("x",), ((0, 5),), 3, 8, q=q)
    assert RingDescriptor(TATE, ("x",), ((0, 5),), 3, 8, q=9).qeff == 9


def test_mul_examples():
    a = S(R, {(0,): 1, (1,): 1})
    b = S(R, {(0,): 1, (1,): -1})
    assert scalars(a.mul(b)) == {(0,): (0, 1), (2,): (0, P ** M - 1)}
    # window edge: t^hi * t drops out
    edge = Series.monomial(R, (12,)).mul(Series.monomial(R, (1,)))
    assert edge.is_zero()
    # completed tensor product of two one-variable rings
    t1 = S(W2, {(0, 0): 1, (1, 0): 1}).mul(S(W2, {(0, 0): 1, (0, 1): 1}))
    assert sorted(t1.support()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_invert_geometric():
    u = S(R, {(0,): 1, (1,): -P})
    inv = invert_series(u)
    assert all(c.unit == 1 and c.val == e[0] for e, c in inv.terms)
    assert scalars(u.mul(inv)) == {(0,): (0, 1)}


def test_invert_monomial_and_plus_limits():
    assert scalars(invert_series(Series.monomial(R, (1,)))) == {(-1,): (0, 1)}
    Rp = RingDescriptor(ROBBA_PLUS, ("t",), ((0, 10),), P, M, slope=Fraction(1))
    with pytest.raises(NotARecognizedUnitError):
        invert_series(Series.monomial(Rp, (1,)))
    ok = invert_series(S(Rp, {(0,): 1, (1,): P}))
    assert scalars(S(Rp, {(0,): 1, (1,): P}).mul(ok)) == {(0,): (0, 1)}


def test_not_a_unit():
    # p - t vanishes inside the unit disc; at slope 1 the two expansion
    # candidates tie at value 1 and no contraction certificate exists
    with pytest.raises(NotARecognizedUnitError):
        invert_series(S(R, {(0,): P, (1,): -1}))
    # two dominant terms tie whichever one is divided out: the other leaves
    # a remainder term of value 0
    third = Series.make(R, {(0,): make_scalar(1, P, M),
                            (1,): make_scalar(Fraction(1, P), P, M)})
    T1 = RingDescriptor(TATE, ("x",), ((0, 12),), P, M)
    for u in (third, S(T1, {(0,): 1, (1,): 1})):
        with pytest.raises(NotARecognizedUnitError):
            invert_series(u)


def test_derivative_examples():
    assert scalars(d_dt(Series.monomial(R, (2,)), "t")) == {(1,): (0, 2)}
    assert d_dt(Series.one(R), "t").is_zero()
    assert scalars(d_dt(Series.monomial(R, (-1,)), "t")) == {
        (-2,): (0, P ** M - 1)}


def test_antiderivative_examples():
    # the dlog antiderivative: y with t dy/dt = x
    assert scalars(dlog_antiderivative(Series.monomial(R, (1,)))) == {
        (1,): (0, 1)}
    y = dlog_antiderivative(Series.monomial(R, (P,)))
    (e, c), = y.terms
    assert e == (P,) and c.val == -1
    with pytest.raises(ResidueObstructionError):
        dlog_antiderivative(Series.one(R))
    limited = Series.make(R, {(0,): PadicApprox.limited_zero(P, 3)})
    with pytest.raises(AmbiguousResidueError):
        dlog_antiderivative(limited)


def test_residue_examples():
    assert Series.monomial(R, (-1,)).coeff((-1,)).unit == 1
    y = S(R, {(-3,): 2, (0,): 5, (4,): 1})
    assert d_dt(y, "t").coeff((-1,)).is_exact_zero()
    r = S(R, {(0,): 3, (-1,): 2, (1,): 1}).coeff((-1,))
    assert (r.val, r.unit) == (0, 2)


def test_frobenius_examples():
    assert scalars(frobenius_substitute(Series.monomial(R, (1,)))) == {
        (3,): (0, 1)}
    two = frobenius_substitute(S(R, {(0,): 1, (1,): 1}))
    assert sorted(two.support()) == [(0,), (3,)]


def test_kummer_examples():
    assert kummer_substitute(Series.monomial(R, (1,)), 2).support() == [(2,)]
    assert kummer_substitute(Series.monomial(R, (-1,)), 2).support() == [(-2,)]
    f = S(R, {(-2,): 5, (3,): 7})
    assert kummer_substitute(f, 1).terms == f.terms


small = st.integers(min_value=-40, max_value=40)


@st.composite
def windowed_series(draw, desc=R, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        lo, hi = desc.window[0]
        e = draw(st.integers(max(lo, -5), min(hi, 5)))
        terms[(e,)] = draw(small)
    return Series.from_ints(desc, terms)


@given(windowed_series(), windowed_series())
@settings(max_examples=80)
def test_gauss_ultrametric_and_w_superadditive(a, b):
    ga, gb = gauss_norm(a).value, gauss_norm(b).value
    s = a.add(b)
    gs = gauss_norm(s).value
    if ga is not None and gb is not None and gs is not None:
        assert gs >= min(ga, gb)
    prod = a.mul(b)
    wa, wb = w_slope(a, 1), w_slope(b, 1)
    wp = w_slope(prod, 1)
    if None not in (wa, wb, wp):
        assert wp >= wa + wb


@given(windowed_series())
@settings(max_examples=60)
def test_residue_of_derivative_vanishes(a):
    r = d_dt(a, "t").coeff((-1,))
    assert r.is_zero() or r.val is None


@given(windowed_series())
@settings(max_examples=60)
def test_antiderivative_sections(a):
    # remove the obstruction, then t d/dt o dlog_antiderivative is the
    # identity up to the digits lost dividing by exponents
    clean = Series.make(a.descriptor,
                        {e: c for e, c in a.terms if e != (0,)})
    back = t_d_dt(dlog_antiderivative(clean))
    diff = back.sub(clean)
    assert diff.is_zero() or all(c.val is None or c.val >= M - 2
                                 for _, c in diff.terms)


@given(windowed_series(), windowed_series())
@settings(max_examples=60)
def test_frobenius_is_multiplicative_without_truncation(a, b):
    wide = RingDescriptor(ROBBA, ("t",), ((-40, 40),), P, M,
                          slope=Fraction(1))
    aa = Series(wide, a.terms)
    bb = Series(wide, b.terms)
    lhs = frobenius_substitute(aa.mul(bb))
    rhs = frobenius_substitute(aa).mul(frobenius_substitute(bb))
    diff = lhs.sub(rhs)
    assert diff.is_zero() or all(c.val is None or c.val >= M - 1
                                 for _, c in diff.terms)


def test_dlog_antiderivative():
    y = dlog_antiderivative(S(R, {(2,): 4, (-3,): 9}))
    assert t_d_dt(y).sub(S(R, {(2,): 4, (-3,): 9})).is_zero()
    with pytest.raises(ResidueObstructionError):
        dlog_antiderivative(Series.one(R))


def test_invert_certificate_tracks_unit_error():
    u = S(R, {(0,): 1, (1,): -P})
    inv = invert_series(u)
    err = u.mul(inv).sub(Series.one(R))
    assert err.is_zero() or all(c.val is None or c.val >= M - 1
                                for _, c in err.terms)


# -- the term-value rule against brute force ----------------------------------

T2 = RingDescriptor(TATE, ("x", "y"), ((0, 4), (0, 4)), P, M)
RW = RingDescriptor(ROBBA, ("t",), ((-6, 6),), P, M, slope=Fraction(1))

# valuations cluster near 0 so that term values tie often; some reach the
# precision floor M and are dropped, some are negative
valuations = st.one_of(st.integers(0, 2), st.integers(-2, M + 1))
coefficients = st.one_of(
    st.builds(lambda u, v: make_scalar(Fraction(u) * Fraction(P) ** v, P, M),
              st.sampled_from([1, 2, 4, 5, 7]), valuations),
    st.builds(lambda f: PadicApprox.limited_zero(P, f), st.integers(1, M + 1)))
# exponents reach past the window on every side, so Series.make drops some
exponents = {T2: st.tuples(st.integers(0, 6), st.integers(0, 6)),
             RW: st.tuples(st.integers(-8, 8))}


@st.composite
def ring_entries(draw):
    desc = draw(st.sampled_from([T2, RW]))
    return desc, draw(st.dictionaries(exponents[desc], coefficients,
                                      max_size=6))


@given(ring_entries())
@example((T2, {(0, 0): make_scalar(3, P, M), (1, 0): make_scalar(1, P, M),
               (0, 1): make_scalar(2, P, M)}))
@settings(max_examples=200)
def test_term_values_match_brute_force(case):
    desc, entries = case
    a = Series.make(desc, entries)
    finite = {e: c.val for e, c in a.terms if c.val is not None}
    g = a.gauss_value()
    assert g == min(finite.values(), default=None)
    assert g is None or type(g) is int
    floors = [c.prec for _, c in a.terms if c.limited]
    norm = gauss_norm(a)
    assert norm.value == g
    assert norm.uncertain == bool(floors and (g is None or min(floors) <= g))
    mat = SeriesMatrix.make(desc, [[a, Series.zero(desc)]])
    assert mat.max_defect_value() == g
    for digits in (0, 1, M - 1):
        assert mat.is_zero_at_precision(digits) == all(
            v >= digits for v in finite.values())
    for D in (None, 1, 3):
        keys = {e: Fraction(v) - (0 if D is None else Fraction(sum(e), D))
                for e, v in finite.items()}
        r = rho_value(a, D)
        assert r == min(keys.values(), default=None)
        assert r is None or type(r) is Fraction
        if not keys:
            with pytest.raises(ValueError):
                rho_leading_term(a, D)
            continue
        ties = [e for e, k in keys.items() if k == min(keys.values())]
        want = [I for I in ties if all(deglex_compare(I, J) == "greater"
                                       for J in ties if J != I)]
        lead = rho_leading_term(a, D)
        assert [lead.leading_index] == want
        assert lead.leading_coeff == a.coeff(want[0])
    if desc.is_robba():
        for s in (Fraction(1, 2), Fraction(1)):
            assert w_slope(a, s) == min(
                (Fraction(v) + s * sum(e) for e, v in finite.items()),
                default=None)
