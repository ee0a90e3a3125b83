"""Scalar layer: worked examples plus the valuation/norm laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc.errors import NonUnitError, PrimeError
from ovc.padics import (PadicApprox, from_residue, int_valuation, integral_shift,
                        make_scalar, parse_scalar)


def xgcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = xgcd(b, a % b)
    return g, y, x - (a // b) * y


def test_make_scalar_examples():
    x = make_scalar(12, 3, 5)
    assert (x.val, x.unit) == (1, 4)
    assert make_scalar(0, 5, 4).is_exact_zero()
    y = make_scalar(-1, 5, 3)
    assert (y.val, y.unit) == (0, 124)


def test_make_scalar_rejects_composite():
    with pytest.raises(PrimeError):
        make_scalar(3, 6, 4)


def test_vp_examples():
    p = 3
    assert make_scalar(9 * 2, p, 5).val == 2
    assert make_scalar(0, p, 5).val is None
    assert make_scalar(1 + p, p, 5).val == 0


def test_arith_examples():
    p = make_scalar(3, 3, 6)
    z = p.add(p.neg())
    assert z.is_zero() and z.limited and z.prec == 7
    prod = make_scalar(3, 3, 6).mul(make_scalar(9, 3, 6))
    assert (prod.val, prod.unit) == (3, 1)
    s = make_scalar(1, 3, 4).add(make_scalar(3, 3, 4))
    assert (s.val, s.unit) == (0, 4)


def test_invert_examples():
    inv_p = make_scalar(5, 5, 3).invert()
    assert (inv_p.val, inv_p.unit) == (-1, 1)
    # oracle: extended Euclid modulo 125
    g, x, _ = xgcd(2, 125)
    expected = x % 125
    assert expected == 63
    assert make_scalar(2, 5, 3).invert().unit == expected
    with pytest.raises(NonUnitError):
        make_scalar(0, 5, 3).invert()


def test_rational_embedding():
    half = make_scalar(Fraction(1, 2), 3, 4)
    assert half.mul(make_scalar(2, 3, 4)).sub(make_scalar(1, 3, 4)).is_zero()


def test_serialize_round_trip():
    for n in (7, -12, 45, 1):
        x = make_scalar(n, 3, 6)
        assert parse_scalar(x.serialize(), 3, 6).sub(x).is_zero()
    assert parse_scalar("0", 3, 6).is_exact_zero()
    assert parse_scalar("3/2", 5, 4).mul(make_scalar(2, 5, 4)).sub(
        make_scalar(3, 5, 4)).is_zero()


nonzero_ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool)


@given(nonzero_ints, nonzero_ints)
@settings(max_examples=150)
def test_vp_multiplicative(a, b):
    p, M = 3, 20
    x, y = make_scalar(a, p, M), make_scalar(b, p, M)
    assert x.mul(y).val == x.val + y.val


@given(nonzero_ints, nonzero_ints)
@settings(max_examples=150)
def test_ultrametric(a, b):
    p, M = 5, 20
    x, y = make_scalar(a, p, M), make_scalar(b, p, M)
    s = x.add(y)
    if s.is_zero():
        assert x.val == y.val
        return
    assert s.val >= min(x.val, y.val)
    if x.val != y.val:
        assert s.val == min(x.val, y.val)


@given(nonzero_ints)
@settings(max_examples=100)
def test_invert_involution(a):
    p, M = 3, 12
    x = make_scalar(a, p, M)
    back = x.invert().invert()
    assert back.sub(x).is_zero()


def test_limited_zero_propagation():
    p = 3
    lz = PadicApprox.limited_zero(p, 4)
    x = make_scalar(9, p, 6)
    prod = lz.mul(x)
    assert prod.is_zero() and prod.limited and prod.prec == 6
    s = lz.add(make_scalar(1, p, 6))
    assert (s.val, s.unit) == (0, 1) and s.prec == 4


def test_int_valuation():
    assert int_valuation(54, 3) == 3
    with pytest.raises(ValueError):
        int_valuation(0, 3)


def test_integral_shift_examples():
    p, M = 3, 8
    vals = [make_scalar(Fraction(2, 9), p, M), make_scalar(6, p, M),
            PadicApprox.limited_zero(p, 4), PadicApprox.zero(p)]
    assert integral_shift(vals) == 2
    assert integral_shift(vals, least=5) == 5
    assert integral_shift([make_scalar(3, p, M)]) == 0
    assert integral_shift([]) == 0


def test_residue_below_integral_raises():
    c = make_scalar(Fraction(1, 3), 3, 8)
    with pytest.raises(ValueError):
        c.residue(8)
    assert c.residue(9, 1) == 1
    assert PadicApprox.limited_zero(3, 2).residue(8) == 0


@st.composite
def padic_values(draw, p=3):
    kind = draw(st.sampled_from(("unit", "unit", "unit", "zero", "limited")))
    if kind == "zero":
        return PadicApprox.zero(p)
    if kind == "limited":
        return PadicApprox.limited_zero(p, draw(st.integers(-3, 16)))
    prec = draw(st.integers(1, 16))
    unit = draw(st.integers(1, p ** prec - 1).filter(lambda u: u % p))
    return PadicApprox(p, unit, draw(st.integers(-3, 3)), prec)


@given(padic_values(), st.integers(1, 12))
@settings(max_examples=300, derandomize=True)
def test_residue_round_trip(c, M):
    p = c.prime
    s = integral_shift([c])
    back = from_residue(c.residue(M + s, s), p, M + s, s, M)
    cap = M if c.abs_prec() is None else min(c.abs_prec(), M)
    assert back.with_abs_prec(cap) == c.with_abs_prec(cap)
    assert back.abs_prec() is None or back.abs_prec() <= M
