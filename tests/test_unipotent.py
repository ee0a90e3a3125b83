"""Unipotence algorithms: basis extraction, the denominator bound, the
horizontal-section iteration, and constant-matrix cohomology."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc.errors import BadCertificateError, PrecisionError
from ovc.modules import ModuleVector, SeriesMatrix, SigmaNablaModule, apply_D
from ovc.padics import int_valuation, make_scalar
from ovc.series import ROBBA, RingDescriptor, Series
from ovc.unipotent import (
    _nilpotency_index,
    bounddenom,
    h0_h1_unipotent,
    horizontal_iterate,
    strongly_unipotent_basis,
)

P = 3
R = RingDescriptor(ROBBA, ("t",), ((-10, 10),), P, 40, slope=Fraction(1))


def nilpotent_module(entries, rank=2, ring=R):
    return SigmaNablaModule(ring, rank,
                            connection=SeriesMatrix.make(ring, entries))


def test_worked_rank2_extraction():
    t = Series.monomial(R, (1,))
    mod = nilpotent_module([[Series.zero(R), t],
                            [Series.zero(R), Series.zero(R)]])
    data = strongly_unipotent_basis(mod)
    assert all(c.is_zero() or c.val >= 38 for row in data.nilpotent_X
               for c in row)
    assert data.verify()
    # the corrected second vector is horizontal: D(w2 - t w1) = 0
    v2 = ModuleVector(mod, tuple(data.change_of_basis.rows[r][1]
                                 for r in range(2)))
    assert apply_D(mod, v2).is_zero_at_precision()


def test_constant_input_is_fixed_point():
    mod = nilpotent_module([[Series.zero(R), Series.one(R)],
                            [Series.zero(R), Series.zero(R)]])
    data = strongly_unipotent_basis(mod)
    assert data.nilpotency_e == 2
    assert data.nilpotent_X[0][1].unit == 1
    ident = data.change_of_basis
    assert all(ident.rows[i][j].is_zero() != (i == j) for i in range(2)
               for j in range(2))


def test_rank1_zero():
    mod = SigmaNablaModule(R, 1, connection=SeriesMatrix.zero(R, 1))
    data = strongly_unipotent_basis(mod)
    assert data.nilpotency_e == 1


def test_rejects_non_unipotent():
    a = Series.monomial(R, (0,), Fraction(1, 2))
    with pytest.raises(BadCertificateError):
        strongly_unipotent_basis(
            SigmaNablaModule(R, 1, connection=SeriesMatrix.make(R, [[a]])))


def _constants(rows):
    """A constant matrix of integers as the PadicApprox entries of X."""
    return tuple(tuple(make_scalar(c, P, R.precision) for c in row)
                 for row in rows)


def test_nilpotency_index_of_constant_matrices():
    shift = [[1 if j == i + 1 else 0 for j in range(3)] for i in range(3)]
    assert _nilpotency_index(_constants([[0, 0], [0, 0]]), R) == 1
    assert _nilpotency_index(_constants([[0, 1], [0, 0]]), R) == 2
    assert _nilpotency_index(_constants(shift), R) == 3
    # an entry of valuation >= M is zero at the working precision
    assert _nilpotency_index(_constants([[0, P ** 40], [0, 0]]), R) == 1
    assert _nilpotency_index(_constants([[0, P ** 39], [0, 0]]), R) == 2
    with pytest.raises(BadCertificateError):
        _nilpotency_index(_constants([[0, 1], [1, 0]]), R)


def test_bounddenom_examples():
    bound, exact = bounddenom(5, 7, 1, 3, verify=True)
    assert (bound, exact) == (0, 0)      # plain binomial coefficient
    bound, exact = bounddenom(0, 3, 2, 3, verify=True)
    assert bound == 1 and exact == 1     # harmonic number H_3 at p = 3
    bound, exact = bounddenom(0, 1, 3, 5, verify=True)
    assert exact == 0 <= bound
    with pytest.raises(ValueError):
        bounddenom(0, 0, 1, 3)


@given(st.integers(-12, 12), st.integers(1, 18), st.integers(1, 3),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=120)
def test_bounddenom_exact_below_bound(m, l, e, p):
    bound, exact = bounddenom(m, l, e, p, verify=True)
    assert 0 <= exact <= bound


def test_bounddenom_matches_the_rational_product():
    # a seeded sample of criterion 6's box against the product taken
    # directly in Q[x]/(x^e)
    rng = random.Random(6)
    box = [(m, l, e, p) for p in (2, 3, 5) for m in range(-20, 21)
           for l in range(1, 31) for e in range(1, 5)]
    for m, l, e, p in rng.sample(box, 300):
        poly = [Fraction(1)] + [Fraction(0)] * (e - 1)
        for i in range(1, l + 1):
            poly = [(poly[j] * (m + i) + (poly[j - 1] if j else 0)) / i
                    for j in range(e)]
        want = max([0] + [int_valuation(c.denominator, p)
                          - int_valuation(c.numerator, p)
                          for c in poly if c])
        bound, exact = bounddenom(m, l, e, p, verify=True)
        assert exact == want <= bound, (m, l, e, p)


def test_horizontal_worked_examples():
    mod = nilpotent_module([[Series.zero(R), Series.one(R)],
                            [Series.zero(R), Series.zero(R)]])
    data = strongly_unipotent_basis(mod)
    # w = v2: f_0 = v1 and every correction vanishes
    log = horizontal_iterate(data, ModuleVector.make(mod, [0, 1]), 6)
    assert log.result.coords[0].coeff((0,)).unit == 1
    assert log.result.coords[1].is_zero()
    # w = t v1: the first iteration already kills it
    w = ModuleVector.make(mod, [Series.monomial(R, (1,)), Series.zero(R)])
    log2 = horizontal_iterate(data, w, 6)
    assert all(c.is_zero() or c.gauss_value() >= 30
               for c in log2.result.coords)
    # w = 0
    log3 = horizontal_iterate(data, ModuleVector.make(mod, [0, 0]), 4)
    assert all(c.is_zero() for c in log3.result.coords)


def test_horizontal_result_is_horizontal():
    mod = nilpotent_module([[Series.zero(R), Series.one(R)],
                            [Series.zero(R), Series.zero(R)]])
    data = strongly_unipotent_basis(mod)
    w = ModuleVector.make(mod, [Series.monomial(R, (3,)), Series.one(R)])
    log = horizontal_iterate(data, w, 10)
    assert apply_D(mod, log.result).is_zero_at_precision(
        R.precision - log.headroom_used)


def test_horizontal_headroom_abort():
    small = RingDescriptor(ROBBA, ("t",), ((-10, 10),), P, 8,
                           slope=Fraction(1))
    mod = nilpotent_module([[Series.zero(small), Series.one(small)],
                            [Series.zero(small), Series.zero(small)]],
                           ring=small)
    data = strongly_unipotent_basis(mod)
    with pytest.raises(PrecisionError):
        horizontal_iterate(data, ModuleVector.make(mod, [0, 1]), 9)


def test_h0_h1_examples():
    r1 = strongly_unipotent_basis(
        SigmaNablaModule(R, 1, connection=SeriesMatrix.zero(R, 1)))
    rep = h0_h1_unipotent(r1)
    assert rep.dims() == {0: 1, 1: 1}
    nil = strongly_unipotent_basis(nilpotent_module(
        [[Series.zero(R), Series.one(R)], [Series.zero(R), Series.zero(R)]]))
    rep2 = h0_h1_unipotent(nil)
    assert rep2.dims() == {0: 1, 1: 1}
    gen0 = rep2.generators(0)[0]
    assert apply_D(nil.module, gen0).is_zero_at_precision()
    z3 = strongly_unipotent_basis(
        SigmaNablaModule(R, 3, connection=SeriesMatrix.zero(R, 3)))
    assert h0_h1_unipotent(z3).dims() == {0: 3, 1: 3}


def test_h0_h1_invariant_under_cover_pullback():
    # Kummer pullback along t -> t^e multiplies a constant dlog connection
    # N by the cover degree e
    R5 = RingDescriptor(ROBBA, ("t",), ((-10, 10),), 5, 20, slope=Fraction(1))
    nil = SigmaNablaModule(R5, 2, connection=SeriesMatrix.from_scalars(
        R5, [[0, 1], [0, 0]]))
    base = h0_h1_unipotent(strongly_unipotent_basis(nil)).dims()
    for e in (2, 3):
        pulled = SigmaNablaModule(R5, 2, connection=SeriesMatrix.from_scalars(
            R5, [[0, e], [0, 0]]))
        dims = h0_h1_unipotent(strongly_unipotent_basis(pulled)).dims()
        assert dims == base


def test_strongspan_different_filtrations():
    t = Series.monomial(R, (1,))
    mod = nilpotent_module([[Series.zero(R), t],
                            [Series.zero(R), Series.zero(R)]])
    d1 = strongly_unipotent_basis(mod)
    filt = SeriesMatrix.make(R, [[Series.one(R), Series.monomial(R, (2,))],
                                 [Series.zero(R), Series.one(R)]])
    d2 = strongly_unipotent_basis(mod, filt)
    T = d1.change_of_basis.inverse().mul(d2.change_of_basis)
    for row in T.rows:
        for s in row:
            for exp, c in s.terms:
                if any(exp):
                    assert c.val is None or c.val >= R.precision - 2


@pytest.mark.parametrize("entry, serial", [
    (Fraction(2, 9), "2*p^-2@12"),
    (Fraction(1, 3), "1*p^-1@12"),
])
def test_constant_entry_of_negative_valuation(entry, serial):
    # the constant part of a constant connection is X itself; its
    # non-constant part is empty, not a limited zero at t^0
    ring = RingDescriptor(ROBBA, ("t",), ((-10, 10),), P, 12,
                          slope=Fraction(1))
    mod = SigmaNablaModule(ring, 2, connection=SeriesMatrix.from_scalars(
        ring, [[0, entry], [0, 0]]))
    data = strongly_unipotent_basis(mod)
    assert data.nilpotent_X[0][1].serialize() == serial
    assert data.verify()
    rep = h0_h1_unipotent(data)
    assert rep.dims() == {0: 1, 1: 1}
    assert rep.precision_gap <= ring.precision
