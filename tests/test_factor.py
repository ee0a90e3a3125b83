"""Matrix factorization over the annulus window: elementary operations,
mod-p reduction, and the integral/plus-part splitting."""

import random
from fractions import Fraction

import pytest

from ovc.errors import FullRankError, UnsupportedShapeError
from ovc.factor import (
    ElementaryOp,
    apply_elementary,
    factor_plus,
    modp_matrix,
    reduce_modp_elementary,
)
from ovc.modules import SeriesMatrix
from ovc.padics import PadicApprox, make_scalar
from ovc.series import ROBBA, RingDescriptor, Series

P, M = 3, 12
R = RingDescriptor(ROBBA, ("t",), ((-16, 16),), P, M, slope=Fraction(1))


def S(ints):
    return Series.from_ints(R, ints)


def test_apply_elementary_examples():
    ident = SeriesMatrix.identity(R, 2)
    addt = apply_elementary(ident, ElementaryOp("add", 0, 1,
                                                Series.monomial(R, (1,))))
    assert addt.rows[1][0].coeff((1,)).unit == 1
    pinv = Series.make(R, {(0,): PadicApprox(P, 1, -1, M)})
    scaled = apply_elementary(SeriesMatrix.identity(R, 2),
                              ElementaryOp("scale", 0, -1, pinv))
    assert scaled.rows[0][0].coeff((0,)).val == -1


def test_reduce_modp_examples():
    # row already zero
    red = reduce_modp_elementary([[{}, {}], [{}, {0: 1}]], P, (-16, 16))
    assert red.zero_row == 0 and red.ops == ()
    # subtract t times the second row from the first
    red2 = reduce_modp_elementary([[{1: 1}, {2: 1}], [{0: 1}, {1: 1}]],
                                  P, (-16, 16))
    assert red2.zero_row == 0
    (op,) = red2.ops
    assert op.kind == "add" and op.factor == {1: P - 1}
    # replay the operation to confirm the row vanishes
    work = [[{1: 1}, {2: 1}], [{0: 1}, {1: 1}]]
    lam = op.factor
    for c in range(2):
        for e1, c1 in lam.items():
            for e2, c2 in work[op.i][c].items():
                e = e1 + e2
                work[op.j][c][e] = (work[op.j][c].get(e, 0) + c1 * c2) % P
        work[op.j][c] = {e: v for e, v in work[op.j][c].items() if v}
    assert work[0] == [{}, {}]
    with pytest.raises(FullRankError):
        reduce_modp_elementary([[{0: 1}, {}], [{}, {0: 1}]], P, (-16, 16))


def test_factor_identity():
    res = factor_plus(SeriesMatrix.identity(R, 2))
    assert res.V.sub(SeriesMatrix.identity(R, 2)).is_zero_at_precision()
    assert res.W.sub(SeriesMatrix.identity(R, 2)).is_zero_at_precision()


def test_factor_diag_p():
    U = SeriesMatrix.make(R, [[S({(0,): P}), Series.zero(R)],
                              [Series.zero(R), Series.one(R)]])
    res = factor_plus(U)
    assert res.det_valuations == (1, 0)
    assert res.V.mul(res.W).sub(U).is_zero_at_precision(M - 2)
    # V is the identity, W = diag(p, 1): p is a unit of the plus part
    assert res.V.rows[0][0].coeff((0,)).val == 0
    assert res.W.rows[0][0].coeff((0,)).val == 1
    assert res.W.mul(res.W_inv).sub(
        SeriesMatrix.identity(R, 2)).is_zero_at_precision(M - 2)


def test_factor_scalar_with_pole():
    # p + 1/t is already a unit of the integral subring (reduction 1/t),
    # so the factorization terminates immediately with W = 1
    U = SeriesMatrix.make(R, [[S({(0,): P, (-1,): 1})]])
    res = factor_plus(U)
    assert res.det_valuations == (0,)
    assert res.V.mul(res.W).sub(U).is_zero_at_precision(M - 2)
    red = modp_matrix(res.V)
    assert red[0][0] == {-1: 1}


def test_factor_rejects_zero_content_failure():
    with pytest.raises(UnsupportedShapeError):
        factor_plus(SeriesMatrix.zero(R, 2))


def test_factor_random_battery():
    rng = random.Random(42)
    from ovc.factor import ElementaryOp, apply_elementary

    for trial in range(12):
        n = 2 if trial % 2 == 0 else 3
        rows = [[Series.zero(R) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = Series.monomial(R, (rng.randint(-2, 2),),
                                         P ** rng.randint(0, 1))
        U = SeriesMatrix.make(R, rows)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            lam = Series.make(R, {(rng.randint(-1, 1),):
                                  make_scalar(rng.randint(1, 5), P, M)})
            U = apply_elementary(U, ElementaryOp("add", i, j, lam), side="row")
        res = factor_plus(U, max_det_valuation=4)
        assert res.V.mul(res.W).sub(U).is_zero_at_precision(M - 4)
        assert list(res.det_valuations) == list(
            range(res.det_valuations[0], -1, -1))
        assert res.V.det().gauss_value() == 0
        for mat in (res.W, res.W_inv):
            for row in mat.rows:
                for s in row:
                    assert all(e[0] >= 0 for e in s.support())
