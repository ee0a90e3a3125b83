"""Matrix factorization over the annulus window: elementary operations,
mod-p reduction, and the integral/plus-part splitting."""

import hashlib
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
from test_groebner import _series_data

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
    ops, zero_row = reduce_modp_elementary([[{}, {}], [{}, {0: 1}]], P,
                                           (-16, 16))
    assert zero_row == 0 and ops == []
    # subtract t times the second row from the first
    ops, zero_row = reduce_modp_elementary(
        [[{1: 1}, {2: 1}], [{0: 1}, {1: 1}]], P, (-16, 16))
    assert zero_row == 0
    ((i, j, lam),) = ops
    assert lam == {1: P - 1}
    # replay the operation to confirm the row vanishes
    work = [[{1: 1}, {2: 1}], [{0: 1}, {1: 1}]]
    for c in range(2):
        for e1, c1 in lam.items():
            for e2, c2 in work[i][c].items():
                e = e1 + e2
                work[j][c][e] = (work[j][c].get(e, 0) + c1 * c2) % P
        work[j][c] = {e: v for e, v in work[j][c].items() if v}
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


# -- pinned output ---------------------------------------------------------------
#
# The factors, the determinant steps and the operation count of seeded
# matrices, drawn as the battery above draws them.  A change to the reduction
# or to the factorization's bookkeeping must leave all of them unchanged.

def _matrix_data(mat):
    return tuple(tuple(_series_data(s) for s in row) for row in mat.rows)


def _factor_digest(res) -> str:
    payload = (_matrix_data(res.V), _matrix_data(res.W),
               _matrix_data(res.W_inv), res.det_valuations, res.ops)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _pinned_factor_inputs():
    rng = random.Random(7)
    out = []
    for trial in range(20):
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
        out.append(U)
    return out


PINNED_FACTOR_DIGESTS = [
    "fdc3a96df1e85b3e772317dd69604d21729c76813c4f168b42c4c811dfb1c210",
    "041dacf8b67298d9ecefd7093c2f0c9fde0389de22e17603b4877acac1977677",
    "965de9feeeadf43536db419c878a22b3ca36972a5e47f44c49d4cc948aeb111e",
    "80d754e70f67e6c68bb7a4898341c915a1fe2593a94d47329b482a6517f7a870",
    "f7c98a952bc05d95fb4e7de1eac799f3ef1e56754785cbccd17b667920edb38e",
    "4e241abcfb4d6f765c5281a2ca7097d67d5c755edaab10d6f13f28d073cf49d4",
    "a268b69402ee182e91899bc53d6e7f2d7f1959aa98b011a96c665a1c6e72ca6c",
    "c2243c66e128e35c4fa8134c04c75eb5a002cb319860deaa3e0991e8034f9324",
    "bee4b741ddc9dc51002621cdd7b3c228945537f01f7b2f90d09b977d9254cf69",
    "93c2348d684a009d70996eb9f33a23caf97522a1e8d77895f0fa50b7eb0e47c3",
    "5a645aee683a231f872a3109d1096a755cda0c2c35423245ae3a277dff926709",
    "edabc1f5a6e92d2a04075031bd48171a44a4305fcf1b433503faa623ebfdcce6",
    "62f461727871d7b9a7caef4aa2e83f8b0fdea2de1e97b011810ec885d36a0c75",
    "6514bdb69ff21208054a0a8da27222b491a35a7f3c4fd56c6f835fe38b44d61f",
    "2189482cf49e37b0a998cb28fe4c7b41de1b76f37063a647224a1f9b9e78aba9",
    "ba6e22fce7bf22bbc00ef8bd3d0d8e4976a6bb199e93d4434c72fa26d6e5c64f",
    "ec6f84cbdb98f6e781a18c7b2b42818af1bd3584b3fc0ee6050ce851f07ed866",
    "da2936a52bb2555cca2719577323c4cfc2d483b87744d25efc0ffa7499662951",
    "260055a9dac618a26c1f2effc06034227b89e66916923de125fc7b470e51a8b8",
    "016f608ab8d8861262f9be6d7e26664bacc58dbe4b3a73c3db08e096194fef5b",
]


def test_pinned_factor_output():
    got = [_factor_digest(factor_plus(U, max_det_valuation=4))
           for U in _pinned_factor_inputs()]
    assert got == PINNED_FACTOR_DIGESTS
