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
    "1a347dac3147a3d1a176e8a9448b7ad575c984c940437388771e8b841ea28819",
    "8ca7ccfdce6d6c59d653d3350e3562453d8f3510ce5f6bd250ae1b3ff0d77f58",
    "de402fab062b48627bd0ac397482eb2c0aa95df23970e45eaf7d4fb6110e5261",
    "026e8be1696caaa8d3762b19273f65d79ee169227e999a15f354a78ac683645b",
    "00737bb44083597087de9aa40dc8a643dc1341de8a957fd82eb0b8c8fe65968c",
    "23e4f4509369636d56afe57a4ea3898b18acf9a2498c48fcb71534a653951f49",
    "c04d74fca763b98baf484a4ba3ac64a63fbaa463b6eb437da4efdaba126e3865",
    "f9f7a5664633530505c3248bcc891c2525dc6ef93ba9f1b43959c69f7800025a",
    "902b085ef22fed4329fd22020bf7c5c1f9b230b6be0746d81d26753feaaeb5e9",
    "80f468cad4cd8f6673c1322e34b9d1e747d13f4b7a5d7e5e26fab368d00e2633",
    "992c389af756303de078ab5c309fdebd3dba37111462a57f501ee931d164cabc",
    "bacb2de6b3b61e97b96ce04b79e63317fed148c9485573b6eb68c2741887bb50",
    "e68d78f72601a2e19f981032d4e692ae86fa8f30b34ab932fd7149bb1f7f401a",
    "7ced3ead0cea05a8127b82d9177b79fefdc21aff3efa43c3f2dc248d354312d0",
    "0088981448ed2217f4bbf768aac04a0d94b0f3c888b3a48e45cb0b634d59425f",
    "0cbe81d99a78217bd5c603803efedf50c911756c7565b0b522b5f0b0bf790eac",
    "42fde71344c6ea34053d034a287a3a69edaec5a8b80b0423b66e5644b8cbfcd3",
    "d47576a8b99e0a5b91b22c35ce2f85b8e5cd6cac0f256b91f138d06d9084b17f",
    "4d4756349bc61b840f4cf207c6fb8eded2e84d872d3c902e93f8e95f7745c3bd",
    "7fcba3187d445af5cc10ef08116c10e5c2bb13b3540d4994cf54ec68e358901e",
]


def test_pinned_factor_output():
    got = [_factor_digest(factor_plus(U, max_det_valuation=4))
           for U in _pinned_factor_inputs()]
    assert got == PINNED_FACTOR_DIGESTS
