"""The residue pairing: worked values, adjointness, and nondegeneracy."""

import random
from fractions import Fraction

import pytest

from ovc.acceptance import trivial_module
from ovc.cohomology import (
    ChainVector,
    compact_support_cohomology,
    mw_cohomology,
)
from ovc.errors import DescriptorMismatchError
from ovc.pairing import (
    apply_complex_map,
    pairing_nondegeneracy_check,
    residue_pairing,
)
from ovc.padics import make_scalar

P, M = 3, 12


def mk(v):
    return make_scalar(v, P, M)


def spaces(n, window):
    mod = trivial_module(n, P, M, window)
    cc = compact_support_cohomology(mod)
    mw = mw_cohomology(mod.dual())
    return mod, cc, mw


def test_pairing_worked_examples():
    mod, cc, mw = spaces(1, 8)
    c1, w0 = cc.cdata.spaces[1], mw.cdata.spaces[0]
    # t (x) dt/t = -t^2 dx pairs with x to 1
    v = ChainVector(c1, {(0, (0,), (2,)): mk(-1)})
    w = ChainVector(w0, {(0, (), (1,)): mk(1)})
    assert residue_pairing(v, w, 1).serialize() == "1*p^0@12"
    # t^2 (x) dt/t pairs with x to 0
    v2 = ChainVector(c1, {(0, (0,), (3,)): mk(-1)})
    assert residue_pairing(v2, w, 1).is_zero()


def test_pairing_degree_mismatch():
    mod, cc, mw = spaces(1, 8)
    v = ChainVector(cc.cdata.spaces[1],
                    {(0, (0,), (2,)): mk(1), (0, (), (1,)): mk(1)})
    w = ChainVector(mw.cdata.spaces[0], {(0, (), (1,)): mk(1)})
    with pytest.raises(DescriptorMismatchError):
        residue_pairing(v, w, 1)


def test_adjointness_random_pairs():
    rng = random.Random(77)
    for n, window in ((1, 9), (2, 6)):
        mod, cc, mw = spaces(n, window)
        his = (window,) * n
        for i in range(n):
            csp, wsp = cc.cdata.spaces[i], mw.cdata.spaces[n - i - 1]
            cl = [l for l in csp.labels
                  if all(1 <= x <= h - 1 for x, h in zip(l[2], his))]
            wl = [l for l in wsp.labels
                  if all(x <= h - 1 for x, h in zip(l[2], his))]
            for _ in range(40):
                v = ChainVector(csp, {
                    l: mk(rng.randint(1, 40)) for l in rng.sample(
                        cl, k=min(3, len(cl)))})
                w = ChainVector(wsp, {
                    l: mk(rng.randint(1, 40)) for l in rng.sample(
                        wl, k=min(3, len(wl)))})
                lhs = residue_pairing(v, apply_complex_map(mw, n - i - 1, w), n)
                rhs = residue_pairing(apply_complex_map(cc, i, v), w, n)
                assert lhs.add(rhs).is_zero()


def test_nondegeneracy_trivial():
    for n, window in ((1, 20), (2, 8)):
        rep = pairing_nondegeneracy_check(trivial_module(n, P, M, window))
        assert rep.nondegenerate
        top = [b for b in rep.blocks if b.degree_c == 2 * n][0]
        assert (top.dim_c, top.dim_mw, top.rank) == (1, 1, 1)


def test_top_pairing_value_is_unit():
    for n, window in ((1, 20), (2, 8)):
        mod = trivial_module(n, P, M, window)
        cc = compact_support_cohomology(mod)
        mw = mw_cohomology(mod.dual())
        gen_c = cc.report.generators(2 * n)[0]
        gen_w = mw.report.generators(0)[0]
        val = residue_pairing(gen_c, gen_w, n)
        assert val.val == 0


def test_nondegeneracy_with_denominators_reports():
    # the pairing values of this module carry p in their denominators; they
    # are scaled to integers by the shared rule instead of ending in a crash
    from ovc.modules import SeriesMatrix, SigmaNablaModule
    from ovc.series import TATE, RingDescriptor, Series

    ring = RingDescriptor(TATE, ("x",), ((0, 8),), P, M)
    third = Series.monomial(ring, (0,), Fraction(1, 3))
    zero = Series.zero(ring)
    mod = SigmaNablaModule(ring, 2, gammas=(("x", SeriesMatrix.make(
        ring, [[zero, third], [zero, zero]])),))
    rep = pairing_nondegeneracy_check(mod)
    top = [b for b in rep.blocks if b.degree_c == 2][0]
    assert (top.dim_c, top.dim_mw, top.rank) == (2, 2, 2)
    assert all(b.rank <= min(b.dim_c, b.dim_mw) for b in rep.blocks)
