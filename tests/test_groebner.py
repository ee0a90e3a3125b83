"""Monomial-order calculus: order laws, leading terms, completion, division,
and the three-circles interpolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc.groebner import (
    _fp_lt,
    _fp_scale_shift,
    _fp_sub_mul,
    _modp_reduce,
    complete_leading_basis,
    deglex_key,
    hadamard_check,
    reduce_element,
    reduces_to_zero,
    rho_leading_term,
    rho_value,
    stabilization_decay,
)
from ovc.padics import make_scalar
from ovc.series import DAGGER, RingDescriptor, Series, gauss_norm

P, M = 3, 10
W1 = RingDescriptor(DAGGER, ("x",), ((0, 14),), P, M, decay=1)
W2 = RingDescriptor(DAGGER, ("x", "y"), ((0, 14), (0, 14)), P, M, decay=1)


def S(desc, ints):
    return Series.from_ints(desc, ints)


def deglex_compare(I, J) -> str:
    """Oracle for the deglex order, stated without a sort key: higher total
    degree is larger; ties in total degree break at the first differing
    position, where the tuple with the LESSER entry is the larger one."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise ValueError("arity mismatch")
    if I == J:
        return "equal"
    dI, dJ = sum(I), sum(J)
    if dI != dJ:
        return "greater" if dI > dJ else "less"
    for a, b in zip(I, J):
        if a != b:
            return "greater" if a < b else "less"
    return "equal"


def test_deglex_examples():
    # at equal degree the lesser entry at the first difference wins
    assert deglex_compare((0, 1), (1, 0)) == "greater"
    assert deglex_compare((1, 0), (0, 1)) == "less"
    assert deglex_compare((2, 0), (0, 1)) == "greater"
    assert deglex_compare((3, 1), (3, 1)) == "equal"
    with pytest.raises(ValueError):
        deglex_compare((1,), (1, 0))


idx = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@given(idx, idx, idx)
@settings(max_examples=150)
def test_deglex_total_order_laws(a, b, c):
    # antisymmetry / totality
    ab = deglex_compare(a, b)
    ba = deglex_compare(b, a)
    assert (ab == "equal") == (a == b)
    if ab == "greater":
        assert ba == "less"
    # transitivity via the sort key
    assert (deglex_key(a) < deglex_key(b)) == (ab == "less")
    # compatibility with addition
    shifted = deglex_compare(tuple(x + y for x, y in zip(a, c)),
                             tuple(x + y for x, y in zip(b, c)))
    assert shifted == ab
    # refines divisibility and total degree
    if all(x <= y for x, y in zip(a, b)) and a != b:
        assert ab == "less"
    if sum(a) < sum(b):
        assert ab == "less"


def test_rho_leading_examples():
    lead = rho_leading_term(S(W1, {(0,): 1, (1,): 1}), None)
    assert lead.leading_index == (1,)
    lead2 = rho_leading_term(S(W1, {(0,): P, (2,): 1}), 1)
    assert lead2.leading_index == (2,)
    lead3 = rho_leading_term(S(W1, {(0,): 7}), None)
    assert lead3.leading_index == (0,)
    with pytest.raises(ValueError):
        rho_leading_term(Series.zero(W1), None)


def test_rho_leading_stabilizes():
    a = S(W1, {(0,): 9, (3,): 3, (5,): 1})
    D0 = stabilization_decay(a)
    gauss_lead = rho_leading_term(a, None).leading_index
    for D in range(D0, D0 + 6):
        assert rho_leading_term(a, D).leading_index == gauss_lead


def test_completion_principal_and_single():
    (d,) = complete_leading_basis([S(W1, {(1,): 1})])
    assert d.leading_index == (1,)
    (d2,) = complete_leading_basis([S(W1, {(1,): 1, (0,): -P})])
    assert d2.leading_index == (1,)


def test_completion_s_pair():
    # oracle: Buchberger over k[x1, x2] (verified against sympy's grlex
    # basis [x1^2, x2]): the S-pair of x1^2 and x1 x2 - x2 reduces to x2
    g1 = S(W2, {(2, 0): 1})
    g2 = S(W2, {(1, 1): 1, (0, 1): -1})
    basis = complete_leading_basis([g1, g2])
    leads = sorted(d.leading_index for d in basis)
    assert leads == [(0, 1), (1, 1), (2, 0)]
    # divisibility closure: x2^2 and x1 x2 both reducible
    assert reduces_to_zero(S(W2, {(0, 2): 1, (1, 1): -1}).mul(g2), basis)


def test_reduce_element_examples():
    basis = complete_leading_basis([S(W1, {(1,): 1, (0,): -P})])
    y, z = S(W1, {(0,): P}), S(W1, {(1,): 1})
    u = reduce_element(y, z, basis)
    assert gauss_norm(u).value == 1 == gauss_norm(y).value
    assert rho_value(u, 1) >= rho_value(z, 1)
    assert reduces_to_zero(u.sub(z), basis)
    # zero ideal keeps z  (empty reduction loop: |u| already <= |y|)
    same = reduce_element(z, z, basis and [])
    assert same.terms == z.terms
    # y = 0, z = x against basis {x}
    bx = complete_leading_basis([S(W1, {(1,): 1})])
    u0 = reduce_element(Series.zero(W1), S(W1, {(1,): 1}), bx)
    assert u0.is_zero()


def test_hadamard_examples():
    mono = Series.monomial(W2, (2, 1), 9)
    r = hadamard_check(mono, 2, Fraction(1, 2))
    assert r.passed
    assert r.value_C == (1 - Fraction(1, 2)) * r.value_A + \
        Fraction(1, 2) * r.value_B
    one = hadamard_check(Series.one(W2), 2, Fraction(1, 3))
    assert one.passed and one.value_A == one.value_B == one.value_C == 0
    two = S(W2, {(1, 0): P, (3, 2): 1})
    # direct evaluation of all three window values
    rr = hadamard_check(two, 3, Fraction(1, 3))
    vals = [(1 - Fraction(1, 3)) * rr.value_A + Fraction(1, 3) * rr.value_B,
            rr.value_C]
    assert rr.passed and vals[1] >= vals[0]
    with pytest.raises(ValueError):
        hadamard_check(two, 3, Fraction(3, 2))


def _fp_divmod(f: dict, basis: list[dict], p: int) -> dict:
    """Remainder of multivariate division by the basis leading terms: the
    independent oracle that the completed basis closes its S-pairs."""
    work = dict(f)
    rem = {}
    while work:
        lt = _fp_lt(work)
        for g in basis:
            glt = _fp_lt(g)
            if all(a <= b for a, b in zip(glt, lt)):
                mono = tuple(b - a for a, b in zip(glt, lt))
                q = work[lt] * pow(g[glt], -1, p) % p
                work = _fp_sub_mul(work, q, mono, g, p)
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


def test_completion_closes_s_pairs_mod_p():
    # Buchberger criterion on the reduction: every S-pair of the completed
    # basis reduces to zero over F_p
    g1 = S(W2, {(2, 0): 1})
    g2 = S(W2, {(1, 1): 1, (0, 1): -1})
    basis = complete_leading_basis([g1, g2])
    red = [_modp_reduce(d.element) for d in basis]
    for i in range(len(red)):
        for j in range(i):
            f, g = red[i], red[j]
            lf, lg = _fp_lt(f), _fp_lt(g)
            lcm = tuple(max(a, b) for a, b in zip(lf, lg))
            s = {}
            for e, c in _fp_scale_shift(f, pow(f[lf], -1, P),
                                        tuple(l - a for l, a in zip(lcm, lf)),
                                        P).items():
                s[e] = c
            for e, c in _fp_scale_shift(g, pow(g[lg], -1, P),
                                        tuple(l - a for l, a in zip(lcm, lg)),
                                        P).items():
                s[e] = (s.get(e, 0) - c) % P
            s = {e: c for e, c in s.items() if c}
            assert _fp_divmod(s, red, P) == {}
