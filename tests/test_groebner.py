"""Monomial-order calculus: order laws, leading terms, completion, division,
and the three-circles interpolation."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc.groebner import (
    _fp_buchberger,
    _fp_lt,
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
            s = _fp_sub_mul({}, -pow(f[lf], -1, P),
                            tuple(l - a for l, a in zip(lcm, lf)), f, P)
            s = _fp_sub_mul(s, pow(g[lg], -1, P),
                            tuple(l - a for l, a in zip(lcm, lg)), g, P)
            assert _fp_divmod(s, red, P) == {}


def test_completion_cofactors_combine_the_generators():
    # every completed row (g, cof) satisfies g = sum_i cof[i] * gens[i] over
    # F_p: the lift in complete_leading_basis rests on this identity
    rng = random.Random(3)
    completed = 0
    for p in (3, 5):
        for _ in range(12):
            gens = [{(rng.randint(0, 3), rng.randint(0, 3)):
                     rng.randrange(1, p) for _ in range(rng.randint(2, 4))}
                    for _ in range(rng.randint(2, 3))]
            rows = _fp_buchberger(gens, p)
            assert [g for g, _ in rows[:len(gens)]] == gens
            completed += len(rows) - len(gens)
            for g, cof in rows:
                combo = {}
                for i, poly in cof.items():
                    for e, c in poly.items():
                        combo = _fp_sub_mul(combo, -c, e, gens[i], p)
                assert combo == g
    assert completed >= 20


# -- pinned output ---------------------------------------------------------------
#
# Completed bases and reduced elements of seeded ideal pairs, drawn as
# criterion 10 draws them.  A change to the completion's bookkeeping must
# leave every basis element, its leading data and the reduction unchanged.

def _series_data(s):
    return (tuple((e, c.serialize()) for e, c in s.terms), s.loss)


def _completion_digest(basis, u) -> str:
    payload = ([(_series_data(d.element), d.leading_index,
                 d.leading_coeff.serialize(), d.rho_D) for d in basis],
               _series_data(u))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _pinned_completions():
    p, M = 3, 14
    ring = RingDescriptor(DAGGER, ("x", "y"), ((0, 14), (0, 14)), p, M,
                          decay=1)
    rng = random.Random(7)

    def rand_series(maxdeg=2, terms=3, unit=False):
        data = {}
        for _ in range(terms):
            e = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
            data[e] = make_scalar(rng.randint(1, 8) * p ** rng.randint(0, 1),
                                  p, M)
        if unit:
            data[(0, 0)] = make_scalar(1, p, M)
        return Series.make(ring, data)

    out = []
    while len(out) < 20:
        g1, g2 = rand_series(), rand_series()
        if g1.is_zero() or g2.is_zero():
            continue
        basis = complete_leading_basis([g1, g2])
        y = g1.mul(rand_series(1, 2, unit=True)).add(g2.mul(rand_series(1, 2)))
        if y.is_zero():
            continue
        z = y.add(g1.mul(rand_series(1, 1)))
        out.append(_completion_digest(basis, reduce_element(y, z, basis)))
    return out


PINNED_COMPLETION_DIGESTS = [
    "34ea003dbe7fe498aad33f362fe2ab258521c6e2be2f71ff54934adfef6d4d37",
    "3d1c349ee43bee1ffe4df00d53bc451a6cf1a436686ebfd9e0811d97d579b79b",
    "ecf19f69258ffb8d9174e30efd8f466a227c524110cf8205f5ba6b795713c4e7",
    "1b551cf118167edf9bff48dcb74255a092aec9d1e6824676b1d59d559549903b",
    "7d5ec5d748cb5c112492b0d915008f2a212600c9cff882881517b517bf58bb03",
    "467469b440b296f07c91760a4e85ad4fadfbed3ee0dc60ce952abb2726acc6e2",
    "44439d987635dce76c346e5874b0d228e0a7a6604f6627012265e5643226d916",
    "a4cac885e5ba54b0432c9f4e9981b124af7926c505d5b2aa144e953424b1bf97",
    "b885fca39af654681f43ceab80eaf3ec6c42bd5e819041e5959debe2dda41065",
    "78d73e99e97e10b954d2aa8e26863f54873a5876827d2b21c708d0382389762a",
    "7c66d24b6794cff437272d5613c91022a8200c6083a8df45191883fc3ca6010f",
    "74090bc60463c09fed5649841ebcbe3cbbd7f9428a40be6e539b1769eb3b721f",
    "0dac68f4d4b0b9de95dc23344887044bac12e0406c05b37ae98823aca222937d",
    "93fd0433eba934d1f689ee2980c6dc7b1ae8d39fbff27b3fa0dc5d99697e9c89",
    "c90a2ef43cbb99754bc1aa595cc7f8e773d746be70c786cb779f744c4f650553",
    "76e0ab3ae9da6ea631fd7d383b827fed6c3b870b9f75da20f1e423870ceb77a9",
    "12cdb211fab95396498df3ac44f6fd1f746a89a69555eb2f10efbddf68c2e60a",
    "aa868cfa61e236081c1eb896394d101b8abf44a960496536b059d90b29b9acea",
    "003f778dd156b2873275d223862e61de1449218700730033da50cdc6ca062f43",
    "1b459c6689de47ae920fc8364e99b8a1e2e2c6261961318dbd1efc0c35a8c7f0",
]


def test_pinned_completion_output():
    assert _pinned_completions() == PINNED_COMPLETION_DIGESTS
