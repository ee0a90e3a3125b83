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


def test_division_takes_steps_when_z_outweighs_y():
    # y is divisible by p and z = y + g1 * (a unit), as in criterion 10, so
    # |z| > |y| as a rule and the division has to cancel terms to reach
    # |u| <= |y|
    p, M = 3, 14
    ring = RingDescriptor(DAGGER, ("x", "y"), ((0, 14), (0, 14)), p, M,
                          decay=1)
    rng = random.Random(11)

    def rand_series(maxdeg=2, terms=3, unit=False):
        data = {}
        for _ in range(terms):
            e = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
            data[e] = make_scalar(rng.randint(1, 8) * p ** rng.randint(0, 1),
                                  p, M)
        if unit:
            data[(0, 0)] = make_scalar(1, p, M)
        return Series.make(ring, data)

    draws = divided = 0
    while draws < 400:
        g1, g2 = rand_series(), rand_series()
        if g1.is_zero() or g2.is_zero():
            continue
        basis = complete_leading_basis([g1, g2])
        y = g1.mul(rand_series(1, 2, unit=True)).add(
            g2.mul(rand_series(1, 2))).scale(p)
        if y.is_zero():
            continue
        z = y.add(g1.mul(rand_series(1, 2, unit=True)))
        u = reduce_element(y, z, basis)
        draws += 1
        divided += u.terms != z.terms
        gy, gu = gauss_norm(y).value, gauss_norm(u).value
        assert gu is None or gu >= gy
        D = basis[0].rho_D
        ru, rz = rho_value(u, D), rho_value(z, D)
        assert ru is None or rz is not None and ru >= rz
        assert reduces_to_zero(u.sub(z), basis)
    assert divided >= 320


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
    return tuple((e, c.serialize()) for e, c in s.terms)


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
    "e366e840baa42f4ed3506e35b7e9f8edadbf49eb11af7a87425bc93340b5e422",
    "1ecd5bc5f6cd907c18e183f98e0f40c90d28f909d2c6acd1bf836ecb87fd4ed1",
    "007406a574f5ac90838711f2f11f4386a7d0b4b722392d7c7a402f70098cced4",
    "b576af92fd25d35ea41779aaab9035438ac6582f98f019fd84f21b85bbc93404",
    "52342f7fe7c576cbfbb36f8eecfea9fd35f06d51b2a1518abb0807f9a5272089",
    "d7c0b9de4061d7ffcdd258d517e78e96a03d5f0dea783d1bdb680ac867639042",
    "2d83328a6aeb4e09a51ff782b0d15bc9645e0d2f37f3cb0a31b7234e1e40e184",
    "b9945b41a1eee721a1b259dca03418da97b73891f4c07c938d84fa9a4b37f809",
    "e2cbb853c09a9bf4d92001193110524f7e382a73995c1c55f568f02cb2e05f9b",
    "40b572c68114bbaa06f08424bd46a742bb936ae98acde2b8ae8cf0cd9d11fad2",
    "af6d8a3fff0baf89fad296d2306c6a024789f0845115f63e5b2532638d342f2c",
    "43e80b15bd18626eadd7a9b51c9820fc7c12cd30519d35490e5310b6cb993d65",
    "3269676a0225b1314c21b360009eed91cfce4c98bae991881d89922a91817d1b",
    "da8118fb0aadd56abc178e27103e29c483e4813d6f6e99a12708bba7e5a395c2",
    "670f3c81c43711724a10c5c3767c21b19bda7ac8f7f255228251aa3295084efa",
    "36beaa3b0f31e0ad91f6555663ec0fbd76c35e2a6796bc2e75c697d8d3a7dbab",
    "631644a5a2228ff7ec98252944c8ea24691bc36a7233ed3dbf9d2a510def10d3",
    "dc298d256af3e828046ff5c7220db409a5b6e0d55bd105ea59cac832e368143e",
    "b56c761e3dc0d708ebf969f2ec17ceda2982d8b6943e8b8e3fd8cb4ebad8875c",
    "dad6025125aa3a71c9a8f87e069800c0bea99f6b66d1c381d58a85fb783bcb67",
]


def test_pinned_completion_output():
    assert _pinned_completions() == PINNED_COMPLETION_DIGESTS
