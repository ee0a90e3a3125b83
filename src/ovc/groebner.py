"""Monomial-order calculus for overconvergent power series.

Provides the deglex total order, rho-leading terms at a fringe decay D,
completion of leading-term generators (Buchberger on the mod-p reduction,
lifted termwise), the norm-controlled division step, and the three-circles
interpolation check between fringe levels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import MembershipError, PrecisionError
from .padics import PadicApprox
from .series import Series, _lowest, _rho_weight, gauss_norm, rho_value

Exp = tuple[int, ...]


# -- the order ---------------------------------------------------------------

def deglex_key(I) -> tuple:
    """Sort key of the deglex order, a total order refining divisibility and
    total degree: higher total degree is larger, and at equal total degree
    the tuple with the LESSER entry at the first difference is larger."""
    return (sum(I), tuple(-a for a in I))


class LeadingDatum(NamedTuple):
    element: Series
    rho_D: int | None       # None encodes the Gauss (1-leading) case
    leading_index: Exp
    leading_coeff: PadicApprox


def rho_leading_term(a: Series, D: int | None = None) -> LeadingDatum:
    """The term maximizing |a_I| rho^|I| (rho = p^(1/D)); among ties, the
    deglex-largest index wins.  D=None is the Gauss (rho -> 1) case."""
    best, at = _lowest(((e, c.val) for e, c in a.terms), _rho_weight(D))
    if best is None:
        raise ValueError("zero series has no leading term")
    lead = max(at, key=deglex_key)
    return LeadingDatum(a, D, lead, a.coeff(lead))


# -- mod-p polynomial helpers (reduction to k[x_1..x_n]) ----------------------

def _modp_reduce(a: Series) -> dict:
    """Unit-content reduction of a nonzero series to an F_p polynomial."""
    g = a.gauss_value()
    if g is None:
        return {}
    p = a.descriptor.prime
    out = {}
    for e, c in a.terms:
        if c.val == g:
            out[e] = c.unit % p
    return out


def _fp_lt(f: dict) -> Exp:
    return max(f, key=deglex_key)


def _fp_sub_mul(f: dict, coeff: int, mono: Exp, g: dict, p: int) -> dict:
    out = dict(f)
    for e, c in g.items():
        ne = tuple(a + b for a, b in zip(e, mono))
        out[ne] = (out.get(ne, 0) - coeff * c) % p
        if not out[ne]:
            del out[ne]
    return out


def _fp_buchberger(gens: list[dict], p: int) -> list[tuple[dict, dict]]:
    """Buchberger completion over F_p with cofactor tracking.

    Each element is one row (g, cof), cof a map gen_index -> F_p polynomial
    with g = sum_i cof[i] * gens[i]: the generators first, then the completed
    elements in the order they were found.
    """
    one = {(0,) * len(next(iter(gens[0]))): 1}
    rows = [(dict(g), {i: one}) for i, g in enumerate(gens)]

    def sub_mul(row, coeff, mono, other):
        """row - coeff * x^mono * other, on the polynomial and its cofactors."""
        cof = dict(row[1])
        for i, f in other[1].items():
            cof[i] = _fp_sub_mul(cof.get(i, {}), coeff, mono, f, p)
        return (_fp_sub_mul(row[0], coeff, mono, other[0], p),
                {i: f for i, f in cof.items() if f})

    pairs = [(i, j) for i in range(len(rows)) for j in range(i)]
    while pairs:
        i, j = pairs.pop(0)
        f, g = rows[i][0], rows[j][0]
        lf, lg = _fp_lt(f), _fp_lt(g)
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        s = sub_mul(({}, {}), -pow(f[lf], -1, p),
                    tuple(l - a for l, a in zip(lcm, lf)), rows[i])
        s = sub_mul(s, pow(g[lg], -1, p),
                    tuple(l - a for l, a in zip(lcm, lg)), rows[j])
        # divide s by the basis, updating the cofactors alongside
        rem = {}
        while s[0]:
            lt = _fp_lt(s[0])
            for b in rows:
                blt = _fp_lt(b[0])
                if all(a <= c for a, c in zip(blt, lt)):
                    q = s[0][lt] * pow(b[0][blt], -1, p) % p
                    s = sub_mul(s, q, tuple(c - a for a, c in zip(blt, lt)), b)
                    break
            else:
                rem[lt] = s[0].pop(lt)
        if rem:
            rows.append((rem, s[1]))
            pairs.extend((len(rows) - 1, k) for k in range(len(rows) - 1))
    return rows


# -- completion and division --------------------------------------------------

def complete_leading_basis(gens: list[Series]) -> list[LeadingDatum]:
    """A finite set of ideal elements whose leading terms divide every
    reachable leading term of the ideal.

    Buchberger completion runs on the mod-p reduction (where it is
    effective); each completed element's tracked cofactor combination is
    lifted termwise and applied to the original generators.  The lift's
    reduction equals the completed element, so its 1-leading index survives
    the lift.  The returned data carry the decay parameter at which
    rho-leading and 1-leading terms provably agree on the stored supports.
    """
    if not gens:
        raise ValueError("no generators")
    if any(g.is_zero() for g in gens):
        raise PrecisionError("a generator vanishes at working precision")
    desc = gens[0].descriptor
    p, M = desc.prime, desc.precision

    # normalize generators to unit content
    work = []
    for g in gens:
        gv = g.gauss_value()
        work.append(g.scale(PadicApprox(p, 1, -gv, M)) if gv else g)

    reductions = [_modp_reduce(g) for g in work]
    if any(not r for r in reductions):
        raise PrecisionError("a generator reduced to zero mod p after scaling")
    out = list(work)
    for _, cof in _fp_buchberger(reductions, p)[len(reductions):]:
        lifted = Series.zero(desc)
        for i, poly in cof.items():
            lifted = lifted.add(work[i].mul(Series.from_ints(desc, poly)))
        if lifted.gauss_value() is None:
            continue
        out.append(lifted)
    stab = max(stabilization_decay(g) for g in out)
    return [rho_leading_term(g, None)._replace(rho_D=stab) for g in out]


def stabilization_decay(a: Series) -> int:
    """Least integer D0 such that for all D >= D0 the rho-leading index of
    the stored support equals the 1-leading index."""
    lead = rho_leading_term(a, None)
    vI, I = lead.leading_coeff.val, lead.leading_index
    D0 = 1
    for e, c in a.terms:
        v = c.val
        if v is None or e == I:
            continue
        if v > vI and sum(e) > sum(I):
            # need v - |e|/D > vI - |I|/D, i.e. D > (|e|-|I|)/(v-vI)
            need = Fraction(sum(e) - sum(I), v - vI)
            D0 = max(D0, int(need) + 1)
    return D0


def reduce_element(y: Series, z: Series, basis: list[LeadingDatum]) -> Series:
    """Norm-controlled division: u with u - z in the ideal, |u| <= |y| and
    |u|_rho <= |z|_rho, by repeatedly cancelling the 1-leading term of
    (u - y) against a basis multiple."""
    gy = gauss_norm(y).value          # None encodes |y| = 0
    M = z.descriptor.precision
    max_steps = 200 * (len(z.terms) + len(y.terms) + 8) + 40 * M
    u = z
    for _ in range(max_steps):
        gu = u.gauss_value()
        if gu is None:
            return u
        if gy is not None and gu >= gy:
            return u
        diff = u.sub(y)
        if diff.gauss_value() is None:
            return u
        cancel = _cancellation(diff, basis)
        if cancel is None:
            raise MembershipError(
                "leading term of the residual is not reducible by the basis; "
                "membership certificate failed at working precision")
        u = u.sub(cancel)
    raise PrecisionError("division loop exceeded its step budget")


def reduces_to_zero(x: Series, basis: list[LeadingDatum]) -> bool:
    """Ideal membership at working precision: full division leaves nothing."""
    work = x
    for _ in range(10000):
        if work.gauss_value() is None:
            return True
        cancel = _cancellation(work, basis)
        if cancel is None:
            return False
        work = work.sub(cancel)
    raise PrecisionError("membership division exceeded its step budget")


def _cancellation(r: Series, basis: list[LeadingDatum]) -> Series | None:
    """The multiple of a basis element that cancels the 1-leading term of
    the nonzero residual r: the first datum whose leading index divides r's,
    shifted and scaled to r's leading term; None when no index divides it."""
    lead = rho_leading_term(r, None)
    for datum in basis:
        dl = datum.leading_index
        if all(a <= b for a, b in zip(dl, lead.leading_index)):
            mono = tuple(b - a for a, b in zip(dl, lead.leading_index))
            c = lead.leading_coeff.mul(datum.leading_coeff.invert())
            return datum.element.shift(mono).scale(c)
    return None


# -- three circles -------------------------------------------------------------

class HadamardResult(NamedTuple):
    passed: bool
    value_A: Fraction | None
    value_B: Fraction | None
    value_C: Fraction | None


def hadamard_check(x: Series, D_B: int, eps: Fraction) -> HadamardResult:
    """Interpolated decay D_C for rho_C = rho_B^eps and the convexity bound
    value_C(x) >= (1-eps) value_A(x) + eps value_B(x) on the window, where
    A is the Gauss norm (rho_A = 1)."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    D_C = Fraction(D_B) / eps
    vA = rho_value(x, None)
    vB = rho_value(x, D_B)
    vC = rho_value(x, D_C)
    if vA is None or vB is None or vC is None:
        return HadamardResult(True, vA, vB, vC)
    passed = vC >= (1 - eps) * vA + eps * vB
    return HadamardResult(passed, vA, vB, vC)
