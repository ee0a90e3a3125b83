"""The residue pairing between compact-support chains and line-side chains.

A compact-support chain lives on strictly positive annulus exponents with
form basis dx_J; a line-side chain (coefficients in the dual module) lives on
the polynomial window.  Pairing multiplies module coordinates against the
dual basis, wedges the forms, rewrites the top form in the dlog basis, and
reads off the constant dlog coefficient: with x = 1/t each dx carries a
factor -t^(-2), so the pairing reduces to matching the exponent vector
(1, ..., 1) with a sign (-1)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (
    ChainVector,
    ComplexCohomology,
    compact_support_cohomology,
    mw_cohomology,
)
from .errors import DescriptorMismatchError
from .linalg import sparse_snf
from .modules import SigmaNablaModule
from .padics import PadicApprox, make_scalar


def _shuffle_sign(J: tuple, Jp: tuple) -> int:
    """Sign of dx_J wedge dx_Jp against the full ordered top form."""
    inversions = sum(1 for a in J for b in Jp if a > b)
    return -1 if inversions % 2 else 1


def residue_pairing(v: ChainVector, w: ChainVector, n: int) -> PadicApprox:
    """[v, w]: v a compact-support chain of form degree i (t-exponents),
    w a line-side chain of form degree n - i (x-exponents).

    The grading sign (-1)^(i(i-1)/2) makes the adjunction read uniformly as
    [v, nabla w] + [nabla v, w] = 0 in every degree."""
    sample = next(iter(v.data.values()), None)
    p = sample.prime if sample is not None else next(
        iter(w.data.values())).prime
    acc = PadicApprox.zero(p)
    degrees = {len(l[1]) for l in v.data} | {n - len(l[1]) for l in w.data}
    if len(degrees) > 1:
        raise DescriptorMismatchError(
            "chains of mixed form degree cannot be paired")
    for (a, J, I), cv in v.data.items():
        for (b, Jp, Ip), cw in w.data.items():
            if a != b or set(J) & set(Jp) or len(J) + len(Jp) != n:
                continue
            if tuple(x - y for x, y in zip(I, Ip)) != (1,) * n:
                continue
            i = len(J)
            term = cv.mul(cw)
            sign = (_shuffle_sign(J, Jp)
                    * (1 if n % 2 == 0 else -1)
                    * (-1 if (i * (i - 1) // 2) % 2 else 1))
            acc = acc.add(term if sign > 0 else term.neg())
    return acc


def apply_complex_map(cc: ComplexCohomology, degree: int,
                      v: ChainVector) -> ChainVector:
    """The complex differential applied to a chain vector (exact on the
    stored window; dropped terms were already recorded as loss).  Each
    stored entry x is read as the exact rational x / p^shift, x taken as
    its least-absolute residue mod p^N."""
    cdata = cc.cdata
    src, dst = cdata.spaces[degree], cdata.spaces[degree + 1]
    p, M = cdata.p, cdata.M
    N, shift = cdata.scalings[degree]
    mod = p ** N
    cols: dict[int, dict[int, int]] = {}
    for (r, c), x in cdata.matrices[degree].items():
        cols.setdefault(c, {})[r] = x
    out: dict = {}
    for label, coeff in v.data.items():
        for r, x in cols.get(src.index(label), {}).items():
            t = coeff.mul(make_scalar(
                Fraction(x if 2 * x < mod else x - mod, p ** shift), p, M))
            lbl = dst.label(r)
            out[lbl] = out[lbl].add(t) if lbl in out else t
    return ChainVector(dst, {l: c for l, c in out.items() if not c.is_exact_zero()})


@dataclass(frozen=True)
class PairingBlock:
    degree_c: int            # compact-support degree n+i
    degree_mw: int           # line-side degree n-i
    dim_c: int
    dim_mw: int
    matrix: tuple            # serialized pairings
    rank: int
    left_injects: bool
    right_injects: bool


@dataclass(frozen=True)
class NondegeneracyReport:
    blocks: tuple
    nondegenerate: bool


def pairing_nondegeneracy_check(module: SigmaNablaModule) -> NondegeneracyReport:
    """Assemble the pairing matrices between the computed bases of
    H^(n+i)_c(M) and H^(n-i)(M dual) and certify the ranks."""
    ring = module.ring
    n = len(ring.variables)
    p, M = ring.prime, ring.precision
    cc = compact_support_cohomology(module)
    mw = mw_cohomology(module.dual())
    blocks = []
    ok = True
    for i in range(0, n + 1):
        cgens = cc.report.generators(n + i)
        wgens = mw.report.generators(n - i)
        entries = {}
        ser = []
        for r, cg in enumerate(cgens):
            row = []
            for c, wg in enumerate(wgens):
                val = residue_pairing(cg, wg, n)
                row.append(val.serialize())
                if val.val is not None:
                    entries[(r, c)] = val.unit * p ** val.val % p ** M
            ser.append(tuple(row))
        rank = sparse_snf(len(cgens), len(wgens), entries, p, M,
                          track=False).rank() if entries else 0
        left = rank == len(cgens)
        right = rank == len(wgens)
        ok = ok and left and right
        blocks.append(PairingBlock(n + i, n - i, len(cgens), len(wgens),
                                   tuple(ser), rank, left, right))
    return NondegeneracyReport(tuple(blocks), ok)


# -- the dlog-twist family ---------------------------------------------------------

def twisted_pairing_matrix(a: Fraction, n: int, window_hi: int, p: int, M: int,
                           degree_i: int):
    """Pairing blocks for the rank-one dlog twist: modes pair diagonally, so
    the matrix between H^(n+i)_c(twist a) and H^(n-i)(twist -a) is the
    identity on matching zero modes."""
    from .cohomology import twisted_diagonal_cohomology

    c = twisted_diagonal_cohomology(a, n, window_hi, p, M, True)
    w = twisted_diagonal_cohomology(-Fraction(a), n, window_hi, p, M, False)
    dim_c = c.dims.get(degree_i, 0)
    dim_w = w.dims.get(n - degree_i, 0)
    shared = min(dim_c, dim_w)
    return dim_c, dim_w, shared
