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

from typing import NamedTuple

from .cohomology import (
    ChainVector,
    ComplexCohomology,
    _shuffle_sign,
    compact_support_cohomology,
    mw_cohomology,
)
from .errors import DescriptorMismatchError
from .linalg import Entries, sparse_snf
from .modules import SigmaNablaModule
from .padics import PadicApprox, from_residue, integral_shift


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
    stored entry is decoded at its map's scaling, with the digits it holds."""
    cdata = cc.cdata
    src, dst = cdata.spaces[degree], cdata.spaces[degree + 1]
    p, M = cdata.p, cdata.M
    N, shift = cdata.scalings[degree]
    out: dict = {}
    for label, coeff in v.data.items():
        for r, x in cdata.column(degree, src.index(label)):
            t = coeff.mul(from_residue(x, p, N, shift, M))
            lbl = dst.label(r)
            out[lbl] = out[lbl].add(t) if lbl in out else t
    return ChainVector(dst, {l: c for l, c in out.items() if not c.is_exact_zero()})


class PairingBlock(NamedTuple):
    degree_c: int            # compact-support degree n+i
    degree_mw: int           # line-side degree n-i
    dim_c: int
    dim_mw: int
    rank: int


class NondegeneracyReport(NamedTuple):
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
    for i in range(0, n + 1):
        cgens = cc.report.generators(n + i)
        wgens = mw.report.generators(n - i)
        vals = [[residue_pairing(cg, wg, n) for wg in wgens] for cg in cgens]
        shift = integral_shift(x for row in vals for x in row)
        # the rows go in as columns: a transpose has the same rank
        entries = Entries.of_columns(
            {c: x.residue(M + shift, shift) for c, x in enumerate(row)
             if not x.is_zero()} for row in vals)
        rank = sparse_snf(len(wgens), len(cgens), entries, p, M + shift,
                          track=False).rank() if entries else 0
        blocks.append(PairingBlock(n + i, n - i, len(cgens), len(wgens),
                                   rank))
    return NondegeneracyReport(tuple(blocks), all(
        b.rank == b.dim_c == b.dim_mw for b in blocks))
