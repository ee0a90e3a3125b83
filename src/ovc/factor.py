"""Factorization of invertible matrices over the windowed Robba ring into
(integral-invertible) x (plus-part-invertible), by elementary-divisor
reduction of the mod-p matrix over k((t)).

The induction works on the p-adic content of the determinant: while it is
positive, elementary column operations lifted from k[[t]] produce a column
divisible by p, that column is divided by p, and the content drops by exactly
one.  The accumulated operations assemble the plus-part factor and its
inverse explicitly.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FullRankError, PrecisionError, UnsupportedShapeError
from .modules import SeriesMatrix
from .padics import PadicApprox
from .series import Series, _vanishes, invert_series


class ElementaryOp(NamedTuple):
    kind: str            # "scale" | "add"
    i: int
    j: int               # -1 for scale
    factor: Series       # unit for scale; any ring element for add


def apply_elementary(mat: SeriesMatrix, op: ElementaryOp,
                     side: str = "row") -> SeriesMatrix:
    """Row operations act by left multiplication, column operations by right
    multiplication.  Scale factors must be recognized units of the ring."""
    rows = [list(r) for r in mat.rows]
    if op.kind == "scale":
        invert_series(op.factor)  # certification only; raises if unrecognized
        if side == "row":
            rows[op.i] = [x.mul(op.factor) for x in rows[op.i]]
        else:
            for r in rows:
                r[op.i] = r[op.i].mul(op.factor)
    elif op.kind == "add":
        # add factor * (row/col i) to (row/col j)
        if side == "row":
            rows[op.j] = [x.add(op.factor.mul(y))
                          for x, y in zip(rows[op.j], rows[op.i])]
        else:
            for r in rows:
                r[op.j] = r[op.j].add(op.factor.mul(r[op.i]))
    else:
        raise ValueError(f"unknown elementary kind {op.kind!r}")
    return SeriesMatrix.make(mat.descriptor, rows)


# -- mod-p Laurent matrices ----------------------------------------------------

def _reduce_entry(s: Series, p: int) -> dict:
    out = {}
    for e, c in s.terms:
        if c.val == 0:
            out[e[0]] = c.unit % p
    return out


def modp_matrix(mat: SeriesMatrix) -> list:
    p = mat.descriptor.prime
    return [[_reduce_entry(x, p) for x in row] for row in mat.rows]


def _laurent_val(f: dict) -> int | None:
    return min(f) if f else None


def _laurent_inv_unitpart(f: dict, p: int, degree: int) -> dict:
    """Inverse of f / t^val(f) in k[[t]] up to the given degree."""
    v = _laurent_val(f)
    u = {e - v: c for e, c in f.items()}
    c0inv = pow(u[0], -1, p)
    inv = {0: c0inv}
    for d in range(1, degree + 1):
        s = 0
        for k in range(1, d + 1):
            if k in u and (d - k) in inv:
                s += u[k] * inv[d - k]
        inv[d] = (-c0inv * s) % p
    return {e: c for e, c in inv.items() if c}


def _laurent_mulsub(dst: dict, q: dict, src: dict, p: int,
                    lo: int, hi: int) -> dict:
    out = dict(dst)
    for e1, c1 in q.items():
        for e2, c2 in src.items():
            e = e1 + e2
            if e < lo or e > hi:
                continue
            out[e] = (out.get(e, 0) - c1 * c2) % p
            if not out.get(e):
                out.pop(e, None)
    return {e: c for e, c in out.items() if c}


def reduce_modp_elementary(ubar: list, p: int, window: tuple
                           ) -> tuple[list, int]:
    """Row operations over k[[t]] driving one row of a rank-deficient matrix
    over k((t)) to zero: per column, the minimal-valuation entry clears the
    others by exact series division, then its row is struck.

    Returns (ops, zero_row): each op (i, j, lam), lam an F_p polynomial
    {exponent: coefficient}, adds lam times row i to row j, in order.
    """
    n = len(ubar)
    lo, hi = window
    width = hi - lo
    work = [[dict(e) for e in row] for row in ubar]
    active = list(range(n))
    ops = []
    for col in range(n):
        rows_with = [r for r in active if work[r][col]]
        if not rows_with:
            continue
        pivot = min(rows_with, key=lambda r: (_laurent_val(work[r][col]), r))
        pv = _laurent_val(work[pivot][col])
        inv_unit = _laurent_inv_unitpart(work[pivot][col], p, width)
        for r in rows_with:
            if r == pivot:
                continue
            f = work[r][col]
            q = {}
            # q = f / pivot-entry, an element of k[[t]] (val(f) >= pv)
            for e1, c1 in f.items():
                for e2, c2 in inv_unit.items():
                    e = e1 - pv + e2
                    if 0 <= e <= width:
                        q[e] = (q.get(e, 0) + c1 * c2) % p
            q = {e: c for e, c in q.items() if c}
            if not q:
                continue
            for cc in range(n):
                work[r][cc] = _laurent_mulsub(
                    work[r][cc], q, work[pivot][cc], p, lo, hi)
            # performed: row_r -= q * row_pivot, recorded with its own sign
            ops.append((pivot, r, {e: (-c) % p for e, c in q.items()}))
        active.remove(pivot)
    for r in active:
        if all(not work[r][c] for c in range(n)):
            return ops, r
    raise FullRankError("mod-p reduction has full rank over k((t))")


# -- the factorization -----------------------------------------------------------

class FactorResult(NamedTuple):
    V: SeriesMatrix          # integral entries, invertible over the integral subring
    W: SeriesMatrix          # plus part, with explicit inverse
    W_inv: SeriesMatrix
    ops: int                 # column operations performed, the rescaling included
    det_valuations: tuple    # content of det at each induction step


def factor_plus(u: SeriesMatrix, max_det_valuation: int | None = None
                ) -> FactorResult:
    """Write U = V W with V integral-invertible and W plus-part invertible.

    U must be invertible over the integral subring with p inverted: after a
    scalar rescaling to integral entries, the determinant must have finite
    content.  Inputs outside that shape need external conditioning and are
    rejected.
    """
    ring = u.descriptor
    p, M = ring.prime, ring.precision
    n = u.nrows
    lo, hi = ring.window[0]

    # scalar rescaling to integral entries, counted as one operation
    c = u.max_defect_value()
    if c is None:
        raise UnsupportedShapeError("zero matrix cannot be factored")
    if c < 0:
        u = u.scale(PadicApprox(p, 1, -c, M))
    ops = int(c < 0)

    d = u.det().gauss_value()
    if d is None:
        raise UnsupportedShapeError(
            "determinant vanishes at working precision; the input is not "
            "certified invertible over the integral subring with p inverted")
    budget = d if max_det_valuation is None else max_det_valuation
    if d > budget:
        raise UnsupportedShapeError(
            f"det content {d} exceeds the caller bound {budget}")

    pinv = Series.make(ring, {(0,): PadicApprox(p, 1, -1, M)})
    pser = Series.make(ring, {(0,): PadicApprox(p, 1, 1, M)})
    w_inv = SeriesMatrix.identity(ring, n)   # accumulated right product
    w = SeriesMatrix.identity(ring, n)       # its inverse, built op by op
    cur = u
    det_vals = []
    while True:
        det_vals.append(d)
        if d is None:
            raise PrecisionError("determinant content lost during reduction")
        if d == 0:
            break
        if len(det_vals) > budget + 1:
            raise UnsupportedShapeError(
                "induction exceeded the determinant-valuation bound; input "
                "likely needs pre-conditioning")
        # transpose so the rowwise mod-p reduction yields column operations
        ubar_t = [list(col) for col in zip(*modp_matrix(cur))]
        red_ops, j = reduce_modp_elementary(ubar_t, p, (lo, hi))
        for a, b, poly in red_ops:
            lam = Series.from_ints(ring, {(e,): x for e, x in poly.items()})
            colop = ElementaryOp("add", a, b, lam)
            cur = apply_elementary(cur, colop, side="col")
            w_inv = apply_elementary(w_inv, colop, side="col")
            # prepend the inverse: left-multiply by I - lam E_{ab}
            w = apply_elementary(
                w, ElementaryOp("add", b, a, lam.neg()), side="row")
        # the zero column mod p: divide by p
        if not _vanishes(((e, x.val) for row in cur.rows
                          for e, x in row[j].terms), 1):
            raise PrecisionError(
                "column reduction left a unit entry; precision exhausted")
        colop = ElementaryOp("scale", j, -1, pinv)
        cur = apply_elementary(cur, colop, side="col")
        w_inv = apply_elementary(w_inv, colop, side="col")
        w = apply_elementary(w, ElementaryOp("scale", j, -1, pser), side="row")
        ops += len(red_ops) + 1
        d = cur.det().gauss_value()

    if c < 0:
        w = w.scale(PadicApprox(p, 1, c, M))
        w_inv = w_inv.scale(PadicApprox(p, 1, -c, M))
    return FactorResult(cur, w, w_inv, ops, tuple(det_vals))
