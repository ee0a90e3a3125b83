"""Sparse Smith-normal-form linear algebra over Z/p^N with valuation pivoting.

Kernel and cokernel computations throughout the engine reduce to this module.
Pivots are chosen at minimal valuation (so elimination never loses absolute
precision), preferring the lowest-ordered row/column so that reported
generators pivot on the lowest total exponent.  Elementary divisors at or
above the working precision are reported as "zero at precision"; a dimension
claim is certified by the gap between the largest surviving divisor and the
precision ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .padics import int_valuation


def _val(x: int, p: int, N: int) -> int:
    """Valuation of a residue mod p^N (N if zero)."""
    return N if x == 0 else min(int_valuation(x, p), N)


@dataclass
class SnfResult:
    nrows: int
    ncols: int
    p: int
    N: int
    pivots: list           # list of (row, col, e) in pivoting order
    row_ops: list          # applied left, in order
    col_ops: list          # applied right, in order
    free_cols: list        # columns never pivoted (divisor N)
    free_rows: list        # rows never pivoted

    # -- certified quantities ---------------------------------------------

    def divisors(self) -> list:
        return sorted(e for _, _, e in self.pivots) + [self.N] * len(self.free_cols)

    def rank(self, cutoff: int | None = None) -> int:
        cutoff = self.N if cutoff is None else cutoff
        return sum(1 for _, _, e in self.pivots if e < cutoff)

    def certification_gap(self) -> int:
        """Distance from the largest certified divisor to the precision
        ceiling; the smaller the gap, the shakier the rank claim."""
        es = [e for _, _, e in self.pivots if e < self.N]
        return self.N - (max(es) if es else 0)

    # -- transform application ---------------------------------------------

    def apply_U(self, vec: dict) -> dict:
        """U @ vec for the accumulated row transform (D = U A V)."""
        v = dict(vec)
        mod = self.p ** self.N
        for op in self.row_ops:
            if op[0] == "rs":
                _, r, u = op
                if r in v:
                    v[r] = v[r] * u % mod
            else:
                _, src, dst, m = op
                if src in v:
                    v[dst] = (v.get(dst, 0) + m * v[src]) % mod
        return {k: x for k, x in v.items() if x}

    def apply_Uinv(self, vec: dict) -> dict:
        v = dict(vec)
        mod = self.p ** self.N
        for op in reversed(self.row_ops):
            if op[0] == "rs":
                _, r, u = op
                if r in v:
                    v[r] = v[r] * pow(u, -1, mod) % mod
            else:
                _, src, dst, m = op
                if src in v:
                    v[dst] = (v.get(dst, 0) - m * v[src]) % mod
        return {k: x for k, x in v.items() if x}

    def apply_V(self, vec: dict) -> dict:
        """V @ vec; feed unit vectors to read off kernel combinations."""
        v = dict(vec)
        mod = self.p ** self.N
        for op in reversed(self.col_ops):
            if op[0] == "cs":
                _, c, u = op
                if c in v:
                    v[c] = v[c] * u % mod
            else:
                _, src, dst, m = op
                if dst in v:
                    v[src] = (v.get(src, 0) + m * v[dst]) % mod
        return {k: x for k, x in v.items() if x}

    # -- materialized transforms (dict-of-rows sparse matrices) --------------

    def materialize_Uinv(self) -> dict:
        """Uinv as {row: {col: value}}; built by replaying inverse row ops."""
        mod = self.p ** self.N
        rows: dict[int, dict[int, int]] = {}

        def row(r):
            return rows.setdefault(r, {r: 1})

        for op in reversed(self.row_ops):
            if op[0] == "rs":
                _, r, u = op
                uinv = pow(u, -1, mod)
                rows[r] = {c: x * uinv % mod for c, x in row(r).items()}
            else:
                _, src, dst, m = op
                dd = dict(row(dst))
                for c, x in row(src).items():
                    dd[c] = (dd.get(c, 0) - m * x) % mod
                rows[dst] = {c: x for c, x in dd.items() if x}
        return rows

    def materialize_V_cols(self) -> dict:
        """V as {col: {row: value}} (column-major), replaying column ops."""
        mod = self.p ** self.N
        cols: dict[int, dict[int, int]] = {}

        def col(c):
            return cols.setdefault(c, {c: 1})

        for op in self.col_ops:
            if op[0] == "cs":
                _, c, u = op
                cols[c] = {r: x * u % mod for r, x in col(c).items()}
            else:
                _, src, dst, m = op
                dd = dict(col(dst))
                for r, x in col(src).items():
                    dd[r] = (dd.get(r, 0) + m * x) % mod
                cols[dst] = {r: x for r, x in dd.items() if x}
        return cols

    # -- derived spaces ------------------------------------------------------

    def kernel_basis(self, cutoff: int | None = None) -> list[dict]:
        """Columns of V above the zero (at precision) divisors."""
        cutoff = self.N if cutoff is None else cutoff
        cols = [c for _, c, e in self.pivots if e >= cutoff] + self.free_cols
        return [self.apply_V({c: 1}) for c in sorted(cols)]

    def coker_reps(self, cutoff: int | None = None) -> list[dict]:
        """Uinv images of the non-pivot rows: representatives of the cokernel."""
        cutoff = self.N if cutoff is None else cutoff
        rows = [r for r, _, e in self.pivots if e >= cutoff] + self.free_rows
        return [self.apply_Uinv({r: 1}) for r in sorted(rows)]

    def solve(self, b: dict, residual_cutoff: int | None = None):
        """Some x with A x = b at precision, or None if inconsistent.

        Residual entries with valuation >= residual_cutoff are tolerated.
        """
        cutoff = self.N if residual_cutoff is None else residual_cutoff
        bp = self.apply_U(b)
        x = {}
        for r, c, e in self.pivots:
            val = bp.pop(r, 0)
            if val == 0:
                continue
            if e >= cutoff:
                if _val(val, self.p, self.N) < cutoff:
                    return None
                continue
            if _val(val, self.p, self.N) < e:
                return None
            x[c] = val // self.p ** e
        for r, val in bp.items():
            if _val(val, self.p, self.N) < cutoff:
                return None
        return self.apply_V(x)


def sparse_snf(nrows: int, ncols: int, entries: dict, p: int, N: int,
               track: bool = True) -> SnfResult:
    """Reduce a sparse integer matrix mod p^N to diagonal form.

    ``entries``: {(row, col): int}.  Row/column indices are ints; the
    pivoting order prefers small indices, so callers should pre-order their
    bases (lowest total exponent first, deglex tiebreak).

    Levels run from 0 to N-1.  At level e every active entry has valuation
    >= e, and row operations never lower a column's minimum valuation: a
    column's new entries are combinations of its own entries.  So a column
    filed in the bucket of its minimum valuation (the valuation of the gcd
    of its entries) stays at or above that bucket's level.  At level e the
    columns of bucket e are taken in increasing order.  Each checks its gcd
    at its turn: a column whose minimum is still e pivots on its lowest row
    of valuation e, one whose minimum has risen moves to the bucket of its
    new minimum, and one whose entries all cancelled is dropped, since fill
    enters a column only through its entry in a pivot row.  This pivots
    exactly the columns whose minimum is e when the level starts, in
    increasing order, skipping those whose minimum rises before their turn.

    The pivots, the free lists and the row and column op logs, order
    included, are part of the contract: generators and report digests are
    read off them, and tests/test_linalg.py pins them exactly.  With
    ``track=False`` the op logs stay empty and everything else is unchanged.
    """
    mod = p ** N
    by_row: dict[int, dict[int, int]] = {}
    by_col: dict[int, dict[int, int]] = {}
    for (r, c), x in entries.items():
        x %= mod
        if x:
            by_row.setdefault(r, {})[c] = x
            by_col.setdefault(c, {})[r] = x

    buckets = [[] for _ in range(N)]
    for c, col in by_col.items():
        buckets[int_valuation(gcd(*col.values()), p)].append(c)
    inverses: dict[int, int] = {}
    row_ops, col_ops, pivots = [], [], []

    for level, bucket in enumerate(buckets):
        pe = p ** level
        above = pe * p      # x % above is nonzero iff x has valuation level
        for c in sorted(bucket):
            col = by_col[c]
            g = gcd(*col.values())
            if not g % above:
                if g:
                    buckets[int_valuation(g, p)].append(c)
                continue
            if len(col) == 1:
                r, = col
            else:
                r = min(rr for rr, x in col.items() if x % above)
            # normalize the pivot row so the pivot becomes exactly p^level,
            # log the column ops that clear it and take it out of its columns
            u = col[r] // pe
            uinv = inverses.get(u)
            if uinv is None:
                uinv = inverses[u] = pow(u, -1, mod)
            if u != 1 and track:
                row_ops.append(("rs", r, uinv))
            prow = []
            for cc, y in by_row.pop(r).items():
                if cc == c:
                    continue
                y = y * uinv % mod
                ccol = by_col[cc]
                del ccol[r]
                prow.append((cc, y, ccol))
                if track:
                    col_ops.append(("ca", c, cc, -(y // pe) % mod))
            # clear the pivot column: row rr -= m * (pivot row)
            for rr, x in col.items():
                if rr == r:
                    continue
                m = x // pe
                row = by_row[rr]
                del row[c]
                for cc, y, ccol in prow:
                    v = (row.get(cc, 0) - m * y) % mod
                    if v:
                        row[cc] = v
                        ccol[rr] = v
                    elif cc in row:
                        del row[cc]
                        del ccol[rr]
                if track:
                    row_ops.append(("ra", r, rr, -m % mod))
            del by_col[c]
            pivots.append((r, c, level))

    pivot_rows = {r for r, _, _ in pivots}
    pivot_cols = {c for _, c, _ in pivots}
    return SnfResult(nrows, ncols, p, N, pivots, row_ops, col_ops,
                     [c for c in range(ncols) if c not in pivot_cols],
                     [r for r in range(nrows) if r not in pivot_rows])
