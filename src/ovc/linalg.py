"""Sparse Smith-normal-form linear algebra over Z/p^N with valuation pivoting.

Kernel and cokernel computations throughout the engine reduce to this module.
Pivots are chosen at minimal valuation (so elimination never loses absolute
precision).  A tracked reduction takes each level's columns in increasing
order, each on its lowest row, so that reported generators pivot on the
lowest total exponent, and logs the transforms its caller names in
``logs``: the row log "U" serves ``apply_U``, ``apply_Uinv`` and
``materialize_Uinv``, the column log "V" serves ``apply_V``,
``kernel_basis`` and ``materialize_V_cols``, and ``solve`` reads both.  The
pivots, the free lists and ``coker_reps`` need no log, and a log left out
changes none of them.
A rank-only (untracked) reduction pivots on the row with the fewest entries
and always reduces the transpose, taking its columns in decreasing order:
of the orientations and orders measured, this one fills in least on both
the tall maps 0 and the wide top maps pruned of their paired columns.  It
promises only the SNF invariants.
In either mode a column left with one entry clears no other row, so its
pivot row is only taken out of its other columns, never copied, and only a
column with no entry at its level takes a gcd, to find the level it moves to.
The reduction holds the matrix twice, as a list of rows and a list of
columns indexed by position, each a sparse ``{index: value}`` map made when
it gets its first entry and released when it pivots.
Elementary divisors at or above the working precision are reported as "zero
at precision"; a dimension claim is certified by the gap between the largest
surviving divisor and the precision ceiling.

``digit_precision`` gives the precision K at which a residue fits one
CPython digit.  A matrix has the divisors min(e_i, K) mod p^K, so a
reduction there that pivots every row or every column has all its divisors
below K, and they are the divisors mod p^N.  A rank-only caller may keep
such a result with ``N`` set back to its own precision: the divisors, the
rank at every cutoff and the gap are then those of a reduction mod p^N,
though the pivot positions may differ, since an entry that vanishes mod p^K
is dropped there.
"""

from __future__ import annotations

import sys
from itertools import compress, count
from math import gcd

from .padics import int_valuation


class Entries:
    """A sparse matrix as three parallel lists: entry k is ``vals[k]`` at
    (``rows[k]``, ``cols[k]``).  ``len()`` is the entry count."""
    __slots__ = ("rows", "cols", "vals")

    def __init__(self, rows: list, cols: list, vals: list):
        self.rows, self.cols, self.vals = rows, cols, vals

    def __len__(self) -> int:
        return len(self.vals)

    @classmethod
    def of_columns(cls, columns) -> "Entries":
        """Sparse ``{row: value}`` columns, the k-th as column k, with their
        zero values skipped."""
        rows, cols, vals = [], [], []
        for c, col in enumerate(columns):
            for r, x in col.items():
                if x:
                    rows.append(r)
                    cols.append(c)
                    vals.append(x)
        return cls(rows, cols, vals)


class SnfResult:
    """A reduction mod p^N.  ``sparse_snf`` appends the pivots level by
    level, so their levels never decrease, and every level is below N, also
    after a rank-only caller raises N from the K it reduced at: the divisors
    read the pivot list in order, and the largest level is the last one's."""
    __slots__ = ("nrows", "ncols", "p", "N", "pivots", "row_ops", "col_ops",
                 "free_cols", "free_rows", "tracked", "logs")

    def __init__(self, nrows: int, ncols: int, p: int, N: int, pivots: list,
                 row_ops: list, col_ops: list, free_cols: list,
                 free_rows: list, tracked: bool, logs: str):
        self.nrows, self.ncols, self.p, self.N = nrows, ncols, p, N
        self.pivots = pivots        # list of (row, col, e) in pivoting order
        self.row_ops = row_ops      # applied left, in order
        self.col_ops = col_ops      # applied right, in order
        self.free_cols = free_cols  # columns never pivoted (divisor N)
        self.free_rows = free_rows  # rows never pivoted
        # pivots of the tracked rule; transforms need them
        self.tracked = tracked
        self.logs = logs            # the op logs kept: "U" rows, "V" columns

    # -- certified quantities ---------------------------------------------

    def divisors(self) -> list:
        return [e for _, _, e in self.pivots] + [self.N] * len(self.free_cols)

    def rank(self, cutoff: int | None = None) -> int:
        if cutoff is None or cutoff >= self.N:
            return len(self.pivots)     # every pivot sits below the ceiling
        return sum(1 for _, _, e in self.pivots if e < cutoff)

    def certification_gap(self) -> int:
        """Distance from the largest certified divisor to the precision
        ceiling; the smaller the gap, the shakier the rank claim."""
        return self.N - (self.pivots[-1][2] if self.pivots else 0)

    # -- transform application ---------------------------------------------

    def _require_tracked(self):
        if not self.tracked:
            raise ValueError("a rank-only SnfResult has no transforms; "
                             "reduce with track=True to read vectors")

    def _require_log(self, log: str):
        self._require_tracked()
        if log not in self.logs:
            name = "row" if log == "U" else "column"
            raise ValueError(f"this SnfResult kept no {name} log; reduce "
                             f"with {log!r} in logs to read it")

    def _replay_rows(self, vec: dict, inverse: bool) -> dict:
        """U @ vec, or Uinv @ vec by undoing the row-op log in reverse."""
        self._require_log("U")
        v = dict(vec)
        mod = self.p ** self.N
        sign = -1 if inverse else 1
        for op in reversed(self.row_ops) if inverse else self.row_ops:
            if op[0] == "rs":
                _, r, u = op
                if r in v:
                    v[r] = v[r] * pow(u, sign, mod) % mod
            else:
                _, src, dst, m = op
                if src in v:
                    v[dst] = (v.get(dst, 0) + sign * m * v[src]) % mod
        return {k: x for k, x in v.items() if x}

    def apply_U(self, vec: dict) -> dict:
        """U @ vec for the accumulated row transform (D = U A V)."""
        return self._replay_rows(vec, inverse=False)

    def apply_Uinv(self, vec: dict) -> dict:
        return self._replay_rows(vec, inverse=True)

    def apply_V(self, vec: dict) -> dict:
        """V @ vec; feed unit vectors to read off kernel combinations."""
        self._require_log("V")
        v = dict(vec)
        mod = self.p ** self.N
        for _, src, dst, m in reversed(self.col_ops):
            if dst in v:
                v[src] = (v.get(src, 0) + m * v[dst]) % mod
        return {k: x for k, x in v.items() if x}

    # -- materialized transforms ---------------------------------------------
    # Nothing in ovc reads these; perfbench/tracer.py wraps both by name.

    def materialize_Uinv(self) -> dict:
        """Uinv as {row: {col: value}}, read off its columns."""
        self._require_log("U")
        rows: dict[int, dict[int, int]] = {}
        for c in range(self.nrows):
            for r, x in self.apply_Uinv({c: 1}).items():
                rows.setdefault(r, {})[c] = x
        return rows

    def materialize_V_cols(self) -> dict:
        """V as {col: {row: value}} (column-major)."""
        self._require_log("V")
        return {c: self.apply_V({c: 1}) for c in range(self.ncols)}

    # -- derived spaces ------------------------------------------------------

    def kernel_basis(self) -> list[dict]:
        """Columns of V above the zero (at precision) divisors: every pivot
        sits below the ceiling, so these are the free columns."""
        self._require_log("V")
        return [self.apply_V({c: 1}) for c in self.free_cols]

    def coker_reps(self) -> list[dict]:
        """Uinv images of the non-pivot rows: representatives of the
        cokernel.  Every logged row op reads a pivot row, so Uinv fixes the
        unit vector of each free row and these are those unit vectors."""
        self._require_tracked()
        return [{r: 1} for r in self.free_rows]

    def solve(self, b: dict):
        """Some x with A x = b at precision, or None if inconsistent."""
        bp = self.apply_U(b)
        x = {}
        for r, c, e in self.pivots:
            val = bp.pop(r, 0)
            if val % self.p ** e:
                return None
            if val:
                x[c] = val // self.p ** e
        if any(bp.values()):
            return None
        return self.apply_V(x)


def digit_precision(p: int, N: int) -> int:
    """The largest K <= N with p^K below one CPython digit, and at least 1:
    residues mod p^K then take the interpreter's one-digit fast paths."""
    digit, K = 1 << sys.int_info.bits_per_digit, 1
    while K < N and p ** (K + 1) < digit:
        K += 1
    return K


def sparse_snf(nrows: int, ncols: int, entries: Entries, p: int, N: int,
               track: bool = True, logs: str = "UV") -> SnfResult:
    """Reduce a sparse integer matrix mod p^N to diagonal form.

    ``entries`` holds no (row, col) pair twice: a repeat would overwrite the
    earlier value, not add to it.  Its order is the order the row and column
    maps are filed in, which the op logs follow.  A value that vanishes mod
    p^N is skipped.  The maps of ``cohomology._assemble`` also hold no zero
    and list their column indices in nondecreasing order, so each column's
    map is looked up once per run of its entries.  Row/column indices are
    positions, 0 <= row < ``nrows`` and 0 <= col < ``ncols``: the maps are
    held in lists indexed by them, so a negative index would file its entry
    silently at the other end, and the kernel pays for no scan to refuse
    one.  The pivoting order prefers small indices, so callers should
    pre-order their bases (lowest total exponent first, deglex tiebreak).

    Levels run from 0 to N-1.  At level e every active entry has valuation
    >= e, and row operations never lower a column's minimum valuation (the
    valuation of the gcd of its entries): a column's new entries are
    combinations of its own entries.  Every column starts in bucket 0 and
    the invariant is bucket <= minimum.  At level e the columns of bucket e
    are taken in the order given below.  At its turn a column whose entries
    all cancelled is dropped, since fill enters a column only through its
    entry in a pivot row.  Any other column looks for its pivot row among
    its entries of valuation e and pivots there; with none, its minimum is
    above e and it moves to the bucket of its minimum, the valuation of its
    one entry or of the gcd of its entries (taken only then: every entry
    has valuation >= e, so the gcd has valuation e exactly when some entry
    does).  A column whose minimum is e when level e starts is then in
    bucket e, so this pivots exactly those columns, in that order, skipping
    those whose minimum rises before their turn.

    Tracked, columns go in increasing order and the pivot row is the lowest
    row of valuation e.  Its pivots, free lists and row and column op logs,
    order included, are part of the contract: generators and report digests
    are read off them, and tests/test_linalg.py pins them exactly.  Every
    logged row op reads a pivot row (it scales one, or adds a multiple of one
    to another row), so U^-1 fixes the unit vector of every free row.

    ``logs`` names the op logs a tracked run keeps: "U" the row log, which
    ``apply_U``, ``apply_Uinv``, ``solve`` and ``materialize_Uinv`` read,
    and "V" the column log, which ``apply_V``, ``kernel_basis``, ``solve``
    and ``materialize_V_cols`` read; the default keeps both.  A log left out
    is never built, and the pivots, the free lists and the other log are
    those of a run that keeps it, as the logs steer no choice.

    With ``track=False`` the op logs stay empty and the pivot row is the row
    of valuation e with the fewest entries (the lowest on a tie), since its
    length is the fill it spreads into every other row of its column.  In
    both modes a column with a single entry is handled first and has no
    other row: its pivot row is unlinked from the columns it meets and
    dropped, with no scaling and no update (a tracked run still logs the
    scaling and the column ops it keeps, in row order).

    Untracked, every matrix is reduced as its transpose (``by_row`` and
    ``by_col`` trade places), its columns taken from the last down and its
    pivots turned back to the caller's orientation at the end.  On a seed-1
    pass of the plane-fillin benchmark this takes the 48 tall maps 0 in
    139,284 entry updates, and the 48 top maps, wide but pruned of their
    paired columns, in 4,259 rather than the 68,069 of the untransposed
    first-column-first order (5,849 untransposed last first, 191,507
    transposed first first).  A and A^T have the same Smith divisors, so
    only the SNF invariants are promised: the divisors, the rank at every
    cutoff, the gap and the sizes of the free lists.
    """
    mod = p ** N
    by_row: list[dict[int, int] | None] = [None] * nrows
    by_col: list[dict[int, int] | None] = [None] * ncols
    last = None
    for r, c, x in zip(entries.rows, entries.cols, entries.vals):
        x %= mod
        if x:
            row = by_row[r]
            if row is None:
                by_row[r] = {c: x}
            else:
                row[c] = x
            if c != last:
                col = by_col[c]
                if col is None:
                    col = by_col[c] = {}
                last = c
            col[r] = x
    # untracked, the transpose is eliminated
    flip = not track
    if flip:
        by_row, by_col = by_col, by_row
    log_u, log_v = track and "U" in logs, track and "V" in logs

    buckets = [list(compress(count(), by_col))] + [[] for _ in range(N - 1)]
    inverses: dict[int, int] = {}
    row_ops, col_ops, pivots = [], [], []

    for level, bucket in enumerate(buckets):
        pe = p ** level
        above = pe * p      # x % above is nonzero iff x has valuation level
        for c in sorted(bucket, reverse=flip):
            col = by_col[c]
            if len(col) == 1:
                (r, x), = col.items()
                if not x % above:
                    buckets[int_valuation(x, p)].append(c)
                    continue
                # no other row to clear: unlink the pivot row, log its ops
                by_col[c] = None
                pivot_row = by_row[r]
                by_row[r] = None
                del pivot_row[c]
                if log_u or log_v:
                    u = x // pe
                    uinv = inverses.get(u) or inverses.setdefault(
                        u, pow(u, -1, mod))
                    if log_u and u != 1:
                        row_ops.append(("rs", r, uinv))
                if log_v:
                    for cc, y in pivot_row.items():
                        del by_col[cc][r]
                        col_ops.append(("ca", c, cc,
                                        -(y * uinv % mod // pe) % mod))
                else:
                    for cc in pivot_row:
                        del by_col[cc][r]
                pivots.append((r, c, level))
                continue
            if not col:
                continue
            r = best = None
            if track:
                for rr, x in col.items():
                    if x % above and (r is None or rr < r):
                        r = rr
            else:
                for rr, x in col.items():
                    if x % above:
                        size = len(by_row[rr])
                        if best is None or size < best or (size == best
                                                           and rr < r):
                            best, r = size, rr
            if r is None:
                buckets[int_valuation(gcd(*col.values()), p)].append(c)
                continue
            by_col[c] = None
            # normalize the pivot row so the pivot becomes exactly p^level,
            # log the column ops that clear it and take it out of its columns
            u = col.pop(r) // pe
            uinv = inverses.get(u) or inverses.setdefault(u, pow(u, -1, mod))
            if u != 1 and log_u:
                row_ops.append(("rs", r, uinv))
            pivot_row = by_row[r]
            by_row[r] = None
            del pivot_row[c]
            prow = []
            for cc, y in pivot_row.items():
                y = y * uinv % mod
                ccol = by_col[cc]
                del ccol[r]
                prow.append((cc, y, ccol))
                if log_v:
                    col_ops.append(("ca", c, cc, -(y // pe) % mod))
            # clear the pivot column: row rr -= m * (pivot row)
            for rr, x in col.items():
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
                if log_u:
                    row_ops.append(("ra", r, rr, -m % mod))
            pivots.append((r, c, level))

    if flip:
        pivots = [(r, c, e) for c, r, e in pivots]
    free_rows, free_cols = bytearray([1]) * nrows, bytearray([1]) * ncols
    for r, c, _ in pivots:
        free_rows[r] = free_cols[c] = 0
    return SnfResult(nrows, ncols, p, N, pivots, row_ops, col_ops,
                     list(compress(range(ncols), free_cols)),
                     list(compress(range(nrows), free_rows)), track,
                     "U" * log_u + "V" * log_v)
