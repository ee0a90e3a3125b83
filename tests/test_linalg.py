"""Sparse diagonal reduction against a dense elimination oracle."""

import hashlib
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from ovc import cohomology, linalg
from ovc.acceptance import TATE, trivial_module
from ovc.cohomology import (_paired_columns, compact_complex,
                            complex_cohomology, mw_complex)
from ovc.linalg import (Entries, SnfResult, _eliminate, _one_pass,
                        digit_precision, sparse_snf)
from ovc.modules import SeriesMatrix, SigmaNablaModule
from ovc.padics import int_valuation
from ovc.series import RingDescriptor, Series


def triples(entries: dict) -> Entries:
    """A {(row, col): x} test matrix as the input of sparse_snf, its entries
    in dict order."""
    return Entries([r for r, _ in entries], [c for _, c in entries],
                   list(entries.values()))


def dense_divisors(A, p, N):
    """Independent oracle: straightforward dense elimination."""
    A = [row[:] for row in A]
    mod = p ** N
    m, n = len(A), len(A[0]) if A else 0
    divs, rows, cols = [], list(range(m)), list(range(n))
    while rows and cols:
        best = None
        for i in rows:
            for j in cols:
                x = A[i][j] % mod
                if x:
                    v = int_valuation(x, p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        divs.append(v)
        u = pow(A[i][j] % mod // p ** v, -1, mod)
        for jj in cols:
            A[i][jj] = A[i][jj] * u % mod
        for ii in rows:
            if ii == i:
                continue
            x = A[ii][j] % mod
            if x:
                f = x // p ** v
                for jj in cols:
                    A[ii][jj] = (A[ii][jj] - f * A[i][jj]) % mod
        rows.remove(i)
        cols.remove(j)
    return sorted(divs) + [N] * len(cols)


def random_matrix(rng, p, N):
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    A = [[rng.choice([0, 0, 1, 2, 5, 9, 27, 81, -3, 12]) % p ** N
          for _ in range(n)] for _ in range(m)]
    return A, {(i, j): A[i][j] for i in range(m) for j in range(n)
               if A[i][j] % p ** N}


def sparse_matrix(rng, p, N, m, n, density):
    """A seeded sparse m x n matrix whose entries carry valuations 0..3, so
    that elimination fills in and re-queues columns at several levels."""
    mod = p ** N
    A = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                A[i][j] = (rng.randint(1, mod - 1)
                           * p ** rng.choice([0, 0, 0, 1, 1, 2, 3])) % mod
    return A, {(i, j): A[i][j] for i in range(m) for j in range(n)
               if A[i][j]}


def repeating_matrix(rng, p, N, m, n, density):
    """A seeded sparse m x n matrix whose columns often repeat earlier ones.
    A unit multiple of an earlier column cancels entirely once that column
    pivots; an earlier column plus p^(v+1) times noise, v its minimum
    valuation, loses its lowest entries then and pivots at a later level."""
    mod = p ** N
    cols = []
    for _ in range(n):
        kind = rng.random() if cols else 1.0
        if kind < 0.25:
            u = rng.choice([x for x in range(1, 4 * p) if x % p])
            cols.append({i: u * x % mod for i, x in rng.choice(cols).items()})
        elif kind < 0.5:
            col = dict(rng.choice(cols))
            step = p ** (int_valuation(gcd(*col.values()), p) + 1)
            for i in rng.sample(range(m), 2):
                col[i] = (col.get(i, 0) + step * rng.randint(1, mod)) % mod
            cols.append({i: x for i, x in col.items() if x})
        else:
            col = {}
            while not col:
                for i in range(m):
                    x = (rng.randint(1, mod - 1)
                         * p ** rng.choice([0, 0, 1, 1, 2, 3])) % mod
                    if x and rng.random() < density:
                        col[i] = x
            cols.append(col)
    return {(i, j): x for j, col in enumerate(cols) for i, x in col.items()}


def _oracle_matrices():
    """250 small dense-ish matrices at p = 3, then 180 sparse ones up to
    20 x 20 at p = 2, 3 and 5: (A, entries, p, N)."""
    rng = random.Random(2)
    p, N = 3, 6
    for _ in range(250):
        A, ent = random_matrix(rng, p, N)
        yield A, ent, p, N
    for p, N in ((2, 8), (3, 6), (5, 5)):
        for _ in range(60):
            A, ent = sparse_matrix(rng, p, N, rng.randint(1, 20),
                                   rng.randint(1, 20),
                                   rng.choice([0.1, 0.2, 0.3]))
            yield A, ent, p, N


def test_divisors_match_dense_oracle():
    for A, ent, p, N in _oracle_matrices():
        res = sparse_snf(len(A), len(A[0]), triples(ent), p, N)
        assert res.divisors() == dense_divisors(A, p, N)


def _tall_repeating_matrices():
    """Transposes of wide repeating matrices at p = 2, 3 and 5.  The
    untracked kernel reduces every matrix as its transpose, so here its
    columns are the repeating ones and rise to a later level or cancel
    entirely, in an order that depends on the order they are taken in."""
    rng = random.Random(17)
    for p, N in ((2, 8), (3, 6), (5, 5)):
        for _ in range(20):
            n = rng.randint(3, 12)
            m = rng.randint(n + 1, 2 * n + 4)
            wide = repeating_matrix(rng, p, N, n, m, rng.choice([0.2, 0.35]))
            A = [[wide.get((j, i), 0) for j in range(n)] for i in range(m)]
            yield A, {(i, j): x for (j, i), x in wide.items()}, p, N


def test_untracked_divisors_match_dense_oracle():
    for A, ent, p, N in (*_oracle_matrices(), *_tall_repeating_matrices()):
        res = sparse_snf(len(A), len(A[0]), triples(ent), p, N, logs=None)
        assert res.divisors() == dense_divisors(A, p, N)


def _scalable_inputs():
    """(m, n, entries, p, N): seeded sparse and repeating matrices up to
    25 x 25, wide and tall, at p = 2, 3 and 5 and N = 3..8."""
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(100):
            N = rng.randint(3, 8)
            m, n = rng.randint(2, 25), rng.randint(1, 25)
            density = rng.choice([0.1, 0.2, 0.35])
            if rng.random() < 0.5:
                yield (m, n) + (sparse_matrix(rng, p, N, m, n, density)[1],
                                p, N)
            else:
                yield m, n, repeating_matrix(rng, p, N, m, n, density), p, N


def test_p_times_a_reduces_as_a_one_level_up():
    # metamorphic: p*A mod p^(N+1) is p times A mod p^N, so every column of
    # p*A starts with minimum >= 1 and moves out of bucket 0 at level 0;
    # from there the reduction must repeat A's one level higher, with every
    # logged multiplier congruent mod p^N
    for m, n, ent, p, N in _scalable_inputs():
        mod = p ** N
        scaled = {k: p * x for k, x in ent.items()}
        for logs in ("UV", None):
            base = sparse_snf(m, n, triples(ent), p, N, logs=logs)
            up = sparse_snf(m, n, triples(scaled), p, N + 1, logs=logs)
            assert up.pivots == [(r, c, e + 1) for r, c, e in base.pivots]
            assert up.free_rows == base.free_rows
            assert up.free_cols == base.free_cols
            for got, want in ((up.row_ops, base.row_ops),
                              (up.col_ops, base.col_ops)):
                assert [op[:-1] + (op[-1] % mod,) for op in got] == want


def single_entry_matrix(rng, p, N, m, n, extra):
    """A seeded m x n matrix most of whose columns hold one entry: a partial
    permutation whose entries carry valuations 0..N-1, plus ``extra``
    entries at random places."""
    mod = p ** N

    def value():
        return rng.randint(1, p ** (N - 1)) * p ** rng.randrange(N) % mod \
            or 1

    ent = {(r, c): value() for r, c in zip(rng.sample(range(m), min(m, n)),
                                           rng.sample(range(n), min(m, n)))}
    for _ in range(extra):
        ent[(rng.randrange(m), rng.randrange(n))] = value()
    A = [[ent.get((i, j), 0) for j in range(n)] for i in range(m)]
    return A, ent


def _single_entry_inputs():
    """(A, entries, p, N): wide and tall single-entry matrices at p = 2, 3
    and 5, then both differentials of seeded f(x)dx + g(y)dy planes at
    window 6, p = 3, M = 20, whose derivative columns often hold one
    entry by the time their level comes."""
    rng = random.Random(23)
    for p, N in ((2, 8), (3, 6), (5, 5)):
        for _ in range(12):
            n = rng.randint(4, 16)
            m = rng.choice([rng.randint(2, n - 1), rng.randint(n + 1, 2 * n)])
            A, ent = single_entry_matrix(rng, p, N, m, n, rng.randint(0, n))
            yield A, triples(ent), p, N
    for seed in (1, 2, 3):
        for nrows, ncols, ent, p, N in _plane_differentials(seed, 6, 3, 20):
            A = [[0] * ncols for _ in range(nrows)]
            for r, c, x in zip(ent.rows, ent.cols, ent.vals):
                A[r][c] = x
            yield A, ent, p, N


def test_single_entry_columns_match_the_oracle_and_the_tracked_run():
    # an untracked column left with one entry pivots without scaling or
    # clearing; the SNF invariants must not see the difference
    for A, ent, p, N in _single_entry_inputs():
        m, n = len(A), len(A[0])
        At = [list(col) for col in zip(*A)]
        for case, dense in (((m, n, ent), A),
                            ((n, m, Entries(ent.cols, ent.rows, ent.vals)),
                             At)):
            full = sparse_snf(*case, p, N)
            bare = sparse_snf(*case, p, N, logs=None)
            assert bare.divisors() == full.divisors() \
                == dense_divisors(dense, p, N)
            assert [bare.rank(c) for c in range(N + 1)] \
                == [full.rank(c) for c in range(N + 1)]
            assert bare.certification_gap() == full.certification_gap()
            assert len(bare.free_cols) == len(full.free_cols)
            assert len(bare.free_rows) == len(full.free_rows)
            assert sorted([r for r, _, _ in bare.pivots] + bare.free_rows) \
                == list(range(case[0]))
            assert sorted([c for _, c, _ in bare.pivots] + bare.free_cols) \
                == list(range(case[1]))


def _pruned_inputs():
    """(A, entries, pruned entries, p, N): seeded wide and tall sparse
    matrices at p = 2, 3 and 5, and the same matrix with a random subset
    of its columns zeroed."""
    rng = random.Random(41)
    for p, N in ((2, 8), (3, 6), (5, 5)):
        for _ in range(40):
            m = rng.randint(2, 10)
            n = rng.choice([rng.randint(m, 3 * m), rng.randint(1, m)])
            A, ent = sparse_matrix(rng, p, N, m, n, rng.choice([0.3, 0.5]))
            zeroed = {c for c in range(n) if rng.random() < 0.4}
            yield A, ent, {(r, c): x for (r, c), x in ent.items()
                           if c not in zeroed}, p, N


def test_full_row_rank_of_a_column_subset_certifies_the_whole():
    # zeroing columns shrinks the column span, so the cokernel of the whole
    # matrix is a quotient of the pruned one's and its type lies inside the
    # pruned type: full row rank of the pruned matrix forces it on the
    # whole, with every divisor, and so the largest, no higher
    certified = fallback = lower = 0
    for A, ent, kept, p, N in _pruned_inputs():
        m, n = len(A), len(A[0])
        B = [[kept.get((i, j), 0) for j in range(n)] for i in range(m)]
        for logs in ("UV", None):
            whole = sparse_snf(m, n, triples(ent), p, N, logs=logs)
            pruned = sparse_snf(m, n, triples(kept), p, N, logs=logs)
            assert whole.divisors() == dense_divisors(A, p, N)
            assert pruned.divisors() == dense_divisors(B, p, N)
            if pruned.rank() < m:
                fallback += whole.rank() == m
                continue
            certified += 1
            assert whole.rank() == m
            assert whole.certification_gap() >= pruned.certification_gap()
            assert all(x <= y for x, y in zip(whole.divisors(),
                                              pruned.divisors()))
            lower += whole.divisors() != pruned.divisors()
    # the lemma is met often, and neither direction is trivial: some pruned
    # matrices lose full row rank that the whole one has, and some keep it
    # at higher divisors
    assert certified >= 60 and fallback >= 20 and lower >= 10, \
        (certified, fallback, lower)


def test_digit_precision_is_the_largest_one_digit_power():
    digit = 1 << sys.int_info.bits_per_digit
    for p in (2, 3, 5, 7, 101, 65521, (1 << 31) - 1):
        for N in range(1, 45):
            K = digit_precision(p, N)
            assert 1 <= K <= N
            assert p ** K < digit or K == 1
            assert K == N or p ** (K + 1) >= digit


def planted_matrix(rng, p, N, m, n, levels):
    """A seeded m x n matrix mod p^N whose Smith divisors are p^e for e in
    ``levels`` (min(m, n) of them; one at N or above plants a zero): a
    diagonal scattered over random cells, then mixed by unimodular row and
    column additions."""
    mod = p ** N
    A = [[0] * n for _ in range(m)]
    for r, c, e in zip(rng.sample(range(m), len(levels)),
                       rng.sample(range(n), len(levels)), levels):
        if e < N:
            A[r][c] = rng.choice([x for x in range(1, 4 * p) if x % p]) \
                * p ** e % mod
    for _ in range(m + n):
        f = rng.randrange(1, mod)
        if m > 1 and (n == 1 or rng.random() < 0.5):
            i, k = rng.sample(range(m), 2)
            A[i] = [(x + f * y) % mod for x, y in zip(A[i], A[k])]
        elif n > 1:
            i, k = rng.sample(range(n), 2)
            for row in A:
                row[i] = (row[i] + f * row[k]) % mod
    return A


def _planted_inputs():
    """(A, levels, p, N, K): wide and tall planted matrices at p = 2, 3 and
    5 with N one to three above the one-digit precision K.  Half have every
    divisor below K; the rest have some in [K, N) or at N and above."""
    rng = random.Random(53)
    for p in (2, 3, 5):
        for _ in range(40):
            K = digit_precision(p, 100)
            N = K + rng.randint(1, 3)
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            levels = [rng.choice([0, 0, 0, 1, 1, 2, rng.randrange(K)])
                      for _ in range(min(m, n))]
            if rng.random() < 0.5:
                for i in rng.sample(range(len(levels)),
                                    rng.randint(1, len(levels))):
                    levels[i] = rng.choice([rng.randrange(K, N), N, N + 2])
            yield planted_matrix(rng, p, N, m, n, levels), levels, p, N, K


def test_one_digit_reduction_stands_for_full_precision_at_full_rank():
    # mod p^K the divisors are min(e, K): the reduction there pivots every
    # row or every column exactly when every planted divisor is below K,
    # and it then has the pivot levels and ranks of the reduction mod p^N,
    # and its gap N - K below that one's
    full = short = 0
    for A, levels, p, N, K in _planted_inputs():
        m, n = len(A), len(A[0])
        ent = triples({(i, j): x for i, row in enumerate(A)
                       for j, x in enumerate(row) if x})
        assert digit_precision(p, N) == K
        at_n = sparse_snf(m, n, ent, p, N, logs=None)
        at_k = sparse_snf(m, n, ent, p, K, logs=None)
        for res, ceiling in ((at_n, N), (at_k, K)):
            kept = sorted(e for e in levels if e < ceiling)
            assert res.divisors() == kept + [ceiling] * (n - len(kept))
        stands = len(at_k.pivots) == min(m, n)
        assert stands == all(e < K for e in levels)
        if not stands:
            short += 1
            continue
        full += 1
        assert at_k.divisors() == [min(e, K) for e in at_n.divisors()]
        assert [at_k.rank(c) for c in range(N + 2)] \
            == [at_n.rank(c) for c in range(N + 2)]
        assert at_k.certification_gap() + N - K == at_n.certification_gap()
    assert full >= 30 and short >= 30, (full, short)


def test_kernel_and_solve():
    rng = random.Random(3)
    p, N = 3, 6
    mod = p ** N
    for _ in range(200):
        A, ent = random_matrix(rng, p, N)
        m, n = len(A), len(A[0])
        res = sparse_snf(m, n, triples(ent), p, N)
        for k in res.kernel_basis():
            for i in range(m):
                assert sum(A[i][j] * k.get(j, 0) for j in range(n)) % mod == 0
        x0 = {j: rng.randint(0, mod - 1) for j in range(n)}
        b = {i: sum(A[i][j] * x0[j] for j in range(n)) % mod for i in range(m)}
        x = res.solve({i: v for i, v in b.items() if v})
        assert x is not None
        for i in range(m):
            assert (sum(A[i][j] * x.get(j, 0) for j in range(n))
                    - b[i]) % mod == 0


def test_solve_rejects_outside_image():
    p, N = 3, 5
    res = sparse_snf(2, 1, triples({(0, 0): 1}), p, N)
    assert res.solve({1: 1}) is None


def test_transforms_invert_and_reach_the_kernel():
    rng = random.Random(4)
    p, N = 3, 5
    mod = p ** N
    for _ in range(120):
        A, ent = random_matrix(rng, p, N)
        m, n = len(A), len(A[0])
        res = sparse_snf(m, n, triples(ent), p, N)
        b = {i: x for i in range(m) if (x := rng.randint(0, mod - 1))}
        assert res.apply_Uinv(res.apply_U(b)) == b
        for k in res.kernel_basis():
            for i in range(m):
                assert sum(A[i][c] * x for c, x in k.items()) % mod == 0


def test_untracked_result_has_no_transforms():
    # the untracked pivots are those of a different elimination, so vectors
    # read through the (empty) op logs would be wrong: [{1: 1}] here is not
    # in the kernel
    p, N = 3, 4
    A = triples({(0, 0): 1, (0, 1): 1})
    assert sparse_snf(1, 2, A, p, N).kernel_basis() == [{1: 1, 0: 80}]
    bare = sparse_snf(1, 2, A, p, N, logs=None)
    assert bare.logs is None and bare.rank() == 1
    for read in (lambda: bare.apply_U({0: 1}), lambda: bare.apply_Uinv({0: 1}),
                 lambda: bare.apply_V({0: 1}), bare.materialize_Uinv,
                 bare.materialize_V_cols, bare.kernel_basis, bare.coker_reps,
                 lambda: bare.solve({0: 1})):
        with pytest.raises(ValueError, match="logs other than None"):
            read()


def test_certification_gap():
    p, N = 3, 6
    res = sparse_snf(2, 2, triples({(0, 0): 1, (1, 1): 3 ** 4}), p, N)
    assert res.rank() == 2
    assert res.certification_gap() == N - 4


# -- pinned output ---------------------------------------------------------------
#
# Generators, reports and their golden digests are read off the pivots and op
# logs, so a change to the elimination must leave every SnfResult field
# unchanged, not just the divisors.  The digests below pin the exact output.

def _snf_digest(res) -> str:
    return hashlib.sha256(repr((res.pivots, res.row_ops, res.col_ops,
                                res.free_cols, res.free_rows)).encode()
                          ).hexdigest()


def _pinned_matrices():
    rng = random.Random(11)
    out = []
    for p, N in ((2, 10), (3, 8), (5, 6)):
        for m, n, density in ((12, 15, 0.3), (25, 20, 0.15), (40, 40, 0.06),
                              (40, 36, 0.12)):
            A, ent = sparse_matrix(rng, p, N, m, n, density)
            out.append((len(A), len(A[0]), triples(ent), p, N))
    return out


def _plane_module(seed=5, window=8, p=3, M=20, g1=None):
    """A seeded f(x)dx + g(y)dy plane module, the shape of the plane-fillin
    benchmark's; ``g1``, when given, is the coefficient of y in g."""
    rng = random.Random(seed)
    ring = RingDescriptor(TATE, ("x", "y"), ((0, window),) * 2, p, M)
    f = {(i, 0): rng.choice([1, 2, 4, 5, 7, 8]) for i in range(3)}
    g = {(0, i): rng.choice([1, 2, 4, 5, 7, 8]) for i in range(3)}
    if g1 is not None:
        g[(0, 1)] = g1
    return SigmaNablaModule(ring, 1, gammas=tuple(
        (v, SeriesMatrix.make(ring, [[Series.from_ints(ring, c)]]))
        for v, c in (("x", f), ("y", g))))


def _plane_differentials(seed=5, window=8, p=3, M=20, g1=None):
    """Both differentials of ``_plane_module``, as the cohomology engine
    hands them to sparse_snf."""
    cdata = mw_complex(_plane_module(seed, window, p, M, g1))
    return [(cdata.spaces[idx + 1].dim, cdata.spaces[idx].dim, ints, p, N)
            for idx, (ints, (N, _)) in enumerate(zip(cdata.matrices,
                                                     cdata.scalings))]


def _pruned_top_map(differentials):
    """The top map of a two-map complex as the engine hands it to the
    rank-only kernel: mod p^K, K = ``digit_precision(p, N)``, without the
    columns that the rank-only reduction of map 0 mod p^K pairs off."""
    (m0, n0, ent0, p, N), (m1, n1, ent1, _, N1) = differentials
    below = sparse_snf(m0, n0, ent0, p, digit_precision(p, N), logs=None)
    paired = _paired_columns(below)
    keep = [(r, c, x) for r, c, x in zip(ent1.rows, ent1.cols, ent1.vals)
            if c not in paired]
    assert len(keep) < len(ent1)
    return (m1, n1, Entries(*map(list, zip(*keep))), p,
            digit_precision(p, N1))


def _path_inputs():
    """Inputs that take every branch of the level loop: at p = 2 and 3,
    queued columns whose minimum rises during their level, columns that
    cancel entirely and single-entry columns that pivot at level >= 1; and
    plane differentials with a coefficient 1/p, so N = M + 1."""
    rng = random.Random(13)
    out = [(m, n, triples(repeating_matrix(rng, p, N, m, n, density)), p, N)
           for p, N, m, n, density in ((2, 8, 16, 20, 0.15),
                                       (3, 6, 24, 30, 0.12))]
    for p, M in ((3, 12), (2, 10)):
        out += _plane_differentials(9, 6, p, M, Fraction(1, p))
    return out


def _trivial_differentials():
    """Every differential of the trivial plane at window 12, trivial 3-space
    at window 5 and the compactly supported trivial plane at window 8, at
    p = 3, M = 20: complexes with a structural class, so reduced tracked.
    Most columns hold one entry, many are emptied by unlinking before their
    turn, and some move to a level above 0."""
    out = []
    for build, nvars, window in ((mw_complex, 2, 12), (mw_complex, 3, 5),
                                 (compact_complex, 2, 8)):
        cdata = build(trivial_module(nvars, 3, 20, window))
        out += [(cdata.spaces[j + 1].dim, cdata.spaces[j].dim, ints, 3, N)
                for j, (ints, (N, _)) in enumerate(zip(cdata.matrices,
                                                       cdata.scalings))]
    return out


PINNED_MATRIX_DIGESTS = [
    "ac5a7c71d89de045aed939dfa27b277279dd83a7257556e36f652702eea639f3",
    "3aec73fdb951744e02571123136e50b4aa152cb256e35f2794a37d492bb21f3d",
    "7fb18f71a99cf3278c5ee8d6f816a72f998277ccb7f7e58f8bdcbe3634bc3f7b",
    "c9cd14c36af286d6ad79689683b3bc0801ecc6046f4b83ce58ddb3e54a43f2b4",
    "333ee1e8615989adea8738ef188f9517b94f8180199c7790a5c636eb0ccbca06",
    "795a1172308c826bd4d5fcb23e0a583e8f715d4512205c181864c69d43dac519",
    "f2c7674b31e3396a53d8ef0054bbd868fa76b60a87ad733fd5ac69d3e71204c3",
    "6de5a689a21fe60bfa79c9d4d5ec82cd709fe65e598ac84a85478db44efaae26",
    "b7fddb6d7fb3613f7e22cbe9e988656edab6ef6ab8c9e6c2f26a85154640fc99",
    "28e37df79da3dfa04497ae0f395551a909e1aa187462373790ca7cd9b0937da1",
    "dc302ee33b0b1da27ca6b392e644588fbe2aec71ce7c142a18d02e337445d48d",
    "80480ff9e0bcbf47965dbdbafb2741cab8a94dcf40f0b12feba2724e9142f0aa",
]

PINNED_PLANE_DIGESTS = [
    "71d8411add2a4b4563a677b2ef7ab02f2ff2e98b24c7e49b9bd3ea85817117df",
    "1821240a2b2538cb675c373084507648f7676d9bf7e8c8e474510ca9b198cfc7",
]


PINNED_PATH_DIGESTS = [
    "25f68e319c50563278ef2fad4582265d623af0fbc22acf23b1cf288eae88206f",
    "9e290e62040062ebbd6635f01b5d9e64b3f2144f557dd97f402d9eeab601aea3",
    "36d091265f9074104c086ee2bafbd6cbe1b184b96af79b287f2ddc5a096e2119",
    "593bd221695cff1dbe302b5929730671c9e04af328cba83bc171ac25bb9ddad1",
    "821874bb232ea22a9902e5b8c1b03b13b7561dd79eabfbf0acc92de3979f6569",
    "b8ef18b868a091ceae97302c487608071f466f5f5cb1754cc586d0e8dd70b120",
]

PINNED_TRIVIAL_DIGESTS = [
    "94fc696d6db325098a8b29a153ff9d04dd42df50b1366631ee808e629a411b97",
    "760ae6569233d14c401a1725c42bc12e4e0cb00bd6c7f02a59edbb9470e81d90",
    "f0326d7f15dc8eb44fb1c776912100a9089199c7f86f992c7862d9341238a6b4",
    "47c24567ffb07e21a69694b0750654bfe85dfb8c4b6c6090b334b42b2681d98c",
    "5f789df98f6f7b1ae096d1a1dd2a83e5f647619fe55f2f6b118030cb42906048",
    "adfff5bd6ac451e613170dcb4ea5a53e17570bab2644ec6857bfa06c71803234",
    "b6abd6ec74dc91706d7fb6aaf32a583982d000782d783677cdf10cbb021ea407",
]


def test_pinned_matrix_output():
    got = [_snf_digest(sparse_snf(*args)) for args in _pinned_matrices()]
    assert got == PINNED_MATRIX_DIGESTS


def test_pinned_plane_output():
    got = [_snf_digest(sparse_snf(*args)) for args in _plane_differentials()]
    assert got == PINNED_PLANE_DIGESTS


def test_pinned_path_output():
    inputs = _path_inputs()
    assert [N for *_, N in inputs] == [8, 6, 13, 13, 11, 11]
    assert [_snf_digest(sparse_snf(*args)) for args in inputs] \
        == PINNED_PATH_DIGESTS


def test_pinned_trivial_output():
    assert [_snf_digest(sparse_snf(*args))
            for args in _trivial_differentials()] == PINNED_TRIVIAL_DIGESTS


@pytest.mark.parametrize("args", _pinned_matrices() + _plane_differentials()
                         + _path_inputs() + _trivial_differentials(),
                         ids=lambda a: f"{a[0]}x{a[1]}-p{a[3]}")
def test_logs_left_out_change_no_pivot(args):
    # the op logs steer no choice: a run that keeps fewer of them has the
    # pivots and free lists of one that keeps both, the logs it keeps are
    # theirs, and a reader of a log it lacks raises, naming that log
    full = sparse_snf(*args)
    readers = {"row": ("U", lambda res: res.apply_U({0: 1}),
                       lambda res: res.apply_Uinv({0: 1}),
                       lambda res: res.materialize_Uinv()),
               "column": ("V", lambda res: res.apply_V({0: 1}),
                          lambda res: res.kernel_basis(),
                          lambda res: res.materialize_V_cols())}
    for logs in ("V", "", "U"):
        res = sparse_snf(*args, logs=logs)
        assert res.logs == logs
        assert (res.pivots, res.free_cols, res.free_rows) \
            == (full.pivots, full.free_cols, full.free_rows)
        assert res.row_ops == (full.row_ops if "U" in logs else [])
        assert res.col_ops == (full.col_ops if "V" in logs else [])
        assert res.coker_reps() == full.coker_reps()
        for name, (log, *reads) in readers.items():
            if log in logs:
                continue
            for read in reads:
                with pytest.raises(ValueError, match=f"no {name} log"):
                    read(res)
        # solve reads the row log, then the column log
        with pytest.raises(ValueError, match="no row log" if "U" not in logs
                           else "no column log"):
            res.solve({})


def test_row_ops_read_only_pivot_rows():
    # generator extraction takes the columns of Uinv at the free rows to be
    # unit vectors; that holds because every row op reads a pivot row
    for args in (_pinned_matrices() + _plane_differentials()
                 + _trivial_differentials()):
        res = sparse_snf(*args)
        pivot_rows = {r for r, _, _ in res.pivots}
        assert all(op[1] in pivot_rows for op in res.row_ops)
        for q in res.free_rows:
            assert res.apply_Uinv({q: 1}) == {q: 1}
        assert res.coker_reps() == [res.apply_Uinv({r: 1})
                                    for r in res.free_rows]


@pytest.mark.parametrize("args", _pinned_matrices() + _plane_differentials()
                         + _path_inputs() + _plane_differentials(window=16)
                         + [pytest.param(_pruned_top_map(
                             _plane_differentials(window=16)),
                             id="289x578-p3-pruned")]
                         + _trivial_differentials(),
                         ids=lambda a: f"{a[0]}x{a[1]}-p{a[3]}")
def test_untracked_matches_tracked(args):
    # the untracked pivot rows are chosen for fill, not order, and every
    # matrix is reduced as its transpose, so only the SNF invariants agree
    # with the tracked run; each input is also taken transposed, so the
    # untracked kernel meets every matrix in both orientations
    nrows, ncols, entries, p, N = args
    transposed = (ncols, nrows,
                  Entries(entries.cols, entries.rows, entries.vals), p, N)
    for case in (args, transposed):
        full = sparse_snf(*case)
        bare = sparse_snf(*case, logs=None)
        assert bare.divisors() == full.divisors()
        assert [bare.rank(c) for c in range(N + 1)] \
            == [full.rank(c) for c in range(N + 1)]
        assert bare.certification_gap() == full.certification_gap()
        assert len(bare.free_cols) == len(full.free_cols)
        assert len(bare.free_rows) == len(full.free_rows)
        assert bare.row_ops == [] and bare.col_ops == []
        # the pivots and free lists are in the caller's orientation
        assert sorted([r for r, _, _ in bare.pivots] + bare.free_rows) \
            == list(range(case[0]))
        assert sorted([c for _, c, _ in bare.pivots] + bare.free_cols) \
            == list(range(case[1]))


# -- the one-pass path ---------------------------------------------------------
#
# A matrix to eliminate whose every row (shape R) or every column (shape C)
# holds at most one entry has its pivots read off its entry lists by
# ``_one_pass``, when the run writes no op.  Its result must be the
# elimination loop's in every field, and ``_one_pass`` must decline every
# other matrix, every run that keeps the row log and every run that keeps
# the column log on a matrix not of shape R.

RUNS = (None, "UV", "U", "V", "")


def _fields(res) -> dict:
    return {name: getattr(res, name) for name in SnfResult.__slots__}


def lined_matrix(rng, p, N, m, n, shape) -> Entries:
    """A seeded m x n matrix with at most one entry in each row (``shape``
    "R"), in each column ("C"), or with no such bound ("U").  Values carry
    valuations 0..3 and may be zero, vanish mod p^N, be negative or
    unreduced; the entries come in column order or shuffled."""
    mod = p ** N

    def value():
        kind = rng.random()
        if kind < 0.08:
            return 0
        if kind < 0.16:
            return mod * rng.randint(-2, 2)
        return (rng.randint(1, mod - 1) * p ** rng.choice([0, 0, 1, 2, 3])
                + mod * rng.choice([0, 0, -1, -2, 1, 2]))

    if shape == "R":
        ent = {(r, rng.randrange(n)): value() for r in range(m)
               if rng.random() < 0.8}
    elif shape == "C":
        ent = {(rng.randrange(m), c): value() for c in range(n)
               if rng.random() < 0.8}
    else:
        ent = {(r, c): value() for r in range(m) for c in range(n)
               if rng.random() < 0.3}
    items = list(ent.items())
    if rng.random() < 0.5:
        items.sort(key=lambda item: item[0][::-1])
    else:
        rng.shuffle(items)
    return triples(dict(items))


def _lined_inputs():
    """(m, n, entries, p, N): 90 matrices of each shape at p = 2, 3 and 5,
    up to 10 x 10."""
    rng = random.Random(43)
    for p, N in ((2, 6), (3, 5), (5, 3)):
        for shape in "RCU":
            for _ in range(30):
                m, n = rng.randint(1, 10), rng.randint(1, 10)
                yield m, n, lined_matrix(rng, p, N, m, n, shape), p, N


def _one_per_line(entries, p, N) -> tuple:
    """Whether every row, and whether every column, holds at most one entry
    that does not vanish mod p^N."""
    live = [(r, c) for r, c, x in zip(entries.rows, entries.cols,
                                      entries.vals) if x % p ** N]
    return (len(live) == len({r for r, _ in live}),
            len(live) == len({c for _, c in live}))


def _one_pass_rule(entries, p, N, logs) -> bool:
    """Whether ``_one_pass`` reads the run: the matrix it eliminates, the
    transpose when rank-only, has shape R or C, and the run keeps no row
    log and keeps the column log only in shape R."""
    per_row, per_col = _one_per_line(entries, p, N)
    if logs is None:
        per_row, per_col = per_col, per_row
    else:
        per_col = per_col and "V" not in logs
    return (per_row or per_col) and "U" not in (logs or "")


def test_one_pass_matches_the_loop():
    taken = {logs: 0 for logs in RUNS}
    for nrows, ncols, ent, p, N in _lined_inputs():
        for logs in RUNS:
            fast = _one_pass(nrows, ncols, ent, p, N, logs)
            assert (fast is not None) == _one_pass_rule(ent, p, N, logs)
            if fast is not None:
                taken[logs] += 1
                assert fast.row_ops == fast.col_ops == []
                assert _fields(fast) == _fields(
                    _eliminate(nrows, ncols, ent, p, N, logs))
    # the 180 matrices of shapes R and C are all taken rank-only and with
    # no log, the 90 of shape R with the column log alone
    assert taken["UV"] == taken["U"] == 0
    assert taken[None] >= 180 and taken[""] >= 180 and taken["V"] >= 90


def test_one_pass_matches_the_loop_on_trivial_maps():
    for args in _trivial_differentials():
        for logs in RUNS:
            fast = _one_pass(*args, logs)
            if fast is not None:
                assert _fields(fast) == _fields(_eliminate(*args, logs))


def _spied_calls(monkeypatch, cdata) -> list:
    """(call, taken) for every sparse_snf call of ``complex_cohomology``:
    call is ("map", j) for map j, ("restriction", j) for map j restricted to
    the free rows of the map below, None for any other matrix.  Each result
    of the one-pass path is checked against the loop's."""
    calls, degrees = [], []
    one_pass, extract = linalg._one_pass, cohomology._extract_generators

    def spy(nrows, ncols, entries, p, N, logs):
        res = one_pass(nrows, ncols, entries, p, N, logs)
        if res is not None:
            assert _fields(res) == _fields(_eliminate(nrows, ncols, entries,
                                                      p, N, logs))
        maps = [j for j, d in enumerate(cdata.matrices) if d is entries]
        call = (("map", maps[0]) if maps else
                ("restriction", degrees[-1]) if degrees else None)
        calls.append((call, res is not None))
        return res

    def extracting(cdata, snfs, j, count):
        degrees.append(j)
        return extract(cdata, snfs, j, count)

    monkeypatch.setattr(linalg, "_one_pass", spy)
    monkeypatch.setattr(cohomology, "_extract_generators", extracting)
    complex_cohomology(cdata)
    monkeypatch.undo()
    return calls


def test_one_pass_reach(monkeypatch):
    # trivial coefficients: every map and free-row restriction is taken in
    # one pass but 3-space's middle map and its restriction, which fill
    for build, nvars, window in ((mw_complex, 2, 12), (mw_complex, 3, 5),
                                 (compact_complex, 2, 8)):
        cdata = build(trivial_module(nvars, 3, 20, window))
        calls = _spied_calls(monkeypatch, cdata)
        fills = {("map", 1), ("restriction", 1)} if nvars == 3 else set()
        assert {call for call, _ in calls} >= {("map", j) for j in
                                               range(nvars)} | fills
        assert any(call[0] == "restriction" for call, _ in calls)
        assert all(taken == (call not in fills) for call, taken in calls)
    # f(x)dx + g(y)dy planes, as plane-fillin reduces them: never taken
    for seed in (1, 2, 3):
        calls = _spied_calls(monkeypatch, mw_complex(
            _plane_module(seed, 10, 3, 12)))
        assert calls and not any(taken for _, taken in calls)
