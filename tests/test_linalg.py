"""Sparse diagonal reduction against a dense elimination oracle."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from ovc.acceptance import TATE
from ovc.cohomology import mw_complex
from ovc.linalg import _val, sparse_snf
from ovc.modules import SeriesMatrix, SigmaNablaModule
from ovc.padics import int_valuation
from ovc.series import RingDescriptor, Series


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
                    v = _val(x, p, N)
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


def test_divisors_match_dense_oracle():
    rng = random.Random(2)
    p, N = 3, 6
    for _ in range(250):
        A, ent = random_matrix(rng, p, N)
        res = sparse_snf(len(A), len(A[0]), ent, p, N)
        assert res.divisors() == dense_divisors(A, p, N)
    for p, N in ((2, 8), (3, 6), (5, 5)):
        for _ in range(60):
            A, ent = sparse_matrix(rng, p, N, rng.randint(1, 20),
                                   rng.randint(1, 20),
                                   rng.choice([0.1, 0.2, 0.3]))
            res = sparse_snf(len(A), len(A[0]), ent, p, N)
            assert res.divisors() == dense_divisors(A, p, N)


def test_kernel_and_solve():
    rng = random.Random(3)
    p, N = 3, 6
    mod = p ** N
    for _ in range(200):
        A, ent = random_matrix(rng, p, N)
        m, n = len(A), len(A[0])
        res = sparse_snf(m, n, ent, p, N)
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
    res = sparse_snf(2, 1, {(0, 0): 1}, p, N)
    assert res.solve({1: 1}) is None


def test_transforms_materialize_consistently():
    rng = random.Random(4)
    p, N = 3, 5
    mod = p ** N
    for _ in range(120):
        A, ent = random_matrix(rng, p, N)
        m, n = len(A), len(A[0])
        res = sparse_snf(m, n, ent, p, N)
        uinv = res.materialize_Uinv()
        b = {i: rng.randint(0, mod - 1) for i in range(m)}
        ub = res.apply_U(b)
        for r in range(m):
            row = uinv.get(r, {r: 1})
            s = sum(v * ub.get(c, 0) for c, v in row.items()) % mod
            assert s == b[r] % mod
        vc = res.materialize_V_cols()
        for j in range(n):
            direct = {k: v % mod for k, v in res.apply_V({j: 1}).items()
                      if v % mod}
            mat = {k: v % mod for k, v in vc.get(j, {j: 1}).items() if v % mod}
            assert direct == mat


def test_certification_gap():
    p, N = 3, 6
    res = sparse_snf(2, 2, {(0, 0): 1, (1, 1): 3 ** 4}, p, N)
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
            out.append((len(A), len(A[0]), ent, p, N))
    return out


def _plane_differentials(seed=5, window=8, p=3, M=20, g1=None):
    """Both differentials of a seeded f(x)dx + g(y)dy plane module, as the
    cohomology engine hands them to sparse_snf; ``g1``, when given, is the
    coefficient of y in g."""
    rng = random.Random(seed)
    ring = RingDescriptor(TATE, ("x", "y"), ((0, window),) * 2, p, M)
    f = {(i, 0): rng.choice([1, 2, 4, 5, 7, 8]) for i in range(3)}
    g = {(0, i): rng.choice([1, 2, 4, 5, 7, 8]) for i in range(3)}
    if g1 is not None:
        g[(0, 1)] = g1
    module = SigmaNablaModule(ring, 1, gammas=tuple(
        (v, SeriesMatrix.make(ring, [[Series.from_ints(ring, c)]]))
        for v, c in (("x", f), ("y", g))))
    cdata = mw_complex(module)
    return [(cdata.spaces[idx + 1].dim, cdata.spaces[idx].dim, ints, p, N)
            for idx, (ints, (N, _)) in enumerate(zip(cdata.matrices,
                                                     cdata.scalings))]


def _path_inputs():
    """Inputs that take every branch of the level loop: at p = 2 and 3,
    queued columns whose minimum rises during their level, columns that
    cancel entirely and single-entry columns that pivot at level >= 1; and
    plane differentials with a coefficient 1/p, so N = M + 1."""
    rng = random.Random(13)
    out = [(m, n, repeating_matrix(rng, p, N, m, n, density), p, N)
           for p, N, m, n, density in ((2, 8, 16, 20, 0.15),
                                       (3, 6, 24, 30, 0.12))]
    for p, M in ((3, 12), (2, 10)):
        out += _plane_differentials(9, 6, p, M, Fraction(1, p))
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


@pytest.mark.parametrize("args", _pinned_matrices() + _plane_differentials()
                         + _path_inputs(),
                         ids=lambda a: f"{a[0]}x{a[1]}-p{a[3]}")
def test_untracked_matches_tracked(args):
    full = sparse_snf(*args)
    bare = sparse_snf(*args, track=False)
    assert bare.pivots == full.pivots
    assert bare.free_cols == full.free_cols
    assert bare.free_rows == full.free_rows
    assert bare.row_ops == [] and bare.col_ops == []
