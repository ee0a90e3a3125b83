"""Unipotence algorithms over windowed Robba rings.

Given a module whose connection is strictly triangular over the ring (a
unipotent filtration certificate), extract a basis in which the dlog operator
D acts through a constant nilpotent matrix X, bound the denominators showing
up in the horizontal-section iteration, run that iteration, and read off
H^0/H^1 from the kernel and cokernel of X on constant vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cohomology import CohomologyReport, DegreeData
from .errors import BadCertificateError, PrecisionError
from .linalg import Entries, sparse_snf
from .modules import ModuleVector, SeriesMatrix, SigmaNablaModule, apply_D
from .padics import from_residue, int_valuation, integral_shift, make_scalar
from .series import Series, _vanishes, dlog_antiderivative, t_d_dt, \
    w_slope


class UnipotentData(NamedTuple):
    module: SigmaNablaModule
    change_of_basis: SeriesMatrix     # U: new basis = old basis * U
    nilpotent_X: tuple                # rank x rank PadicApprox constants
    nilpotency_e: int

    def verify(self) -> bool:
        """N U + t dU/dt = U X at the working precision."""
        mod = self.module
        ring = mod.ring
        U = self.change_of_basis
        X = SeriesMatrix.from_scalars(ring, self.nilpotent_X)
        lhs = mod.connection.mul(U).add(U.map(lambda s: t_d_dt(s)))
        return lhs.sub(U.mul(X)).is_zero_at_precision()


def nonconstant_part(s: Series) -> Series:
    """The terms other than t^0."""
    zero = s.descriptor.zero_exp()
    return Series(s.descriptor, tuple(t for t in s.terms if t[0] != zero))


def _is_strictly_upper(N: SeriesMatrix, digits: int) -> bool:
    return _vanishes(((e, c.val) for i, row in enumerate(N.rows)
                      for x in row[:i + 1] for e, c in x.terms), digits)


def strongly_unipotent_basis(module: SigmaNablaModule,
                             filtration: SeriesMatrix | None = None
                             ) -> UnipotentData:
    """Turn a unipotent filtration into a basis where D acts by constants.

    ``filtration`` columns express a unipotent basis in the module's basis
    (identity if omitted); in that basis the connection must be strictly
    upper triangular over the ring (column j supported on rows < j).  Each
    offending entry splits into its constant part plus a dlog-antiderivable
    part which is pushed into the change of basis.
    """
    ring = module.ring
    if not ring.is_robba():
        raise BadCertificateError("unipotence algorithms need a robba-kind ring")
    n = module.rank
    M = ring.precision
    U = filtration if filtration is not None else SeriesMatrix.identity(ring, n)
    if filtration is not None:
        Uinv = U.inverse()
        N = Uinv.mul(module.connection).mul(U).add(
            Uinv.mul(U.map(lambda s: t_d_dt(s))))
    else:
        N = module.connection
    if not _is_strictly_upper(N, M):
        raise BadCertificateError(
            "connection is not strictly triangular in the supplied filtration")

    rows = [list(r) for r in N.rows]
    urows = [list(r) for r in U.rows]
    for i in range(n):
        for l in range(i - 1, -1, -1):
            rest = nonconstant_part(rows[l][i])
            if rest.is_zero():
                continue
            e = dlog_antiderivative(rest)
            # basis change B_i <- B_i - e * B_l
            for r in range(n):
                rows[r][i] = rows[r][i].sub(e.mul(rows[r][l]))
            for c in range(n):
                rows[l][c] = rows[l][c].add(e.mul(rows[i][c]))
            rows[l][i] = rows[l][i].sub(rest)
            for r in range(n):
                urows[r][i] = urows[r][i].sub(e.mul(urows[r][l]))

    if not SeriesMatrix.make(ring, rows).map(
            nonconstant_part).is_zero_at_precision():
        raise PrecisionError("non-constant residue survived basis extraction")
    X = tuple(tuple(x.coeff(ring.zero_exp()) for x in row) for row in rows)

    e = _nilpotency_index(X, ring)
    return UnipotentData(module, SeriesMatrix.make(ring, urows), X, e)


def _nilpotency_index(X, ring) -> int:
    """The least e with X^e = 0 mod p^M, M the ring's precision, for a
    constant matrix X over the ring; each power is cut at p^M as a product
    of series matrices is."""
    X = SeriesMatrix.from_scalars(ring, X)
    power = X
    for e in range(1, X.nrows + 2):
        if power.is_zero_at_precision():
            return e
        power = power.mul(X)
    raise BadCertificateError("extracted matrix is not nilpotent at precision")


# -- the elementary denominator bound -----------------------------------------

def _ceil_log(n: int, p: int) -> int:
    a, power = 0, 1
    while power < n:
        power *= p
        a += 1
    return a


def bounddenom(m: int, l: int, e: int, p: int, verify: bool = False):
    """Bound (e-1)*ceil(log_p(|m|+l)) on the power of p clearing the
    denominators of prod_{i=1..l} (m+x+i)/i in Q_p[x]/(x^e).

    In verify mode also computes the exact least exponent from the product.
    """
    if l < 1 or e < 1:
        raise ValueError("l and e must be positive")
    bound = (e - 1) * _ceil_log(abs(m) + l, p)
    if not verify:
        return bound
    # numerator polynomial prod (m+i+x) in Z[x]/(x^e), exact integers
    num = [1] + [0] * (e - 1)
    for i in range(1, l + 1):
        a = m + i
        for j in range(e - 1, 0, -1):     # top down, so num[j - 1] is old
            num[j] = num[j] * a + num[j - 1]
        num[0] *= a
    vfact = sum(l // p ** k for k in range(1, _ceil_log(l, p) + 2))
    exact = 0
    for c in num:
        if c:
            exact = max(exact, vfact - int_valuation(c, p))
    return bound, exact


# -- horizontal sections --------------------------------------------------------

class IterationLog(NamedTuple):
    steps: list                     # w_slope values of successive differences
    headroom_used: int
    result: ModuleVector


def horizontal_iterate(data: UnipotentData, w: ModuleVector, L: int
                       ) -> IterationLog:
    """f_0 = D^(e-1) w, then f_l = (1 - D^2/l^2)^e f_(l-1) up to l = L.

    Dividing by l^2 costs 2 vp(l) digits per application; the run aborts when
    the cumulative 2e * sum vp(l) exceeds the working precision headroom.
    """
    module = data.module
    ring = module.ring
    p, M = ring.prime, ring.precision
    e = data.nilpotency_e
    need = 2 * e * sum(int_valuation(l, p) for l in range(1, L + 1) if l % p == 0)
    if need >= M:
        raise PrecisionError(
            f"headroom report: iteration to L={L} needs {need} digits "
            f"of headroom but only {M} are available")

    f = w
    for _ in range(e - 1):
        f = apply_D(module, f)
    logs = []
    for l in range(1, L + 1):
        prev = f
        acc = [Series.zero(ring) for _ in range(module.rank)]
        dpow = prev
        for k in range(e + 1):
            c = make_scalar(
                Fraction((-1) ** k * math.comb(e, k), l ** (2 * k)), p, M)
            for idx in range(module.rank):
                acc[idx] = acc[idx].add(dpow.coords[idx].scale(c))
            if k < e:
                dpow = apply_D(module, apply_D(module, dpow))
        f = ModuleVector(module, tuple(acc))
        steps = [w_slope(a.sub(b), ring.slope)
                 for a, b in zip(f.coords, prev.coords)]
        logs.append(min((s for s in steps if s is not None), default=None))
    return IterationLog(logs, need, f)


# -- cohomology of unipotent modules --------------------------------------------

def h0_h1_unipotent(data: UnipotentData) -> CohomologyReport:
    """H^0 = ker X and H^1 = coker X on constant vectors (tensor dt/t),
    reported in the module's original basis."""
    module = data.module
    ring = module.ring
    p, M = ring.prime, ring.precision
    n = module.rank
    X = data.nilpotent_X
    shift = integral_shift(c for row in X for c in row)
    N = M + shift
    entries = Entries.of_columns(
        {i: X[i][j].residue(N, shift) for i in range(n)
         if X[i][j].val is not None} for j in range(n))
    snf = sparse_snf(n, n, entries, p, N, logs="V")
    U = data.change_of_basis

    def to_vectors(int_vecs):
        out = []
        for v in int_vecs:
            coords = U.apply(tuple(
                Series.make(ring, {ring.zero_exp(): from_residue(
                    v.get(i, 0), p, N)}) for i in range(n)))
            out.append(ModuleVector(module, coords))
        return out

    kernel = to_vectors(snf.kernel_basis())
    coker = to_vectors(snf.coker_reps())
    degrees = {
        0: DegreeData(tuple(kernel), len(kernel)),
        1: DegreeData(tuple(coker), len(coker)),
    }
    return CohomologyReport(degrees, snf.certification_gap() - shift)
