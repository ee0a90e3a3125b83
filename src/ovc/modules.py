"""Finite free modules with connection and optional Frobenius structure.

Connections over robba-kind rings are stored in the dlog gauge as the matrix
N of the contracted operator D (so nabla v = D v (x) dt/t); modules over
tate/dagger rings store one matrix Gamma_i per variable in the plain dx
gauge.  All checks are pure and modules are immutable after construction.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DescriptorMismatchError
from .padics import make_scalar
from .series import (
    RingDescriptor,
    Series,
    _lowest,
    _vanishes,
    d_dt,
    frobenius_substitute,
    invert_series,
    kummer_substitute,
    t_d_dt,
)


# -- matrices over a series ring ----------------------------------------------

class SeriesMatrix(NamedTuple):
    descriptor: RingDescriptor
    rows: tuple  # tuple of tuples of Series

    @staticmethod
    def make(descriptor: RingDescriptor, rows) -> "SeriesMatrix":
        return SeriesMatrix(descriptor, tuple(tuple(r) for r in rows))

    @staticmethod
    def zero(descriptor: RingDescriptor, n: int) -> "SeriesMatrix":
        z = Series.zero(descriptor)
        return SeriesMatrix(descriptor, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @staticmethod
    def identity(descriptor: RingDescriptor, n: int) -> "SeriesMatrix":
        one, zero = Series.one(descriptor), Series.zero(descriptor)
        return SeriesMatrix(descriptor, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @staticmethod
    def from_scalars(descriptor: RingDescriptor, rows) -> "SeriesMatrix":
        return SeriesMatrix.make(descriptor, (
            (Series.monomial(descriptor, descriptor.zero_exp(), x) for x in r)
            for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def add(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix(self.descriptor, tuple(
            tuple(a.add(b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def sub(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self.add(other.map(Series.neg))

    def mul(self, other: "SeriesMatrix") -> "SeriesMatrix":
        cols = other.transpose().rows
        return SeriesMatrix(self.descriptor, tuple(
            tuple(_dot(row, col, self.descriptor) for col in cols)
            for row in self.rows))

    def scale(self, c) -> "SeriesMatrix":
        return self.map(lambda s: s.scale(c))

    def map(self, f) -> "SeriesMatrix":
        return SeriesMatrix(self.descriptor, tuple(
            tuple(f(x) for x in row) for row in self.rows))

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix(self.descriptor, tuple(zip(*self.rows)))

    def apply(self, vec) -> tuple:
        return tuple(
            _dot(self.rows[i], vec, self.descriptor) for i in range(self.nrows))

    def det(self) -> Series:
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return Series.one(self.descriptor)
        if n == 1:
            return self.rows[0][0]
        acc = Series.zero(self.descriptor)
        for j in range(n):
            minor = SeriesMatrix(self.descriptor, tuple(
                tuple(row[:j] + row[j + 1:]) for row in self.rows[1:]))
            term = self.rows[0][j].mul(minor.det())
            acc = acc.add(term if j % 2 == 0 else term.neg())
        return acc

    def inverse(self) -> "SeriesMatrix":
        """Adjugate divided by the determinant; the determinant must be a
        recognized unit of the ring."""
        n = self.nrows
        det_inv = invert_series(self.det())
        adj = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = SeriesMatrix(self.descriptor, tuple(
                    tuple(x for cc, x in enumerate(r) if cc != i)
                    for rr, r in enumerate(self.rows) if rr != j))
                c = minor.det().mul(det_inv)
                row.append(c if (i + j) % 2 == 0 else c.neg())
            adj.append(tuple(row))
        return SeriesMatrix(self.descriptor, tuple(adj))

    def _term_values(self):
        return ((e, c.val) for row in self.rows for x in row
                for e, c in x.terms)

    def is_zero_at_precision(self, digits: int | None = None) -> bool:
        return _vanishes(self._term_values(), self.descriptor.precision
                         if digits is None else digits)

    def max_defect_value(self):
        """min Gauss value over entries (None if all vanish): the defect norm."""
        return _lowest(self._term_values())[0]


def _dot(row, vec, descriptor):
    acc = Series.zero(descriptor)
    for a, b in zip(row, vec):
        acc = acc.add(a.mul(b))
    return acc


# -- modules -------------------------------------------------------------------

class _ModuleFields(NamedTuple):
    ring: RingDescriptor
    rank: int
    connection: SeriesMatrix | None
    gammas: tuple           # tuple of (varname, SeriesMatrix)
    frobenius: SeriesMatrix | None


class SigmaNablaModule(_ModuleFields):
    """rank-n free module with connection: an immutable tuple of the fields
    of ``_ModuleFields``, checked on every construction, ``_replace``
    included.

    robba kinds: ``connection`` is the dlog-gauge matrix N (D = t d/dt + N).
    tate/dagger kinds: ``gammas`` maps variable name -> matrix Gamma_i in the
    dx_i gauge (nabla = d + sum Gamma_i dx_i).
    ``frobenius`` (optional) gives F on the basis for the standard lift t->t^q.
    """
    __slots__ = ()

    def __new__(cls, ring: RingDescriptor, rank: int,
                connection: SeriesMatrix | None = None, gammas: tuple = (),
                frobenius: SeriesMatrix | None = None):
        named = [("connection", connection), ("frobenius", frobenius)]
        named += [(f"gamma {v}", g) for v, g in gammas]
        for what, m in named:
            if m is not None and (m.nrows, m.ncols) != (rank, rank):
                raise ValueError(f"{what} is {m.nrows}x{m.ncols}, "
                                 f"not {rank}x{rank}")
        if ring.is_robba():
            if connection is None:
                raise ValueError("robba-kind module needs the dlog matrix N")
            if gammas:
                raise ValueError("a robba-kind module takes no gamma")
        else:
            if connection is not None:
                raise ValueError(f"a {ring.kind} module takes no "
                                 "connection")
            for v, _ in gammas:
                if v not in ring.variables:
                    raise ValueError(f"unknown variable {v}")
        if frobenius is not None:
            # the induced map sigma* M -> M must be invertible at precision
            invert_series(frobenius.det())
        return tuple.__new__(cls, (ring, rank, connection, gammas, frobenius))

    def _replace(self, **changes) -> "SigmaNablaModule":
        return SigmaNablaModule(**{**self._asdict(), **changes})

    def gamma(self, var: str) -> SeriesMatrix:
        for v, g in self.gammas:
            if v == var:
                return g
        return SeriesMatrix.zero(self.ring, self.rank)

    def dual(self) -> "SigmaNablaModule":
        if self.ring.is_robba():
            return self._replace(
                connection=self.connection.transpose().map(Series.neg),
                frobenius=None)
        return self._replace(gammas=tuple(
            (v, g.transpose().map(Series.neg)) for v, g in self.gammas),
            frobenius=None)


class ModuleVector(NamedTuple):
    module: SigmaNablaModule
    coords: tuple  # length-rank tuple of Series

    @staticmethod
    def make(module: SigmaNablaModule, coords) -> "ModuleVector":
        coords = tuple(
            c if isinstance(c, Series) else Series.monomial(
                module.ring, module.ring.zero_exp(), c)
            for c in coords)
        if len(coords) != module.rank:
            raise ValueError("coordinate arity mismatch")
        return ModuleVector(module, coords)

    def is_zero_at_precision(self, digits: int | None = None) -> bool:
        return _vanishes(((e, c.val) for s in self.coords for e, c in s.terms),
                         self.module.ring.precision if digits is None
                         else digits)


def apply_D(module: SigmaNablaModule, v: ModuleVector) -> ModuleVector:
    """(Dv)_i = t d/dt v_i + sum_j N_ij v_j over a robba-kind ring, t its
    first variable."""
    if not module.ring.is_robba():
        raise DescriptorMismatchError("apply_D needs a robba-kind ring")
    lin = module.connection.apply(v.coords)
    out = tuple(t_d_dt(c).add(l) for c, l in zip(v.coords, lin))
    return ModuleVector(module, out)


def check_frobenius_compat(module: SigmaNablaModule) -> bool:
    """Commuting square for the standard lift: N Phi + t dPhi/dt = q Phi phi(N),
    with the defect vanishing at the working precision."""
    if module.frobenius is None:
        raise ValueError("no Frobenius structure present")
    ring = module.ring
    q = ring.qeff
    N, Phi = module.connection, module.frobenius
    tdPhi = Phi.map(lambda s: t_d_dt(s))
    lhs = N.mul(Phi).add(tdPhi)
    rhs = Phi.mul(N.map(frobenius_substitute)).scale(q)
    defect = lhs.sub(rhs)
    return defect.is_zero_at_precision()


def check_integrability(module: SigmaNablaModule) -> bool:
    """Curvature d_i Gamma_j - d_j Gamma_i + [Gamma_i, Gamma_j] = 0."""
    ring = module.ring
    if ring.is_robba():
        return True  # one dlog variable: integrability is automatic
    vars_ = ring.variables
    for a in range(len(vars_)):
        for b in range(a + 1, len(vars_)):
            gi, gj = module.gamma(vars_[a]), module.gamma(vars_[b])
            curv = (gj.map(lambda s: d_dt(s, vars_[a]))
                    .sub(gi.map(lambda s: d_dt(s, vars_[b])))
                    .add(gi.mul(gj)).sub(gj.mul(gi)))
            if not curv.is_zero_at_precision():
                return False
    return True


# -- traces along Kummer covers -------------------------------------------------

def trace_map(w: Series, e: int) -> Series:
    """Raw trace along the degree-e cover t -> t^e of the first variable:
    exponents divisible by e survive with the exponent divided by e and the
    coefficient multiplied by e (summing over the e twists annihilates the
    rest).  Requires e coprime to p.  Satisfies trace(pullback(a)) = e * a."""
    d = w.descriptor
    if e % d.prime == 0:
        raise ValueError("cover degree divisible by p is not supported")
    efac = make_scalar(e, d.prime, d.precision)
    out = {}
    for exp, c in w.terms:
        if exp[0] % e:
            continue
        out[(exp[0] // e,) + exp[1:]] = c.mul(efac)
    return Series.make(d, out)


def trace_projector_check(module: SigmaNablaModule, e: int,
                          h0_reps=None, h1_reps=None) -> bool:
    """Whether (1/e) Trace after pullback is the identity: on ring elements
    always, and on supplied cohomology representatives of the module
    downstairs."""
    ring = module.ring
    inv_e = make_scalar(e, ring.prime, ring.precision).invert()
    lo, hi = ring.window[0]
    probe = [Series.monomial(ring, (k,), 1 + abs(k))
             for k in range(max(lo, -3), min(hi, 3) + 1)]
    # a dlog one-form g dt/t pulls back to e g(t^e) dt/t, and its trace
    # divides the coefficient trace by e again; e is a p-unit, so the two
    # cancel exactly and an h^1 coefficient takes the same check as an h^0
    # one or a probe monomial
    coefficients = probe + [c for reps in (h0_reps, h1_reps)
                            for vec in reps or () for c in vec]
    return all(
        trace_map(kummer_substitute(c, e), e).scale(inv_e).sub(c).is_zero()
        for c in coefficients)
