"""Finite-precision arithmetic in Tate/dagger algebras and windowed Robba rings.

Elements are finite sums of monomials over an exponent window.  Exponent mass
that escapes the window during an operation is dropped and the best (smallest)
slope/Gauss value of the dropped mass is recorded in ``loss``, so every report
downstream can state what the hard window cost.  Coefficients below the
working absolute precision p^M are dropped likewise; coefficients that became
zero by cancellation inside the known range survive as flagged limited zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    AmbiguousResidueError,
    DescriptorMismatchError,
    NotARecognizedUnitError,
    ResidueObstructionError,
)
from .padics import PadicApprox, is_prime, make_scalar

Exp = tuple[int, ...]

TATE = "tate"
DAGGER = "dagger-fringe"
ROBBA = "robba"
ROBBA_PLUS = "robba-plus"

_KINDS = (TATE, DAGGER, ROBBA, ROBBA_PLUS)
_ROBBA_KINDS = (ROBBA, ROBBA_PLUS)


@dataclass(frozen=True)
class RingDescriptor:
    """Shape of a windowed series ring.

    ``variables`` are the ring's own variables (Tate variables for tate /
    dagger kinds, the annulus variables for robba kinds).
    """

    kind: str
    variables: tuple[str, ...]
    window: tuple[tuple[int, int], ...]
    prime: int
    precision: int
    q: int = 0                      # Frobenius parameter; 0 means "= p"
    decay: int | None = None        # fringe decay D, rho = p^(1/D); dagger
    slope: Fraction | None = None   # robba kinds

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if len(self.window) != len(self.variables):
            raise ValueError("window/variable arity mismatch")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        for lo, hi in self.window:
            if lo > hi:
                raise ValueError("empty window")
        if self.kind in (TATE, DAGGER, ROBBA_PLUS):
            for lo, hi in self.window:
                if lo != 0:
                    raise ValueError(f"{self.kind} window must start at 0")
        if self.kind in _ROBBA_KINDS:
            if self.slope is None or self.slope <= 0:
                raise ValueError("robba kinds need a positive slope")
        elif self.slope is not None:
            raise ValueError(f"a {self.kind} ring has no slope")
        if self.decay is not None:
            if self.kind != DAGGER:
                raise ValueError(f"a {self.kind} ring has no decay")
            if self.decay < 1:
                raise ValueError("decay must be >= 1")
        if self.q and self.q % self.prime:
            raise ValueError("q must be a power of p")

    @property
    def qeff(self) -> int:
        return self.q if self.q else self.prime

    def is_robba(self) -> bool:
        return self.kind in _ROBBA_KINDS

    def var_index(self, name: str) -> int:
        return self.variables.index(name)

    def in_window(self, exp: Exp) -> bool:
        return all(lo <= e <= hi for e, (lo, hi) in zip(exp, self.window))

    def zero_exp(self) -> Exp:
        return (0,) * len(self.variables)


def _loss_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class NormResult:
    value: Fraction | int | None   # None encodes +infinity
    uncertain: bool = False        # a dropped/limited zero could dominate


@dataclass(frozen=True)
class Series:
    """A windowed series: finite map exponent -> PadicApprox coefficient.

    ``loss`` is the best slope/Gauss value among all terms dropped at the
    window edge during the history of this element (None: nothing was
    dropped).
    """

    descriptor: RingDescriptor
    terms: tuple  # sorted tuple of (Exp, PadicApprox)
    loss: Fraction | None = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(descriptor: RingDescriptor, entries, loss=None) -> "Series":
        """Normalize a {exp: coeff} mapping into a Series.

        Out-of-window terms are dropped into the loss indicator; coefficients
        with valuation at or above the working precision are dropped;
        limited zeros within range are kept.
        """
        acc: dict[Exp, PadicApprox] = {}
        for exp, c in (entries.items() if isinstance(entries, dict) else entries):
            exp = tuple(exp)
            acc[exp] = acc[exp].add(c) if exp in acc else c
        kept = {}
        M = descriptor.precision
        for exp, c in acc.items():
            if c.is_exact_zero():
                continue
            if c.val is None:
                if c.prec >= M:          # limited zero at/above the floor
                    continue
            elif c.val >= M:             # below the working floor
                continue
            elif c.val + c.prec > M:
                c = c.with_abs_prec(M)
            if not descriptor.in_window(exp):
                loss = _loss_min(loss, _term_value(descriptor, exp, c))
                continue
            kept[exp] = c
        return Series(descriptor, tuple(sorted(kept.items(), key=lambda t: t[0])), loss)

    @staticmethod
    def zero(descriptor: RingDescriptor) -> "Series":
        return Series(descriptor, ())

    @staticmethod
    def monomial(descriptor: RingDescriptor, exp, coeff=1) -> "Series":
        if isinstance(coeff, (int, Fraction)):
            coeff = make_scalar(coeff, descriptor.prime, descriptor.precision)
        return Series.make(descriptor, {tuple(exp): coeff})

    @staticmethod
    def one(descriptor: RingDescriptor) -> "Series":
        return Series.monomial(descriptor, descriptor.zero_exp(), 1)

    @staticmethod
    def from_ints(descriptor: RingDescriptor, entries: dict) -> "Series":
        p, M = descriptor.prime, descriptor.precision
        return Series.make(
            descriptor, {tuple(e): make_scalar(c, p, M) for e, c in entries.items()})

    # -- queries -----------------------------------------------------------

    def coeff(self, exp) -> PadicApprox:
        exp = tuple(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return PadicApprox.zero(self.descriptor.prime)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Exp]:
        return [e for e, _ in self.terms]

    def gauss_value(self) -> Fraction | int | None:
        vals = [c.val for _, c in self.terms]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def map_coeffs(self, f) -> "Series":
        return Series.make(self.descriptor,
                           {e: f(c) for e, c in self.terms}, loss=self.loss)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Series"):
        if self.descriptor != other.descriptor:
            raise DescriptorMismatchError(
                "operands live in different ring descriptors")

    def add(self, other: "Series") -> "Series":
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc[e].add(c) if e in acc else c
        return Series.make(self.descriptor, acc, loss=_loss_min(self.loss, other.loss))

    def neg(self) -> "Series":
        return Series(self.descriptor,
                      tuple((e, c.neg()) for e, c in self.terms), self.loss)

    def sub(self, other: "Series") -> "Series":
        return self.add(other.neg())

    def mul(self, other: "Series") -> "Series":
        self._check(other)
        acc: dict[Exp, PadicApprox] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1.mul(c2)
                acc[e] = acc[e].add(c) if e in acc else c
        return Series.make(self.descriptor, acc, loss=_loss_min(self.loss, other.loss))

    def scale(self, c) -> "Series":
        """Multiply by a scalar (int, Fraction, or PadicApprox)."""
        if isinstance(c, (int, Fraction)):
            c = make_scalar(c, self.descriptor.prime, self.descriptor.precision)
        return Series.make(self.descriptor,
                           {e: x.mul(c) for e, x in self.terms},
                           loss=self.loss)

    def shift(self, exp) -> "Series":
        """Multiply by the monomial t^exp."""
        exp = tuple(exp)
        return Series.make(
            self.descriptor,
            {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.terms},
            loss=self.loss)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def __repr__(self):
        body = " + ".join(
            f"({c.serialize()})*t^{list(e)}" for e, c in self.terms) or "0"
        return f"<{self.descriptor.kind} {body}>"


def _term_value(descriptor, exp, c) -> Fraction | None:
    """Slope value (robba kinds, at the stated slope) or Gauss value of one term."""
    v = c.val
    if v is None:
        return None
    if descriptor.is_robba():
        return Fraction(v) + sum(Fraction(descriptor.slope) * e for e in exp)
    return Fraction(v)


# -- norms -------------------------------------------------------------------

def gauss_norm(a: Series) -> NormResult:
    """min over stored terms of vp(a_I); the norm is p^(-value).

    Flags when a precision-limited zero coefficient (or dropped window mass)
    could dominate the reported value.
    """
    vals = []
    floor = None
    for _, c in a.terms:
        v = c.val
        if v is None:
            if c.limited:
                floor = c.prec if floor is None else min(floor, c.prec)
        else:
            vals.append(v)
    if not vals:
        return NormResult(None, floor is not None)
    value = min(vals)
    return NormResult(value, floor is not None and floor <= value)


def rho_value(a: Series, D: int | None) -> Fraction | None:
    """Valuation under |.|_rho with rho = p^(1/D); D=None means Gauss (rho=1)."""
    best = None
    for e, c in a.terms:
        v = c.val
        if v is None:
            continue
        key = Fraction(v) if D is None else Fraction(v) - Fraction(sum(e), D)
        best = key if best is None else min(best, key)
    return best


@dataclass(frozen=True)
class WSlopeResult:
    value: Fraction | None
    window_limited: bool = False


def w_slope(x: Series, s) -> WSlopeResult:
    """w_{A,s}: min over the window of v(x_i) + s.|i|.

    Flags window-limited when the minimum sits at a window edge where the
    per-exponent trend is still decreasing, i.e. mass beyond the window could
    lower the value.
    """
    d = x.descriptor
    if not d.is_robba():
        raise DescriptorMismatchError("w_slope is defined on robba kinds")
    s = Fraction(s)
    if not 0 < s <= d.slope:
        raise ValueError("slope out of range (0, r]")
    best, best_exp = None, None
    for e, c in x.terms:
        v = c.val
        if v is None:
            continue
        key = Fraction(v) + s * sum(e)
        if best is None or key < best:
            best, best_exp = key, e
    if best is None:
        return WSlopeResult(None)
    limited = any(
        ei == lo or ei == hi
        for ei, (lo, hi) in zip(best_exp, d.window))
    return WSlopeResult(best, limited)


# -- inversion ---------------------------------------------------------------

def _contraction_value(a: Series) -> Fraction | None:
    """min over terms of the guaranteed term value, counting limited zeros
    at their floors; positivity certifies topological nilpotence on the
    window at working precision."""
    d = a.descriptor
    best = None
    for e, c in a.terms:
        if c.val is not None:
            v = Fraction(c.val)
        elif c.limited:
            v = Fraction(c.prec)
        else:
            return None
        if d.is_robba():
            v = v + sum(Fraction(d.slope) * ei for ei in e)
        if best is None or v < best:
            best = v
    return best


def invert_series(u: Series) -> Series:
    """Invert u = c * t^k * (1 - a) by geometric series.

    Requires a contraction certificate: after extracting the dominant
    monomial, the remainder must have strictly positive Gauss value
    (tate/dagger) or w_slope at the stated slope (robba kinds).  Failure
    raises NotARecognizedUnitError; it never proves non-unithood.
    """
    d = u.descriptor
    if u.is_zero():
        raise NotARecognizedUnitError("zero is not a unit")
    # dominant term: minimal term value, the first (smallest) exponent among
    # ties; which one is kept cannot show, since a tie leaves a remainder
    # term of value 0 and the contraction certificate below then fails
    best_val, pivot = None, None
    for e, c in u.terms:
        v = _term_value(d, e, c)
        if v is None:
            continue
        if best_val is None or v < best_val:
            best_val, pivot = v, (e, c)
    if pivot is None:
        raise NotARecognizedUnitError("no term with finite valuation")
    k, c = pivot
    if d.kind in (TATE, DAGGER, ROBBA_PLUS) and any(k):
        # monomial shifts are only invertible when two-sided windows exist
        raise NotARecognizedUnitError(
            "dominant term is a non-constant monomial in a plus ring")
    c_inv = c.invert()
    neg_k = tuple(-x for x in k)
    if not d.in_window(neg_k):
        raise NotARecognizedUnitError("inverted monomial leaves the window")
    # a = 1 - u / (c t^k)
    scaled = u.map_coeffs(lambda x: x.mul(c_inv)).shift(neg_k)
    a = Series.one(d).sub(scaled)
    if not a.is_zero():
        cert = _contraction_value(a)
        if cert is None or cert <= 0:
            raise NotARecognizedUnitError(
                "no contraction certificate: remainder value "
                f"{cert} is not positive")
    # sum of a^n, truncated by window and precision
    span = sum(hi - lo for lo, hi in d.window)
    max_terms = 4 * (d.precision + span + 2)
    acc = Series.one(d)
    power = a
    steps = 0
    while not power.is_zero():
        acc = acc.add(power)
        power = power.mul(a)
        steps += 1
        if steps > max_terms:
            raise NotARecognizedUnitError("geometric series did not terminate")
    result = acc.map_coeffs(lambda x: x.mul(c_inv)).shift(neg_k)
    return replace(result, loss=_loss_min(result.loss, u.loss))


# -- calculus ----------------------------------------------------------------

def d_dt(x: Series, var: str | int = 0) -> Series:
    """Termwise derivative: i * x_i * t^(i-1) in the named variable."""
    d = x.descriptor
    j = d.var_index(var) if isinstance(var, str) else var
    out = {}
    for e, c in x.terms:
        if e[j] == 0:
            continue
        ne = e[:j] + (e[j] - 1,) + e[j + 1:]
        out[ne] = c.mul(make_scalar(e[j], d.prime, d.precision))
    return Series.make(d, out, loss=x.loss)


def t_d_dt(x: Series, var: str | int = 0) -> Series:
    """The dlog derivative t*d/dt: exponent-preserving, exact on the window."""
    d = x.descriptor
    j = d.var_index(var) if isinstance(var, str) else var
    out = {}
    for e, c in x.terms:
        if e[j] == 0:
            continue
        out[e] = c.mul(make_scalar(e[j], d.prime, d.precision))
    return Series.make(d, out, loss=x.loss)


def dlog_antiderivative(x: Series, var: str | int = 0) -> Series:
    """y with t*dy/dt = x; obstructed by the constant (t^0) term."""
    d = x.descriptor
    j = d.var_index(var) if isinstance(var, str) else var
    out = {}
    for e, c in x.terms:
        if e[j] == 0:
            if c.is_zero():
                if c.limited:
                    raise AmbiguousResidueError(
                        "t^0 coefficient is zero only at working precision")
                continue
            raise ResidueObstructionError("nonzero t^0 coefficient")
        inv = make_scalar(e[j], d.prime, d.precision).invert()
        out[e] = c.mul(inv)
    return Series.make(d, out, loss=x.loss)


def frobenius_substitute(x: Series, q: int | None = None) -> Series:
    """Standard Frobenius lift: every exponent multiplied by q; sigma fixes
    the Q_p coefficients.  Window overflow becomes tracked loss."""
    d = x.descriptor
    q = q if q is not None else d.qeff
    out = {tuple(q * ei for ei in e): c for e, c in x.terms}
    return Series.make(d, out, loss=x.loss)


def kummer_substitute(x: Series, e: int, var: str | int = 0) -> Series:
    """Pullback along t -> t^e in the named variable."""
    if e < 1:
        raise ValueError("cover degree must be >= 1")
    d = x.descriptor
    j = d.var_index(var) if isinstance(var, str) else var
    out = {}
    for exp, c in x.terms:
        ne = exp[:j] + (exp[j] * e,) + exp[j + 1:]
        out[ne] = c
    return Series.make(d, out, loss=x.loss)
