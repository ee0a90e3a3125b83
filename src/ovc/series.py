"""Finite-precision arithmetic in Tate/dagger algebras and windowed Robba rings.

Elements are finite sums of monomials over an exponent window.  Exponent mass
that escapes the window during an operation is dropped; what the window costs
a cohomology computation is the complex's truncation loss, which the
cohomology builder records from the connection terms.  Coefficients below the
working absolute precision p^M are dropped likewise; coefficients that became
zero by cancellation inside the known range survive as flagged limited zeros.

``_lowest`` weights term values: the value of a term a_e t^e at weight w is
v_p(a_e) + w.|e|, and every Gauss value, slope value, rho value, leading
term and zero-at-precision test in ovc is the least such value over some
terms, or the exponents attaining it.  A ring's own weight
(``RingDescriptor.weight``) is its slope on robba kinds and 0 otherwise.
The one other place that weights a term is ``cohomology._assemble``: it
values each connection term it drops at ``c.val + slope * sum(I2)`` for the
complex's truncation loss.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AmbiguousResidueError,
    DescriptorMismatchError,
    NotARecognizedUnitError,
    ResidueObstructionError,
)
from .padics import PadicApprox, is_power, is_prime, make_scalar

Exp = tuple[int, ...]

TATE = "tate"
DAGGER = "dagger-fringe"
ROBBA = "robba"
ROBBA_PLUS = "robba-plus"

_KINDS = (TATE, DAGGER, ROBBA, ROBBA_PLUS)
_ROBBA_KINDS = (ROBBA, ROBBA_PLUS)


class _RingFields(NamedTuple):
    kind: str
    variables: tuple[str, ...]
    window: tuple[tuple[int, int], ...]
    prime: int
    precision: int
    q: int                  # Frobenius parameter; 0 means "= p"
    decay: int | None       # fringe decay D, rho = p^(1/D); dagger
    slope: Fraction | None  # robba kinds


class RingDescriptor(_RingFields):
    """Shape of a windowed series ring: an immutable tuple of the fields of
    ``_RingFields``, checked on every construction, ``_replace`` included.

    ``variables`` are the ring's own variables (Tate variables for tate /
    dagger kinds, the annulus variables for robba kinds).
    """
    __slots__ = ()

    def __new__(cls, kind: str, variables: tuple, window: tuple, prime: int,
                precision: int, q: int = 0, decay: int | None = None,
                slope: Fraction | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown ring kind {kind!r}")
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(window) != len(variables):
            raise ValueError("window/variable arity mismatch")
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        for lo, hi in window:
            if lo > hi:
                raise ValueError("empty window")
        if kind in (TATE, DAGGER, ROBBA_PLUS):
            for lo, hi in window:
                if lo != 0:
                    raise ValueError(f"{kind} window must start at 0")
        if kind in _ROBBA_KINDS:
            if slope is None or slope <= 0:
                raise ValueError("robba kinds need a positive slope")
        elif slope is not None:
            raise ValueError(f"a {kind} ring has no slope")
        if decay is not None:
            if kind != DAGGER:
                raise ValueError(f"a {kind} ring has no decay")
            if decay < 1:
                raise ValueError("decay must be >= 1")
        if q and not is_power(q, prime):
            raise ValueError("q must be a power of p")
        return tuple.__new__(cls, (kind, variables, window, prime, precision,
                                   q, decay, slope))

    def _replace(self, **changes) -> "RingDescriptor":
        return RingDescriptor(**{**self._asdict(), **changes})

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

    @property
    def weight(self) -> Fraction:
        """The weight of |e| in a term's value: the slope on robba kinds, 0
        otherwise (only robba kinds carry a slope)."""
        return Fraction(self.slope or 0)


def _lowest(pairs, weight=0):
    """(least v + weight.|e|, the exponents e attaining it in the order
    given) over (e, v) pairs; a v of None is +infinity and is skipped, and
    (None, []) means no v is finite.  The least value has the type of
    v + weight.|e|: an int at the default weight 0, a Fraction at a Fraction
    weight, Fraction(0) included."""
    best, at = None, []
    for e, v in pairs:
        if v is None:
            continue
        v = v + weight * sum(e) if weight else v + weight
        if best is None or v < best:
            best, at = v, [e]
        elif v == best:
            at.append(e)
    return best, at


def _vanishes(pairs, digits: int) -> bool:
    """Zero mod p^digits: no (e, v) pair has a finite v below digits."""
    least = _lowest(pairs)[0]
    return least is None or least >= digits


class NormResult(NamedTuple):
    value: Fraction | int | None   # None encodes +infinity
    uncertain: bool = False        # a limited zero could dominate


class Series(NamedTuple):
    """A windowed series: finite map exponent -> PadicApprox coefficient."""

    descriptor: RingDescriptor
    terms: tuple  # sorted tuple of (Exp, PadicApprox)

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(descriptor: RingDescriptor, entries) -> "Series":
        """Normalize a {exp: coeff} dict, exponents as tuples, into a
        Series; the dict is only read.

        Out-of-window terms are dropped; coefficients with valuation at or
        above the working precision are dropped; limited zeros within range
        are kept.
        """
        kept = {}
        M = descriptor.precision
        for exp, c in entries.items():
            if c.is_exact_zero():
                continue
            if c.val is None:
                if c.prec >= M:          # limited zero at/above the floor
                    continue
            elif c.val >= M:             # below the working floor
                continue
            elif c.val + c.prec > M:
                c = c.with_abs_prec(M)
            if descriptor.in_window(exp):
                kept[exp] = c
        # exponents are distinct, so the pairs sort by exponent alone
        return Series(descriptor, tuple(sorted(kept.items())))

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

    def gauss_value(self) -> int | None:
        return _lowest((e, c.val) for e, c in self.terms)[0]

    def map_coeffs(self, f) -> "Series":
        return Series.make(self.descriptor,
                           {e: f(c) for e, c in self.terms})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Series"):
        if self.descriptor is not other.descriptor and \
                self.descriptor != other.descriptor:
            raise DescriptorMismatchError(
                "operands live in different ring descriptors")

    def add(self, other: "Series") -> "Series":
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc[e].add(c) if e in acc else c
        return Series.make(self.descriptor, acc)

    def neg(self) -> "Series":
        return Series(self.descriptor,
                      tuple((e, c.neg()) for e, c in self.terms))

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
        return Series.make(self.descriptor, acc)

    def scale(self, c) -> "Series":
        """Multiply by a scalar (int, Fraction, or PadicApprox)."""
        if isinstance(c, (int, Fraction)):
            c = make_scalar(c, self.descriptor.prime, self.descriptor.precision)
        return Series.make(self.descriptor,
                           {e: x.mul(c) for e, x in self.terms})

    def shift(self, exp) -> "Series":
        """Multiply by the monomial t^exp."""
        exp = tuple(exp)
        return Series.make(
            self.descriptor,
            {tuple(a + b for a, b in zip(e, exp)): c for e, c in self.terms})

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def __repr__(self):
        body = " + ".join(
            f"({c.serialize()})*t^{list(e)}" for e, c in self.terms) or "0"
        return f"<{self.descriptor.kind} {body}>"


# -- norms -------------------------------------------------------------------

def gauss_norm(a: Series) -> NormResult:
    """min over stored terms of vp(a_I); the norm is p^(-value).

    Flags when a precision-limited zero coefficient could dominate the
    reported value.
    """
    value = a.gauss_value()
    floor = _lowest((e, c.prec) for e, c in a.terms
                    if c.val is None and c.limited)[0]
    return NormResult(value, floor is not None
                      and (value is None or floor <= value))


def _rho_weight(D) -> Fraction:
    """The weight of |e| under |.|_rho with rho = p^(1/D); D=None is rho=1."""
    return Fraction(0) if D is None else -Fraction(1, D)


def rho_value(a: Series, D: int | None) -> Fraction | None:
    """Valuation under |.|_rho with rho = p^(1/D); D=None means Gauss (rho=1)."""
    return _lowest(((e, c.val) for e, c in a.terms), _rho_weight(D))[0]


def w_slope(x: Series, s) -> Fraction | None:
    """w_{A,s}: min over the window of v(x_i) + s.|i|."""
    d = x.descriptor
    if not d.is_robba():
        raise DescriptorMismatchError("w_slope is defined on robba kinds")
    s = Fraction(s)
    if not 0 < s <= d.slope:
        raise ValueError("slope out of range (0, r]")
    return _lowest(((e, c.val) for e, c in x.terms), s)[0]


# -- inversion ---------------------------------------------------------------

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
    best, at = _lowest(((e, c.val) for e, c in u.terms), d.weight)
    if best is None:
        raise NotARecognizedUnitError("no term with finite valuation")
    k = at[0]
    c = u.coeff(k)
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
        # the least guaranteed term value, a limited zero counted at its
        # floor: positivity certifies topological nilpotence on the window
        # at working precision
        cert = _lowest(((e, x.prec if x.val is None else x.val)
                        for e, x in a.terms), d.weight)[0]
        if cert <= 0:
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
    return acc.map_coeffs(lambda x: x.mul(c_inv)).shift(neg_k)


# -- calculus ----------------------------------------------------------------

def d_dt(x: Series, var: str) -> Series:
    """Termwise derivative: i * x_i * t^(i-1) in the named variable."""
    d = x.descriptor
    j = d.var_index(var)
    out = {}
    for e, c in x.terms:
        if e[j] == 0:
            continue
        ne = e[:j] + (e[j] - 1,) + e[j + 1:]
        out[ne] = c.mul(make_scalar(e[j], d.prime, d.precision))
    return Series.make(d, out)


def t_d_dt(x: Series) -> Series:
    """The dlog derivative t*d/dt in the first variable: exponent-preserving,
    exact on the window."""
    d = x.descriptor
    out = {}
    for e, c in x.terms:
        if e[0] == 0:
            continue
        out[e] = c.mul(make_scalar(e[0], d.prime, d.precision))
    return Series.make(d, out)


def dlog_antiderivative(x: Series) -> Series:
    """y with t*dy/dt = x, t the first variable; obstructed by the constant
    (t^0) term."""
    d = x.descriptor
    out = {}
    for e, c in x.terms:
        if e[0] == 0:
            if c.is_zero():
                if c.limited:
                    raise AmbiguousResidueError(
                        "t^0 coefficient is zero only at working precision")
                continue
            raise ResidueObstructionError("nonzero t^0 coefficient")
        inv = make_scalar(e[0], d.prime, d.precision).invert()
        out[e] = c.mul(inv)
    return Series.make(d, out)


def frobenius_substitute(x: Series) -> Series:
    """Standard Frobenius lift: every exponent multiplied by the ring's q;
    sigma fixes the Q_p coefficients.  Images above the window are
    dropped."""
    d = x.descriptor
    q = d.qeff
    out = {tuple(q * ei for ei in e): c for e, c in x.terms}
    return Series.make(d, out)


def kummer_substitute(x: Series, e: int) -> Series:
    """Pullback along t -> t^e in the first variable."""
    if e < 1:
        raise ValueError("cover degree must be >= 1")
    out = {(exp[0] * e,) + exp[1:]: c for exp, c in x.terms}
    return Series.make(x.descriptor, out)
