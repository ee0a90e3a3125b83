"""Exact arithmetic in Q_p at working precision p^M.

A scalar is stored as ``unit * p^val`` with the unit known modulo ``p^prec``.
The zero element has ``val = None``; a zero produced by cancellation below the
known precision is additionally flagged ``limited`` and remembers the absolute
precision (the floor) at which it was certified zero.  Downstream kernel
computations must be able to tell "provably zero" from "zero at this
precision", so the flag is never silently dropped.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NonUnitError, PrimeError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is +infinity")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_power(q: int, p: int) -> bool:
    """True when q = p^f with f >= 1."""
    return q >= p and p ** int_valuation(q, p) == q


class _PadicFields(NamedTuple):
    prime: int
    unit: int          # in [0, p^prec), coprime to p; 0 only for zeros
    val: int | None    # None encodes +infinity
    prec: int          # digits of the unit known; for limited zeros, the floor
    limited: bool


class PadicApprox(_PadicFields):
    """An immutable tuple of the fields of ``_PadicFields``; every
    construction, ``_replace`` included, checks them."""
    __slots__ = ()

    def __new__(cls, prime: int, unit: int, val: int | None, prec: int,
                limited: bool = False):
        if val is None:
            if unit != 0:
                raise ValueError("zero element must have unit 0")
        else:
            if prec < 1:
                raise ValueError("precision must be >= 1")
            if unit % prime == 0:
                raise ValueError("unit residue divisible by p")
            if not 0 < unit < prime ** prec:
                raise ValueError("unit residue out of range")
        return tuple.__new__(cls, (prime, unit, val, prec, limited))

    def _replace(self, **changes) -> "PadicApprox":
        return PadicApprox(**{**self._asdict(), **changes})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "PadicApprox":
        return PadicApprox(p, 0, None, 1)

    @staticmethod
    def limited_zero(p: int, floor: int) -> "PadicApprox":
        """Zero at absolute precision ``floor``: the value is O(p^floor)."""
        return PadicApprox(p, 0, None, floor, limited=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.val is None

    def is_exact_zero(self) -> bool:
        return self.val is None and not self.limited

    def abs_prec(self) -> int | None:
        """Absolute precision: the value is known modulo p^abs_prec.
        None means known exactly (the exact zero)."""
        if self.val is None:
            return self.prec if self.limited else None
        return self.val + self.prec

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "PadicApprox"):
        if self.prime != other.prime:
            raise PrimeError(f"mixed primes {self.prime} and {other.prime}")

    def add(self, other: "PadicApprox") -> "PadicApprox":
        self._check(other)
        p = self.prime
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        if self.is_zero() or other.is_zero():
            # at least one precision-limited zero
            floors = [x.abs_prec() for x in (self, other) if x.is_zero()]
            vals = [x.val for x in (self, other) if not x.is_zero()]
            floor = min(floors)
            if vals and vals[0] < floor:
                x = self if not self.is_zero() else other
                return x.with_abs_prec(floor)
            return PadicApprox.limited_zero(p, floor)
        a = min(self.val, other.val)
        abs_prec = min(self.val + self.prec, other.val + other.prec)
        modulus = p ** (abs_prec - a)
        s = (self.unit * p ** (self.val - a) + other.unit * p ** (other.val - a)) % modulus
        if s == 0:
            return PadicApprox.limited_zero(p, abs_prec)
        w = int_valuation(s, p)
        new_val = a + w
        new_prec = abs_prec - new_val
        return PadicApprox(p, (s // p ** w) % p ** new_prec, new_val, new_prec)

    def neg(self) -> "PadicApprox":
        if self.is_zero():
            return self
        m = self.prime ** self.prec
        return PadicApprox(self.prime, (-self.unit) % m, self.val, self.prec)

    def sub(self, other: "PadicApprox") -> "PadicApprox":
        return self.add(other.neg())

    def mul(self, other: "PadicApprox") -> "PadicApprox":
        self._check(other)
        p = self.prime
        if self.is_exact_zero() or other.is_exact_zero():
            return PadicApprox.zero(p)
        if self.is_zero() or other.is_zero():
            # O(p^f) * (u p^v) = O(p^(f+v)); O(p^f)*O(p^g) = O(p^(f+g))
            floor = 0
            for x in (self, other):
                floor += x.prec if x.is_zero() else x.val
            return PadicApprox.limited_zero(p, floor)
        prec = min(self.prec, other.prec)
        unit = self.unit * other.unit % p ** prec
        return PadicApprox(p, unit, self.val + other.val, prec)

    def invert(self) -> "PadicApprox":
        if self.is_zero():
            raise NonUnitError("cannot invert a (precision-limited) zero")
        m = self.prime ** self.prec
        return PadicApprox(self.prime, pow(self.unit, -1, m), -self.val, self.prec)

    def with_abs_prec(self, abs_prec: int) -> "PadicApprox":
        """Restrict to absolute precision p^abs_prec (never gains precision)."""
        if self.is_zero():
            if self.is_exact_zero():
                return PadicApprox.limited_zero(self.prime, abs_prec)
            return PadicApprox.limited_zero(self.prime, min(self.prec, abs_prec))
        if self.val >= abs_prec:
            return PadicApprox.limited_zero(self.prime, abs_prec)
        prec = min(self.prec, abs_prec - self.val)
        return PadicApprox(self.prime, self.unit % self.prime ** prec, self.val, prec)

    # -- integer residues --------------------------------------------------

    def residue(self, N: int, shift: int = 0) -> int:
        """The value times p^shift as an integer mod p^N (0 for a zero);
        raises ValueError when ``val + shift`` is negative."""
        if self.val is None:
            return 0
        if self.val + shift < 0:
            raise ValueError(f"p^{shift} does not make {self.serialize()} "
                             "integral")
        return self.unit * self.prime ** (self.val + shift) % self.prime ** N

    # -- display -----------------------------------------------------------

    def serialize(self) -> str:
        if self.is_exact_zero():
            return "0"
        if self.is_zero():
            return f"O(p^{self.prec})"
        return f"{self.unit}*p^{self.val}@{self.prec}"

    def __repr__(self):
        return f"PadicApprox({self.serialize()}, p={self.prime})"


def make_scalar(n: int | Fraction, p: int, M: int) -> PadicApprox:
    """Embed a rational with p-unit denominator handling into Q_p at p^M."""
    if not is_prime(p):
        raise PrimeError(f"{p} is not prime")
    if M < 1:
        raise ValueError("precision M must be >= 1")
    if isinstance(n, Fraction):
        num, den = n.numerator, n.denominator
    else:
        num, den = int(n), 1
    if num == 0:
        return PadicApprox.zero(p)
    vn = int_valuation(num, p)
    vd = int_valuation(den, p)
    m = p ** M
    unit = (num // p ** vn) * pow(den // p ** vd, -1, m) % m
    return PadicApprox(p, unit, vn - vd, M)


def integral_shift(values, least: int = 0) -> int:
    """The least s >= ``least`` making every nonzero value times p^s
    integral."""
    return max([least] + [-c.val for c in values if c.val is not None])


def from_residue(x: int, p: int, N: int, shift: int = 0,
                 M: int | None = None) -> PadicApprox:
    """Inverse of ``PadicApprox.residue``: the scalar x / p^shift for an
    integer x mod p^N.  The unit keeps the N - v_p(x) digits the residue
    carries, capped at absolute precision M when M is above the value."""
    x %= p ** N
    if not x:
        return PadicApprox.zero(p)
    v = int_valuation(x, p)
    val = v - shift
    prec = N - v
    if M is not None and M > val:
        prec = min(prec, M - val)
    return PadicApprox(p, x // p ** v % p ** prec, val, prec)


def parse_scalar(text: str, p: int, default_M: int) -> PadicApprox:
    """Inverse of PadicApprox.serialize for problem files ("u*p^v@M")."""
    text = text.strip()
    if text == "0":
        return PadicApprox.zero(p)
    if text.startswith("O(p^") and text.endswith(")"):
        return PadicApprox.limited_zero(p, int(text[4:-1]))
    if "*p^" in text:
        u_part, rest = text.split("*p^", 1)
        if "@" in rest:
            v_part, m_part = rest.split("@", 1)
            M = int(m_part)
        else:
            v_part, M = rest, default_M
        u, v = int(u_part), int(v_part)
        return make_scalar(u, p, M).mul(
            PadicApprox(p, 1, v, M) if v else make_scalar(1, p, M))
    if "/" in text:
        num, den = text.split("/", 1)
        return make_scalar(Fraction(int(num), int(den)), p, default_M)
    return make_scalar(int(text), p, default_M)
