"""Exact scalar arithmetic: rationals and real quadratic extensions Q(sqrt d).

Rationals are ``fractions.Fraction`` (always reduced, arbitrary precision).
A :class:`QuadElem` represents ``r + s*sqrt(d)`` with rational r, s and a
square-free positive integer d of at most ``MAX_RADICAL`` (10^15).  The field
belongs to the element: a rational element (s = 0) always has d = 1, so d
only means something, and is only checked, when s != 0; two elements combine
unless both have radical parts over different d.

Sign determination never touches floating point: the sign of ``r + s*sqrt(d)``
is decided by comparing ``r*r`` against ``d*s*s`` with case analysis on the
signs of r and s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import DomainError

Rational = Fraction


# The largest radical d: its square-free test divides by p up to d^(1/3)
# <= 10^5, a few milliseconds.
MAX_RADICAL = 10**15


def _is_square_free(d: int) -> bool:
    # take out each prime p with p^3 <= what is left of d: the cofactor has
    # at most two prime factors, so it is square-free unless it is a square
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 1
    return d == 1 or math.isqrt(d) ** 2 != d


@functools.lru_cache(maxsize=256)
def check_radical(d) -> int:
    """d as an int if it is a square-free integer in 1..MAX_RADICAL, else
    DomainError.  Memoized: every radical QuadElem checks its d."""
    if not isinstance(d, Integral) or not 1 <= d <= MAX_RADICAL or not _is_square_free(int(d)):
        raise DomainError(f"field index must be a square-free integer in 1..10^15, got {d!r}")
    return int(d)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        # numpy integers survive inside Fraction and poison comparisons
        if type(value.numerator) is int and type(value.denominator) is int:
            return value
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, Integral):
        return Fraction(int(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"non-finite value {value!r} has no exact representation")
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"cannot convert {value!r} to an exact rational")


@dataclass(frozen=True, eq=False)
class QuadElem:
    """Exact element r + s*sqrt(d) of the real quadratic field Q(sqrt d)."""

    r: Fraction
    s: Fraction = Fraction(0)
    d: int = 1

    def __eq__(self, other):
        if isinstance(other, (Integral, Fraction, float)):
            try:
                other = QuadElem.lift(other)
            except DomainError:
                return NotImplemented
        if isinstance(other, QuadElem):
            return self.r == other.r and self.s == other.s and self.d == other.d
        return NotImplemented

    def __hash__(self):
        if self.s == 0:
            return hash(self.r)
        return hash((self.r, self.s, self.d))

    def __post_init__(self):
        object.__setattr__(self, "r", _as_fraction(self.r))
        object.__setattr__(self, "s", _as_fraction(self.s))
        # a rational belongs to no radical, so only a radical part checks d
        d = 1 if self.s == 0 else check_radical(self.d)
        if d == 1 and self.s != 0:
            # sqrt(1) = 1: fold the radical part so representation stays unique
            object.__setattr__(self, "r", self.r + self.s)
            object.__setattr__(self, "s", Fraction(0))
        object.__setattr__(self, "d", d)

    @classmethod
    def lift(cls, value) -> "QuadElem":
        """A QuadElem unchanged, or any rational-like value embedded."""
        if isinstance(value, QuadElem):
            return value
        return cls(value)

    def _pair(self, other) -> tuple["QuadElem", int]:
        """The other operand as a QuadElem and the field d of the result;
        d = 1 marks a rational, so only two radicals can clash."""
        if not isinstance(other, QuadElem):
            other = QuadElem(other)
        if other.d == 1:
            return other, self.d
        if self.d != 1 and self.d != other.d:
            raise DomainError(f"cannot combine sqrt({self.d}) and sqrt({other.d}) elements")
        return other, other.d

    def __add__(self, other):
        b, d = self._pair(other)
        return QuadElem(self.r + b.r, self.s + b.s, d)

    __radd__ = __add__

    def __sub__(self, other):
        b, d = self._pair(other)
        return QuadElem(self.r - b.r, self.s - b.s, d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadElem(-self.r, -self.s, self.d)

    def __mul__(self, other):
        b, d = self._pair(other)
        return QuadElem(self.r * b.r + self.s * b.s * d, self.r * b.s + self.s * b.r, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = QuadElem.lift(other)
        if b.is_zero():
            raise DomainError("division by zero quadratic element")
        norm = b.r * b.r - b.d * b.s * b.s
        # 1/(r + s*sqrt(d)) = (r - s*sqrt(d)) / (r^2 - d s^2)
        inv = QuadElem(b.r / norm, -b.s / norm, b.d)
        return self * inv

    def __rtruediv__(self, other):
        return QuadElem.lift(other) / self

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0

    def sign(self) -> int:
        return quad_sign(self)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return float(self.r) + float(self.s) * math.sqrt(self.d)

    def __repr__(self):
        if self.s == 0:
            return f"QuadElem({self.r})"
        return f"QuadElem({self.r} + {self.s}*sqrt({self.d}))"


def _sgn(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def quad_sign(x) -> int:
    """Exact sign of a rational or quadratic element: one of -1, 0, +1."""
    if not isinstance(x, QuadElem):
        return _sgn(_as_fraction(x))
    r, s, d = x.r, x.s, x.d
    if s == 0:
        return _sgn(r)
    if r == 0:
        return _sgn(s)
    if r > 0 and s > 0:
        return 1
    if r < 0 and s < 0:
        return -1
    # r and s have opposite signs: |r| vs |s|*sqrt(d) via squares
    lhs = r * r
    rhs = d * s * s
    if lhs == rhs:
        return 0
    if lhs > rhs:
        return 1 if r > 0 else -1
    return 1 if s > 0 else -1


def rational_round(x: float, max_denominator: int) -> Fraction:
    """Best rational approximation of ``x`` with denominator <= max_denominator.

    The integer continued fraction of x = n/d (a float read exactly by
    ``as_integer_ratio``) runs until the next convergent's denominator would
    pass the cap; the answer is then the last convergent p1/q1 or the
    semiconvergent below the cap, whichever is closer to x.  A tie goes to
    p1/q1, the smaller denominator (at cap 1 both are 1, and p1/q1 is the
    floor of x).  This is ``Fraction.limit_denominator``'s algorithm and tie
    rule, with the distances compared in int.
    """
    if max_denominator < 1:
        raise DomainError(f"max_denominator must be >= 1, got {max_denominator}")
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"cannot round non-finite value {x!r}")
        n, d = x.as_integer_ratio()
    else:
        n, d = _as_fraction(x).as_integer_ratio()
    if d <= max_denominator:
        return Fraction(n, d)
    denominator = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    # the two candidates lie on either side of x, 1 / (q1 (q0 + k q1)) apart,
    # and p1/q1 is d / (q1 denominator) from x
    k = (max_denominator - q0) // q1
    if 2 * d * (q0 + k * q1) <= denominator:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


# Textual scalar syntax shared by every file format: "p/q" for rationals
# (plain integers mean p/1) and {"r": "p/q", "s": "p/q"} for quadratic
# elements.


def parse_rational(text) -> Fraction:
    """A rational from its text "p/q" or an integer; a bool names no number."""
    if isinstance(text, bool):
        raise DomainError(f"expected rational text, got {text!r}")
    if isinstance(text, Integral):
        return Fraction(int(text))
    if not isinstance(text, str):
        raise DomainError(f"expected rational text, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed rational {text!r}: {exc}") from None


def parse_integer(value, what: str) -> int:
    """An integer field of a document: ``int(value)`` unless that would
    truncate a float such as 2.5 or read a bool, which name no integer."""
    try:
        iv = int(value)
    except (TypeError, ValueError, OverflowError):
        iv = None
    if iv is None or isinstance(value, bool) or (isinstance(value, float) and value != iv):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return iv


def format_rational(p: int, q: int):
    """The JSON form of p/q, an ``as_integer_ratio`` pair of Python ints:
    the int p when q is 1, else the text "p/q"."""
    return p if q == 1 else f"{p}/{q}"


def parse_scalar(obj, d: int = 1) -> QuadElem:
    """Parse the JSON form of a scalar into a QuadElem; d is the radical of
    its {"r", "s"} form."""
    if isinstance(obj, dict):
        unknown = set(obj) - {"r", "s"}
        if unknown:
            raise DomainError(f"unknown scalar fields {sorted(unknown)}")
        r = parse_rational(obj.get("r", 0))
        s = parse_rational(obj.get("s", 0))
        return QuadElem(r, s, d)
    return QuadElem(parse_rational(obj), Fraction(0), d)


def format_scalar(value: QuadElem):
    value = QuadElem.lift(value)
    if value.s == 0:
        return format_rational(*value.r.as_integer_ratio())
    return {"r": format_rational(*value.r.as_integer_ratio()),
            "s": format_rational(*value.s.as_integer_ratio())}
