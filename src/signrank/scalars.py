"""Exact scalars: rationals and real quadratic extensions Q(sqrt d), with
the text syntax every file format shares.

Rationals are ``fractions.Fraction`` (always reduced, arbitrary precision).
A :class:`QuadElem` represents ``r + s*sqrt(d)`` with rational r, s and a
square-free positive integer d of at most ``MAX_RADICAL`` (10^15).  The field
belongs to the element: a rational element (s = 0) always has d = 1, so d
only means something, and is only checked, when s != 0; two elements combine
unless both have radical parts over different d.

Sign determination never touches floating point: the sign of ``r + s*sqrt(d)``
is decided by comparing ``r*r`` against ``d*s*s`` with case analysis on the
signs of r and s.

The configurations of ``geometry`` and the certificates of ``exactnum`` are
built from these, so a command that reads or writes a configuration
compiles this module and ``core`` and not the certificate layer.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Integral, Real

from .core import _check_integer, _is_bool, _Record
from .errors import DomainError


# The largest radical d: its square-free test divides by p up to d^(1/3)
# <= 10^5, a few milliseconds.
MAX_RADICAL = 10**15


@functools.lru_cache(maxsize=256)
def _is_square_free(d: int) -> bool:
    """Memoized on the int: every radical QuadElem checks its d."""
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


def check_radical(d) -> int:
    """d as an int if it is a square-free integer in 1..MAX_RADICAL, else
    DomainError; ``core._check_integer`` reads it."""
    d = _check_integer(d, "field index", 1)
    if d > MAX_RADICAL or not _is_square_free(d):
        raise DomainError(f"field index must be a square-free integer in 1..10^15, got {d!r}")
    return d


def _as_fraction(value) -> Fraction:
    """``value`` as a Fraction: an integer, a Fraction, a finite real number
    at its exact binary value (numpy floats included) or "p/q" text
    (``parse_rational``).  A bool, Python or numpy, names no number."""
    if isinstance(value, Fraction):
        # numpy integers survive inside Fraction and poison comparisons
        if type(value.numerator) is int and type(value.denominator) is int:
            return value
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, str):
        return parse_rational(value)
    if _is_bool(value) or not isinstance(value, Real):
        raise DomainError(f"cannot convert {value!r} to an exact rational")
    if isinstance(value, Integral):
        return Fraction(int(value))
    if not math.isfinite(value):
        raise DomainError(f"non-finite value {value!r} has no exact representation")
    return Fraction(*value.as_integer_ratio())


class QuadElem(_Record):
    """Exact element r + s*sqrt(d) of the real quadratic field Q(sqrt d)."""

    __slots__ = ("r", "s", "d")

    def __init__(self, r, s=Fraction(0), d: int = 1):
        r, s = _as_fraction(r), _as_fraction(s)
        # a rational belongs to no radical, so only a radical part checks d
        d = 1 if s == 0 else check_radical(d)
        if d == 1 and s != 0:
            # sqrt(1) = 1: fold the radical part so representation stays unique
            r, s = r + s, Fraction(0)
        self._set(r, s, d)

    @classmethod
    def _trusted(cls, r: Fraction, s: Fraction, d: int) -> "QuadElem":
        """r + s*sqrt(d) from the parts of checked elements, unchecked: r and
        s are Fractions and d a checked radical, which falls to 1 with s.
        Arithmetic results go through here; outside values go through
        ``__init__``, which converts and checks them."""
        return cls._rebuild(r, s, d if s else 1)

    def __eq__(self, other):
        if isinstance(other, Real):
            try:
                other = QuadElem.lift(other)
            except DomainError:
                return NotImplemented
        return super().__eq__(other)

    def __hash__(self):
        if self.s == 0:
            return hash(self.r)
        return hash((self.r, self.s, self.d))

    @classmethod
    def lift(cls, value) -> "QuadElem":
        """A QuadElem unchanged, or any rational-like value embedded."""
        if isinstance(value, QuadElem):
            return value
        return cls(value)

    def _pair(self, other) -> tuple["QuadElem", int]:
        """The other operand as a QuadElem and the field d of the result;
        d = 1 marks a rational, so only two radicals can clash."""
        other = QuadElem.lift(other)
        if other.d == 1:
            return other, self.d
        if self.d != 1 and self.d != other.d:
            raise DomainError(f"cannot combine sqrt({self.d}) and sqrt({other.d}) elements")
        return other, other.d

    def __add__(self, other):
        b, d = self._pair(other)
        return QuadElem._trusted(self.r + b.r, self.s + b.s, d)

    __radd__ = __add__

    def __sub__(self, other):
        b, d = self._pair(other)
        return QuadElem._trusted(self.r - b.r, self.s - b.s, d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadElem._trusted(-self.r, -self.s, self.d)

    def __mul__(self, other):
        b, d = self._pair(other)
        return QuadElem._trusted(self.r * b.r + self.s * b.s * d, self.r * b.s + self.s * b.r, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = QuadElem.lift(other)
        if b.is_zero():
            raise DomainError("division by zero quadratic element")
        norm = b.r * b.r - b.d * b.s * b.s
        # 1/(r + s*sqrt(d)) = (r - s*sqrt(d)) / (r^2 - d s^2)
        inv = QuadElem._trusted(b.r / norm, -b.s / norm, b.d)
        return self * inv

    def __rtruediv__(self, other):
        return QuadElem.lift(other) / self

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0

    def sign(self) -> int:
        return root_sign(self.r, self.s, self.d)

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
    return QuadElem.lift(x).sign()


def root_sign(r, s, d: int) -> int:
    """Exact sign of r + s*sqrt(d) for rationals or integers r, s and d >= 1."""
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


# Textual scalar syntax shared by every file format: "p/q" for rationals
# (plain integers mean p/1) and {"r": "p/q", "s": "p/q"} for quadratic
# elements.


def parse_rational(text) -> Fraction:
    """A rational from its text "p/q", or an integer read by ``_as_fraction``;
    a bool names no number."""
    if isinstance(text, Integral) and not _is_bool(text):
        return _as_fraction(text)
    if not isinstance(text, str):
        raise DomainError(f"expected rational text, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed rational {text!r}: {exc}") from None


def parse_integer(value, what: str, least: int) -> int:
    """An integer field of a JSON document: an integral float (JSON's 2.0)
    reads as its int, and ``core._check_integer`` checks every value."""
    if isinstance(value, float) and value.is_integer():
        value = round(value)  # exact: the float is integral
    return _check_integer(value, what, least)


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


# the entry types that ``_ratios`` reads by their own as_integer_ratio()
_EXACT_NUMBERS = frozenset({int, float, Fraction})


def _ratios(line) -> list:
    """Each entry of a line as its integer ratio (p, q), q > 0, in Python
    ints.  A numpy line is read as its ``tolist()``.  A line of ints,
    floats and Fractions alone reads each entry's ``as_integer_ratio()``;
    any other line (a bool, a numpy number, a Decimal, text), a non-finite
    float and a Fraction built around numpy integers go through
    ``_as_fraction``, the one rule for exact rationals."""
    if hasattr(line, "tolist"):
        line = line.tolist()
    if _EXACT_NUMBERS.issuperset(map(type, line)):
        try:
            ratios = [x.as_integer_ratio() for x in line]
            if all(type(p) is int and type(q) is int for p, q in ratios):
                return ratios
        except (OverflowError, ValueError):
            pass
    return [_as_fraction(x).as_integer_ratio() for x in line]


def _integral(lines) -> list:
    """Each line of rationals as (integers, lcm): the line scaled to
    integers by the lcm of its denominators (``_ratios``)."""
    out = []
    for line in lines:
        ratios = _ratios(line)
        lcm = math.lcm(*(q for _, q in ratios))
        out.append(([p * (lcm // q) for p, q in ratios], lcm))
    return out
