"""The sign pattern as a value: the record base, the pattern, its
condensation, the signature between two patterns and the .pat files.

Every subcommand loads this module, directly or through ``geometry``, so
it sits below the deciders of ``pattern`` and the exact scalars of
``scalars``: a command that only reads, writes or condenses patterns, or
encodes a configuration, compiles it and not the deciders.  It imports no
``fractions`` and no numpy.

``_Record`` is the one immutable base of the package's checked classes
(``SignPattern`` here, ``QuadElem``, ``Realization``,
``RationalCertificate``, ``OrientedHyperplane`` and ``Configuration``): it
freezes, pickles, compares and hashes them.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError, PatternFormatError

_CHAR_TO_INT = {"+": 1, "-": -1, "0": 0}
_INT_TO_CHAR = {1: "+", -1: "-", 0: "0"}


def _is_bool(value) -> bool:
    """A Python or numpy bool; True == 1 and False == 0, but a bool names no
    sign.  numpy's are told by their dtype, so numpy is not imported."""
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def _check_integer(value, what: str, least: int) -> int:
    """``value`` as an int; DomainError if it is below ``least`` or names no
    integer: a bool, or one without ``__index__`` (2.5, 3.0, "3")."""
    if _is_bool(value) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    return value


def _check_indices(indices, size: int, what: str) -> list:
    """``indices`` as ints in range(size), else DomainError names one that
    is not (Python would wrap -1 to the last line)."""
    indices = [_check_integer(k, f"{what} index", 0) for k in indices]
    if max(indices, default=-1) >= size:
        raise DomainError(f"{what} index {max(indices)} is out of range for {size} {what}s")
    return indices


class _Record:
    """An immutable value held in ``__slots__``.  A subclass's ``__init__``
    checks its input and ends with ``self._set(...)``, one value per slot in
    slot order; ``_rebuild`` wraps values that are already checked, and
    pickle and copy go through it.  Two records are equal when they have the
    same type and equal values; the hash is that of the values and the repr
    reads ``Name(slot=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each slot's own member-descriptor setter, which the raising
        # __setattr__ does not reach
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _rebuild(cls, *values):
        self = object.__new__(cls)
        # the loop of _set, inlined: every derived pattern and every
        # arithmetic result is built here
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._rebuild, self._values()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SignPattern(_Record):
    """Immutable rectangular grid over {+, -, 0}, stored as -1/0/+1 ints.

    Entries are checked once, where they enter: ``SignPattern(rows)`` checks
    every value of outside input, and the patterns the package derives
    (parsed text, transposes, submatrices, condensations, ...) go through
    the unchecked ``_trusted``."""

    __slots__ = ("entries", "m", "n")

    def __init__(self, rows: Iterable[Iterable]):
        grid = []
        for row in rows:
            converted = []
            for value in row:
                if isinstance(value, str):
                    if value not in _CHAR_TO_INT:
                        raise DomainError(f"invalid sign character {value!r}")
                    converted.append(_CHAR_TO_INT[value])
                else:
                    try:
                        iv = int(value)
                    except (TypeError, ValueError, OverflowError):  # not a number, NaN, infinity
                        iv = None
                    if iv != value or iv not in (-1, 0, 1) or (type(value) is not int
                                                               and _is_bool(value)):
                        raise DomainError(f"invalid sign value {value!r}")
                    converted.append(iv)
            grid.append(tuple(converted))
        widths = {len(r) for r in grid}
        if len(widths) > 1:
            raise DomainError("all rows of a sign pattern must have equal length")
        self._set(tuple(grid), len(grid), widths.pop() if widths else 0)

    @classmethod
    def _trusted(cls, entries: tuple, m: int, n: int) -> "SignPattern":
        """Wrap rows this package built from checked entries, unchecked:
        ``entries`` is a tuple of m tuples of n plain ints in {-1, 0, 1}.
        Outside input goes through ``__init__``, which checks every entry;
        m and n are passed, so a pattern without rows keeps its width."""
        return cls._rebuild(entries, m, n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "SignPattern":
        m, n = _check_integer(m, "rows", 0), _check_integer(n, "columns", 0)
        return cls._trusted(((0,) * n,) * m, m, n)

    @classmethod
    def from_text(cls, text: str) -> "SignPattern":
        """Parse the .pat format: optional #-comment lines, then rows of
        +/-/0 characters with optional whitespace between them."""
        rows = []
        width = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = "".join(raw.split())
            if not line or line[0] == "#":
                continue
            try:
                row = tuple(map(_CHAR_TO_INT.__getitem__, line))
            except KeyError:
                # the first character that is neither whitespace nor a sign
                colno, ch = next(
                    (c, ch) for c, ch in enumerate(raw, start=1)
                    if not ch.isspace() and ch not in _CHAR_TO_INT
                )
                raise PatternFormatError(
                    f"invalid character {ch!r} in pattern", line=lineno, column=colno
                ) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise PatternFormatError(
                    f"row has {len(row)} entries, expected {width}", line=lineno
                )
            rows.append(row)
        return cls._trusted(tuple(rows), len(rows), width or 0)

    def lines(self) -> list:
        """One +/-/0 string per row: an m x 0 pattern has m empty ones,
        which splitting ``to_text`` would not give back."""
        return ["".join([_INT_TO_CHAR[v] for v in row]) for row in self.entries]

    def to_text(self) -> str:
        return "\n".join(self.lines())

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "SignPattern":
        # zip sees no rows of a 0 x n pattern: its transpose is n empty rows
        entries = tuple(zip(*self.entries)) if self.m else ((),) * self.n
        return SignPattern._trusted(entries, self.n, self.m)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SignPattern":
        """The pattern on the given rows and columns, in the given order:
        each index an integer in range, else DomainError names it."""
        return self._take(_check_indices(rows, self.m, "row"),
                          _check_indices(cols, self.n, "column"))

    def _take(self, rows: list, cols: list) -> "SignPattern":  # indices known in range
        E = self.entries
        entries = tuple(tuple([E[i][j] for j in cols]) for i in rows)
        return SignPattern._trusted(entries, len(entries), len(cols))

    def negate(self) -> "SignPattern":
        entries = tuple(tuple([-v for v in row]) for row in self.entries)
        return SignPattern._trusted(entries, self.m, self.n)

    def count_zeros(self) -> int:
        return sum(row.count(0) for row in self.entries)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def zero_set(self) -> frozenset:
        return frozenset(
            (i, j) for i, row in enumerate(self.entries) for j, v in enumerate(row) if v == 0
        )

    def __repr__(self):
        if self.m == 0 or self.n == 0:
            return f"SignPattern(<{self.m}x{self.n} empty>)"
        return "SignPattern(\n" + "\n".join("  " + "".join(_INT_TO_CHAR[v] for v in row) for row in self.entries) + "\n)"


class DeletionEvent(NamedTuple):
    """One line removed during condensation.  Indices refer to the original
    pattern; ``survivor`` is the earlier line it duplicated or opposed
    (None for zero lines)."""

    axis: str  # "row" or "col"
    kind: str  # "zero", "duplicate", "opposite"
    index: int
    survivor: Optional[int] = None


class CondensationReport(NamedTuple):
    condensed: SignPattern
    kept_rows: tuple
    kept_cols: tuple
    log: tuple


def _lead_key(v: tuple) -> tuple:
    """(lead, key) of a line: lead is its first nonzero (0 for a zero line)
    and key the line itself if lead >= 0, else its negation, so two lines
    are equal up to sign exactly when their keys agree."""
    lead = next(filter(None, v), 0)
    return lead, (v if lead >= 0 else tuple([-x for x in v]))


def _sweep(lines, axis: str, log: list) -> list:
    """One pass over the lines of one axis: log and drop zero lines and
    every line equal or opposite to an earlier kept one; return the kept
    indices.

    Two lines match up to sign exactly when their keys (``_lead_key``)
    agree.  Kept lines never match each other, so the first kept line
    with a key is the only one a later line can match, and it is stored as
    (index, lead): equal leads make a duplicate, unequal ones an opposite.
    """
    first = {}
    for i, v in enumerate(lines):
        lead, key = _lead_key(v)
        if not lead:
            log.append(DeletionEvent(axis, "zero", i))
            continue
        k, k_lead = first.setdefault(key, (i, lead))
        if k != i:
            log.append(DeletionEvent(axis, "duplicate" if k_lead == lead else "opposite", i, k))
    return [k for k, _ in first.values()]


def condense(A: SignPattern) -> CondensationReport:
    """Delete zero lines and duplicate/opposite lines.

    Sweeps rows top to bottom, then columns left to right, always removing
    the lower of two matching rows and the righter of two matching columns;
    each sweep is one O(mn) dict-keyed pass (``_sweep``).  Both sweeps read
    the whole pattern and one sweep per axis is the fixed point: a deleted
    row is zero or equal or opposite to a kept row, so it decides no
    comparison between columns, and likewise for a deleted column.  The
    zero pattern condenses to the 0x0 empty pattern.
    """
    log = []
    rows = _sweep(A.entries, "row", log)
    cols = _sweep(A.transpose().entries, "col", log)
    return CondensationReport(A._take(rows, cols), tuple(rows), tuple(cols), tuple(log))


def signature_between(P: SignPattern, Q: SignPattern):
    """Signs (d1, d2) with Q = d1 * P * d2 entry-wise, or None.

    The signs are propagated (``_propagate_signs``) over P's nonzero cells,
    rows as vertices 0..m-1 and columns as m..m+n-1, each component from
    its first line at +: cell (i, j) signs its far end by P_ij Q_ij (0: no
    edge), read only while that end is unsigned and not at all once every
    line is signed.  Then every row is compared once with Q's: that check
    rejects unequal zero sets and any conflict the propagation passed over.
    """
    if P.m != Q.m or P.n != Q.n:
        return None
    E, F, m = P.entries, Q.entries, P.m
    sign = [0] * (m + P.n)

    def neighbours(v):
        if 0 not in sign:  # every line is signed, mostly after the first two
            return ()
        if v < m:
            return ((m + j, c * F[v][j]) for j, c in enumerate(E[v]) if c and not sign[m + j])
        j = v - m
        return ((i, row[j] * F[i][j]) for i, row in enumerate(E) if row[j] and not sign[i])

    _propagate_signs(sign, neighbours)
    d1, d2 = tuple(sign[:m]), tuple(sign[m:])
    if any(tuple([a * x * b for x, b in zip(row, d2)]) != q for a, row, q in zip(d1, E, F)):
        return None
    return d1, d2


def _propagate_signs(sign: list, neighbours) -> list:
    """Fills ``sign``, a list of zeros the caller hands in, with +1 or -1
    for each vertex: each component's lowest vertex gets +1, and each pair
    (w, p) of ``neighbours(v)`` with p nonzero gives an unsigned w the sign
    of v times p, depth-first.  With those roots a consistent signing is
    unique; the caller checks it.  The list is filled as the pairs are
    read, so a lazy ``neighbours`` may skip the w already signed before it
    works out their p."""
    for root in range(len(sign)):
        if sign[root]:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for w, p in neighbours(v):
                if p and not sign[w]:
                    sign[w] = sign[v] * p
                    stack.append(w)
    return sign

def load_pattern(path) -> SignPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return SignPattern.from_text(fh.read())


def save_pattern(A: SignPattern, path) -> None:
    # a .pat file gives a pattern's width by its rows alone, so m blank
    # lines, or no line for 0 x n, would load back as 0 x 0; refuse before
    # the file is opened
    if (A.m == 0) != (A.n == 0):
        raise DomainError(f"a {A.m} x {A.n} pattern cannot be written as a .pat file")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(A.to_text() + "\n")
