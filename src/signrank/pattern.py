"""Sign patterns as combinatorial objects.

A sign pattern is an m x n grid over {+, -, 0} standing for the class of all
real matrices with those entry signs.  This module provides condensation,
permutation/signature equivalence with explicit witnesses, the term rank
(= maximum rank of the class), sign nonsingularity, exact recognition of
minimum rank <= 2, and an aggregator combining every bound this package
knows how to compute.

Sign nonsingularity has one semantics, a block's 2-bit term-sign code:
``is_sns`` reads it off a memoized first-row expansion, the SNS scan off
Laplace splits into half-size blocks.

numpy is imported inside the functions that compute with it (the SNS scan,
the monotone arrangement behind ``is_mr2`` and ``SignPattern.to_array``),
so parsing, condensation, equivalence and ``is_sns`` run without loading it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError, PatternFormatError, ResourceExhausted

_CHAR_TO_INT = {"+": 1, "-": -1, "0": 0}
_INT_TO_CHAR = {1: "+", -1: "-", 0: "0"}
_UNIT = {1: 1, -1: -1}


def _is_bool(value) -> bool:
    """A Python or numpy bool; True == 1 and False == 0, but a bool names no
    sign.  numpy's are told by their dtype, so numpy is not imported."""
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def _fill(P, entries: tuple, m: int, n: int) -> None:
    object.__setattr__(P, "entries", entries)
    object.__setattr__(P, "m", m)
    object.__setattr__(P, "n", n)


class SignPattern:
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
        _fill(self, tuple(grid), len(grid), widths.pop() if widths else 0)

    @classmethod
    def _trusted(cls, entries: tuple, m: int, n: int) -> "SignPattern":
        """Wrap rows this package built from checked entries, unchecked:
        ``entries`` is a tuple of m tuples of n plain ints in {-1, 0, 1}.
        Outside input goes through ``__init__``, which checks every entry;
        m and n are passed, so a pattern without rows keeps its width."""
        self = object.__new__(cls)
        _fill(self, entries, m, n)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SignPattern is immutable")

    @classmethod
    def zeros(cls, m: int, n: int) -> "SignPattern":
        m, n = operator.index(m), operator.index(n)
        if m < 0 or n < 0:
            raise DomainError(f"a sign pattern cannot be {m} x {n}")
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

    def to_text(self) -> str:
        return "\n".join("".join(_INT_TO_CHAR[v] for v in row) for row in self.entries)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "SignPattern":
        # zip sees no rows of a 0 x n pattern: its transpose is n empty rows
        entries = tuple(zip(*self.entries)) if self.m else ((),) * self.n
        return SignPattern._trusted(entries, self.n, self.m)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SignPattern":
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

    def to_array(self):
        import numpy as np

        return np.array(self.entries, dtype=np.int8).reshape(self.m, self.n)

    def __eq__(self, other):
        return isinstance(other, SignPattern) and self.entries == other.entries \
            and self.m == other.m and self.n == other.n

    def __hash__(self):
        return hash((self.m, self.n, self.entries))

    def __repr__(self):
        if self.m == 0 or self.n == 0:
            return f"SignPattern(<{self.m}x{self.n} empty>)"
        return "SignPattern(\n" + "\n".join("  " + "".join(_INT_TO_CHAR[v] for v in row) for row in self.entries) + "\n)"


@dataclass(frozen=True)
class DeletionEvent:
    """One line removed during condensation.  Indices refer to the original
    pattern; ``survivor`` is the earlier line it duplicated or opposed
    (None for zero lines)."""

    axis: str  # "row" or "col"
    kind: str  # "zero", "duplicate", "opposite"
    index: int
    survivor: Optional[int] = None


@dataclass(frozen=True)
class CondensationReport:
    condensed: SignPattern
    kept_rows: tuple
    kept_cols: tuple
    log: tuple


def _sweep(lines, axis: str, log: list) -> list:
    """One pass over the lines of one axis: log and drop zero lines and
    every line equal or opposite to an earlier kept one; return the kept
    indices.

    A line whose first nonzero is ``lead`` is keyed by itself if lead > 0,
    else by its negation, so two lines match up to sign exactly when their
    keys agree.  Kept lines never match each other, so the first kept line
    with a key is the only one a later line can match, and it is stored as
    (index, lead): equal leads make a duplicate, unequal ones an opposite.
    """
    first = {}
    for i, v in enumerate(lines):
        lead = next(filter(None, v), 0)
        if not lead:
            log.append(DeletionEvent(axis, "zero", i))
            continue
        key = v if lead > 0 else tuple([-x for x in v])
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
    return CondensationReport(A.submatrix(rows, cols), tuple(rows), tuple(cols), tuple(log))


@dataclass(frozen=True)
class EquivalenceWitness:
    """Permutations and signatures carrying pattern A onto pattern B:
    ``apply(A)[i][j] = row_signs[i] * col_signs[j] * A[row_perm[i]][col_perm[j]]``.
    """

    row_perm: tuple
    col_perm: tuple
    row_signs: tuple
    col_signs: tuple

    def apply(self, A: SignPattern) -> SignPattern:
        # a witness is a public record, so its signs are checked here, once
        # per line: each must be +1 or -1, read back as a plain int
        try:
            row_signs = [_UNIT[s] for s in self.row_signs]
            col_signs = [_UNIT[s] for s in self.col_signs]
        except (KeyError, TypeError):
            raise DomainError("witness signs must be +1 or -1") from None
        E, row_perm, col_perm = A.entries, self.row_perm, self.col_perm
        entries = tuple(
            tuple([row_signs[i] * col_signs[j] * E[row_perm[i]][col_perm[j]] for j in range(A.n)])
            for i in range(A.m)
        )
        return SignPattern._trusted(entries, A.m, A.n)

    @classmethod
    def identity(cls, m: int, n: int) -> "EquivalenceWitness":
        return cls(tuple(range(m)), tuple(range(n)), (1,) * m, (1,) * n)


def _row_profile(P: SignPattern, i: int):
    zero_cols = frozenset(j for j, v in enumerate(P.entries[i]) if v == 0)
    co = sorted(
        len(zero_cols & frozenset(j for j, v in enumerate(P.entries[k]) if v == 0))
        for k in range(P.m)
        if k != i
    )
    return (len(zero_cols), tuple(co))


# search nodes ``is_equivalent`` visits before giving up
_NODE_BUDGET = 2_000_000


def is_equivalent(A: SignPattern, B: SignPattern) -> Optional[EquivalenceWitness]:
    """Search for permutation sign patterns P1, P2 and signatures D1, D2 with
    B = P1 D1 A D2 P2; returns a witness or None.

    Backtracks over row assignments (B row -> A row with a sign), propagating
    column compatibility; a branch lives while a matching gives every B
    column its own compatible A column, and the last one found is the
    witness's columns.  The first assigned row's sign is pinned to + since
    the global flip of all row and column signs is invisible.  Intended for
    m, n <= 12; raises ResourceExhausted past ``_NODE_BUDGET`` (2,000,000)
    search nodes.
    """
    if A.m != B.m or A.n != B.n:
        return None
    m, n = A.m, A.n
    if m == 0 or n == 0:
        return EquivalenceWitness.identity(m, n)

    prof_a = [_row_profile(A, k) for k in range(m)]
    prof_b = [_row_profile(B, i) for i in range(m)]
    if sorted(prof_a) != sorted(prof_b):
        return None

    # comp[c][j]: 0 free, +1/-1 forced column sign, None dead
    comp = [[0] * n for _ in range(n)]
    nodes = 0

    # assign B rows in a most-discriminating order: rare profiles first
    freq = Counter(prof_b)
    order = sorted(range(m), key=lambda i: (freq[prof_b[i]], prof_b[i], i))

    def column_matching():
        # every B column j needs a distinct A column c with comp[c][j] live
        live = [[comp[c][j] is not None for c in range(n)] for j in range(n)]
        return _max_matching(live, n)

    used = [False] * m
    sigma = [0] * m  # sigma[b_row] = a_row
    eps = [1] * m

    def assign(pos: int):
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise ResourceExhausted(
                f"equivalence search exceeded node budget {_NODE_BUDGET}"
            )
        if pos == m:  # the parent's matching covered every column
            return True
        i = order[pos]
        for k in range(m):
            if used[k] or prof_a[k] != prof_b[i]:
                continue
            for sign in ((1,) if pos == 0 else (1, -1)):
                updates = []
                for c in range(n):
                    ac = A.entries[k][c]
                    for j in range(n):
                        state = comp[c][j]
                        if state is None:
                            continue
                        bv = B.entries[i][j]
                        if ac == 0 and bv == 0:
                            continue
                        if ac == 0 or bv == 0:
                            updates.append((c, j, state))
                            comp[c][j] = None
                            continue
                        need = bv * sign * ac
                        if state == 0:
                            updates.append((c, j, state))
                            comp[c][j] = need
                        elif state != need:
                            updates.append((c, j, state))
                            comp[c][j] = None
                # prune: every B column still matchable
                if column_matching()[0] == n:
                    used[k] = True
                    sigma[i] = k
                    eps[i] = sign
                    if assign(pos + 1):
                        return True
                    used[k] = False
                for c, j, state in reversed(updates):
                    comp[c][j] = state
        return False

    if not assign(0):
        return None
    match_to = column_matching()[1]
    col_perm = [0] * n
    col_signs = [1] * n
    for c in range(n):
        j = match_to[c]
        col_perm[j] = c
        col_signs[j] = comp[c][j] or 1
    return EquivalenceWitness(tuple(sigma), tuple(col_perm), tuple(eps), tuple(col_signs))


def signature_between(P: SignPattern, Q: SignPattern):
    """Signs (d1, d2) with Q = d1 * P * d2 entry-wise, or None.

    The signs are propagated over the cells nonzero in both patterns, each
    component of rows and columns starting from its lowest row at +, and
    then every cell is checked once: that check rejects unequal zero sets
    and any conflict the propagation passed over.
    """
    if P.m != Q.m or P.n != Q.n:
        return None
    m, n = P.m, P.n
    # P_ij Q_ij: the sign d1_i d2_j must take, or 0 where either is zero
    ratio = [[a * b for a, b in zip(p, q)] for p, q in zip(P.entries, Q.entries)]
    d1 = [0] * m
    d2 = [0] * n
    for i in range(m):
        if d1[i]:
            continue
        d1[i] = 1
        stack = [("row", i)]
        while stack:
            kind, idx = stack.pop()
            if kind == "row":
                for j in range(n):
                    if ratio[idx][j] and not d2[j]:
                        d2[j] = ratio[idx][j] * d1[idx]
                        stack.append(("col", j))
            else:
                for k in range(m):
                    if ratio[k][idx] and not d1[k]:
                        d1[k] = ratio[k][idx] * d2[idx]
                        stack.append(("row", k))
    d2 = [v or 1 for v in d2]
    for i in range(m):
        for j in range(n):
            if Q.entries[i][j] != d1[i] * P.entries[i][j] * d2[j]:
                return None
    return tuple(d1), tuple(d2)


def _max_matching(allowed, n_right: int):
    """Kuhn's augmenting-path maximum matching: left vertex u may take right
    vertex v where ``allowed[u][v]`` is truthy, tried in increasing v.
    Returns the matching size and ``match`` with match[v] the left vertex on
    right vertex v, or -1.  A pattern's rows serve as ``allowed`` as they
    are, so term_rank (run on every SNS candidate) builds nothing."""
    match = [-1] * n_right

    def augment(u, seen):
        for v, ok in enumerate(allowed[u]):
            if ok and not seen[v]:
                seen[v] = True
                if match[v] == -1 or augment(match[v], seen):
                    match[v] = u
                    return True
        return False

    size = 0
    for u in range(len(allowed)):
        if augment(u, [False] * n_right):
            size += 1
    return size, match


def term_rank(A: SignPattern) -> int:
    """Maximum number of nonzero entries no two in a row or column, which
    equals the maximum rank over the qualitative class (a standard fact of
    the field, taken as given here).  Kuhn's augmenting-path matching."""
    return _max_matching(A.entries, A.n)[0]


_SNS_CAP = 10


def is_sns(A: SignPattern) -> bool:
    """True iff the determinant expansion has at least one nonzero term and
    all nonzero terms share one sign (so every matrix in the class is
    nonsingular): its term-sign code (``_TermSigns``) is 1 or 2.  The code
    comes from expansion along the first row in pure Python, memoized on
    the columns left to the rows below; a cofactor of negative sign swaps
    its two bits.  n above ``_SNS_CAP`` (10) raises ResourceExhausted."""
    if A.m != A.n:
        raise DomainError(f"sign nonsingularity needs a square pattern, got {A.m}x{A.n}")
    n = A.n
    if n == 0:
        raise DomainError("sign nonsingularity is undefined for the empty pattern")
    if n > _SNS_CAP:
        raise ResourceExhausted(f"is_sns capped at n <= {_SNS_CAP}, got {n}")
    E = A.entries

    @functools.cache
    def code(i: int, cols: int) -> int:
        # rows i.. on the columns whose bits are set in cols (n - i of them)
        if i == n:
            return 1  # the empty product: one positive term
        out = 0
        sign = 1  # (-1)^p for the p-th kept column
        for j in range(n):
            if cols >> j & 1:
                if E[i][j]:
                    c = code(i + 1, cols & ~(1 << j))
                    out |= c if E[i][j] == sign else (c & 1) << 1 | c >> 1
                sign = -sign
        return out

    return code(0, (1 << n) - 1) in (1, 2)


# Candidates times Laplace splits in one chunk of the SNS scan
_SCAN_BUDGET = 1 << 18
# (n, k) shapes whose split ranks (_split_ranks) are kept between scans
_LAYOUTS = 32

# Term-sign codes: the value 1 is set when some determinant term of a block
# is positive, 2 when some term is negative (0: no nonzero term).  A block
# is SNS exactly when its code is 1 or 2.  A product of two blocks' terms is
# read off two 4-bit forms: the top block's code c enters as c | c << 2 and
# the bottom block's as c | swap(c) << 2 (halves exchanged when the split's
# permutation is odd), so in their AND bits 0-1 flag a positive product and
# bits 2-3 a negative one.  _CODE maps such a 4-bit OR back to a code.
_TOP_FORM = (0, 5, 10, 15)
_BOTTOM_FORMS = ((0, 9, 6, 15), (0, 6, 9, 15))  # even, odd split
_CODE = (0, 1, 1, 1, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3)


def _subsets(n: int, k: int):
    """The k-subsets of range(n) in lexicographic order, one per row."""
    import numpy as np

    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=math.comb(n, k) * k).reshape(-1, k)


def _unrank(rank: int, n: int, k: int) -> tuple:
    """The k-subset of range(n) with the given lexicographic rank."""
    return next(itertools.islice(itertools.combinations(range(n), k), rank, None))


@functools.lru_cache(maxsize=_LAYOUTS)
def _split_ranks(n: int, k: int):
    """Laplace splits of every k-subset of range(n): each split gives h =
    k // 2 of its positions to the top block and the rest to the bottom.
    Returns (top, bottom), both (C(k, h), C(n, k)) and split-major: the
    lexicographic ranks of the split's two parts among the subsets of their
    size, by the combinatorial number system (c_1 < ... < c_s has rank
    C(n, s) - 1 - sum_i C(n - 1 - c_i, s + 1 - i)).  Bottom ranks are
    doubled, plus 1 for a split whose permutation is odd.  Split 0 keeps
    the first h positions on top and is even."""
    import numpy as np

    h = k // 2
    splits = _subsets(k, h)
    rest = _subsets(k, k - h)[::-1]  # complements reverse lexicographic order
    odd = (splits.sum(axis=1) + h * (h + 3) // 2) % 2  # parity of 1-based index sums
    binom = np.array([[math.comb(x, j) for j in range(k + 1)] for x in range(n)], dtype=np.intp)
    # weights[p, j] = C(n - 1 - c_p, j) for position p of every k-subset
    weights = np.ascontiguousarray(binom[n - 1 - _subsets(n, k)].transpose(1, 2, 0))

    def ranks(parts):
        s = parts.shape[1]
        return math.comb(n, s) - 1 - sum(weights[parts[:, i], s - i] for i in range(s))

    top = ranks(splits)
    bottom = 2 * ranks(rest) + odd[:, None]
    top.flags.writeable = bottom.flags.writeable = False
    return top, bottom


class _TermSigns:
    """Term-sign codes of the square submatrices of one m x n pattern.

    ``tables[s]`` holds the code of every s x s submatrix, indexed by the
    lexicographic ranks of its row and column subsets.  Size 1 is read off
    the entries; a larger size is built on first use from two smaller ones
    and kept, so every size of one ``max_sns_submatrix`` call shares them.
    """

    def __init__(self, E):
        import numpy as np

        self.m, self.n = E.shape
        # a + entry is one positive term (code 1), a - entry one negative (2)
        self.tables = {1: (E % 3).astype(np.uint8)}
        # the lookup tables of the 4-bit forms, shared by every size
        self.top_form = np.array(_TOP_FORM, dtype=np.uint8)
        self.bottom_forms = np.array(_BOTTOM_FORMS, dtype=np.uint8).T
        self.code = np.array(_CODE, dtype=np.uint8)

    def table(self, s: int):
        import numpy as np

        table = self.tables.get(s)
        if table is None:
            table = np.empty((math.comb(self.m, s), math.comb(self.n, s)), dtype=np.uint8)
            for r, c, codes in self.chunks(s):
                table[r:r + len(codes), c:c + codes.shape[1]] = codes
            self.tables[s] = table
        return table

    def chunks(self, k: int):
        """Codes of the k x k submatrices in chunks of consecutive
        candidates in lexicographic (rows, cols) order.  Yields (r, c,
        codes): codes[a, b] belongs to the rows of rank r + a and the
        columns of rank c + b.

        Generalized Laplace expansion along the first h = k // 2 rows: the
        terms of a candidate are, over the C(k, h) ways to give h of its
        columns to those rows, the products of a top h x h block's terms
        and a bottom (k-h) x (k-h) block's terms, negated when the split is
        odd.  A chunk spans several row subsets only when it holds every
        column subset, and its candidates times splits stay within
        ``_SCAN_BUDGET``.
        """
        h = k // 2
        top = self.top_form[self.table(h)]
        # column 2j holds the even form of bottom code j, column 2j + 1 the odd
        bottom = self.bottom_forms[self.table(k - h)]
        bottom = bottom.reshape(len(bottom), -1)
        row_top, row_bottom = _split_ranks(self.m, k)
        row_top, row_bottom = row_top[0], row_bottom[0] // 2  # split 0: the first h rows
        col_top, col_bottom = _split_ranks(self.n, k)

        n_splits, n_cols = col_top.shape
        c_step = max(1, min(n_cols, _SCAN_BUDGET // n_splits))
        r_step = max(1, _SCAN_BUDGET // (n_splits * n_cols)) if c_step == n_cols else 1
        for r in range(0, len(row_top), r_step):
            top_rows = top[row_top[r:r + r_step]]
            bottom_rows = bottom[row_bottom[r:r + r_step]]
            for c in range(0, n_cols, c_step):
                block = slice(c, c + c_step)
                terms = top_rows[:, col_top[0, block]] & bottom_rows[:, col_bottom[0, block]]
                for j in range(1, n_splits):
                    terms |= top_rows[:, col_top[j, block]] & bottom_rows[:, col_bottom[j, block]]
                yield r, c, self.code[terms]

    def first_sns(self, k: int):
        """First k x k SNS submatrix in lexicographic (rows, cols) order, as
        (rows, cols) tuples, or None.  A size whose table exists is read
        from it; any other is scanned chunk by chunk up to the first hit."""
        import numpy as np

        chunks = [(0, 0, self.tables[k])] if k in self.tables else self.chunks(k)
        for r, c, codes in chunks:
            hits = np.flatnonzero((codes == 1) | (codes == 2))
            if hits.size:
                a, b = divmod(int(hits[0]), codes.shape[1])
                return _unrank(r + a, self.m, k), _unrank(c + b, self.n, k)
        return None


def max_sns_submatrix(A: SignPattern, cap: int = 4):
    """Largest k <= cap with a k x k sign-nonsingular submatrix, plus one
    witness (rows, cols): the first SNS k x k submatrix in lexicographic
    (rows, cols) order.  Each candidate's set of term signs comes from a
    Laplace split into two half-size blocks (``_TermSigns.chunks``), whose
    code tables are built once per call from the 1 x 1 signs and shared by
    every size.  A size costs C(m, k) C(n, k) C(k, k // 2) plus the
    half-size tables, C(m, h) C(n, h) C(h, h // 2) for each size h they
    need; sizes above the ``is_sns`` cap of 10 raise ResourceExhausted.
    Returns (0, (), ()) for the zero pattern."""
    return _sns_scan(A, min(cap, term_rank(A)))


def _sns_scan(A: SignPattern, upper: int):
    """``max_sns_submatrix`` over k <= ``upper``, a bound that already
    includes the term rank of A, so a caller holding it does not recount."""
    if upper > _SNS_CAP:
        raise ResourceExhausted(f"SNS scan capped at k <= {_SNS_CAP}, got {upper}")
    signs = _TermSigns(A.to_array())
    for k in range(upper, 0, -1):
        found = signs.first_sns(k)
        if found is not None:
            return (k, *found)
    return (0, (), ())


def is_mr1(A: SignPattern) -> bool:
    """Minimum rank is exactly 1 iff the condensed pattern is 1x1 nonzero."""
    c = condense(A).condensed
    return c.m == 1 and c.n == 1


@dataclass(frozen=True)
class Mr2Result:
    value: bool
    witness: Optional[EquivalenceWitness]
    condensation: CondensationReport

    def __bool__(self):
        return self.value


def is_mr2(A: SignPattern) -> Mr2Result:
    """Decide whether the minimum rank is exactly 2.

    The condensed pattern must (i) have at least two rows and columns,
    (ii) carry at most one zero per row and per column, and (iii) admit
    signatures and permutations making every row and column nondecreasing
    (- entries before 0 before +).  For (iii) the column signature is read
    off row 0 (one candidate, see ``_row_pinned_signature``); the row
    signature follows from pairwise row tests and one sign propagation
    (``_monotone_arrangement``), so the decision takes O(m^2 n).

    On success the witness transforms the condensed pattern into the
    nondecreasing arrangement.
    """
    report = condense(A)
    C = report.condensed
    if C.m < 2 or C.n < 2:
        return Mr2Result(False, None, report)
    for i in range(C.m):
        if C.row(i).count(0) > 1:
            return Mr2Result(False, None, report)
    for j in range(C.n):
        if C.col(j).count(0) > 1:
            return Mr2Result(False, None, report)
    arrangement = _monotone_arrangement(C)
    if arrangement is None:
        return Mr2Result(False, None, report)
    return Mr2Result(True, arrangement, report)


def _row_pinned_signature(C: SignPattern) -> tuple:
    """The one column signature a monotone arrangement of C needs to try.

    A monotone signing exists exactly when a rank-2 realization does.
    Take one: row i a line at angle psi_i, column j a direction at angle
    theta_j.  Cut the projective circle at row 0's line and move every
    angle into [psi_0, psi_0 + pi) by signing its line; then each sign is
    sign(theta_j - psi_i), nondecreasing once rows and columns are sorted,
    and row 0 is all + but for a zero where theta_j = psi_0.  So if any
    signing is monotone, one with c_j = C[0][j] is.  The column of a zero
    in row 0 may take either sign: cutting just past psi_0 instead sends
    row 0 and that column to the far end, flipping both and no other line.
    It gets +, and the signature is normalized to c[0] = + (the global flip
    of all row and column signs is invisible).
    """
    c = tuple(v or 1 for v in C.entries[0])
    return c if c[0] > 0 else tuple(-v for v in c)


def _monotone_arrangement(C: SignPattern, identity_only: bool = False):
    """Signatures and permutations making every row and column of C
    nondecreasing, as an EquivalenceWitness (applying it to C yields the
    arranged pattern), or None.  C is condensed, with at most one zero per
    row and per column (``is_mr2`` checks this first).

    The column signature c is pinned by row 0 (``_row_pinned_signature``);
    with identity_only, c and the row signs d are all +.  Given d, let
    S = d C c.  A row order makes every column nondecreasing exactly when
    the signed rows form a chain under entry-wise <=, i.e. when no
    difference S_a - S_b of two rows has entries of both signs.  A column
    order makes every row nondecreasing exactly when the down-sets
    {j : S_ij <= t} of all rows form a chain under inclusion, and a family
    is a chain iff each two of its members are nested.  The down-sets of
    rows a and b fail to nest iff two columns cross (S_aj < S_ak but
    S_bj > S_bk); with S_a <= S_b a crossing forces S_ak = S_bk = 0, two
    zeros in column k, so the chain of rows also gives the column order.
    Hence d works iff every pair of signed rows is comparable.  Negating
    both rows of a pair keeps its answer, so it depends on d_a d_b alone:
    with T = C c the pair tests T_a - T_b for equal signs and T_a + T_b for
    opposite signs, and so forces equal signs, forces opposite signs,
    allows both or allows neither.  Giving the lowest row of each
    component + and propagating the forced parities finds the first valid
    d in (+, -) order, or a contradiction.  No two signed rows and no two
    signed columns of a condensed pattern are equal, so along a valid
    arrangement the line sums strictly increase and each order is the one
    sort by sums.
    """
    import numpy as np

    m = C.m
    c = np.array((1,) * C.n if identity_only else _row_pinned_signature(C), dtype=np.int8)
    T = C.to_array() * c

    def comparable(diff):
        return ~((diff < 0).any(axis=2) & (diff > 0).any(axis=2))

    same = comparable(T[:, None, :] - T[None, :, :])
    opposite = np.zeros_like(same) if identity_only else comparable(T[:, None, :] + T[None, :, :])
    if not (same | opposite).all():
        return None
    parity = same.astype(np.int8) - opposite  # +1 equal, -1 opposite, 0 free
    forced = parity.tolist()
    d = [0] * m
    for root in range(m):
        if d[root]:
            continue
        d[root] = 1
        stack = [root]
        while stack:
            a = stack.pop()
            for b, p in enumerate(forced[a]):
                if p and not d[b]:
                    d[b] = d[a] * p
                    stack.append(b)
    d = np.array(d, dtype=np.int8)
    if (parity * np.outer(d, d) < 0).any():
        return None
    S = T * d[:, None]
    row_order = np.argsort(S.sum(axis=1), kind="stable")
    col_order = np.argsort(S.sum(axis=0), kind="stable")
    return EquivalenceWitness(
        row_perm=tuple(row_order.tolist()),
        col_perm=tuple(col_order.tolist()),
        row_signs=tuple(d[row_order].tolist()),
        col_signs=tuple(c[col_order].tolist()),
    )


def check_search_budget(restarts: int, iters: int, seed: int) -> None:
    """Reject a negative search budget or seed before any search starts;
    it needs no numpy, so the CLI checks its flags before loading it."""
    if restarts < 0 or iters < 0:
        raise DomainError(f"restarts and iters must be >= 0, got {restarts} and {iters}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


@dataclass
class MrBoundsOptions:
    sns_cap: int = 4
    try_rank: Optional[int] = None
    seed: int = 0
    restarts: int = 64
    iters: int = 5000


@dataclass(frozen=True)
class MrBounds:
    lower: int
    upper: int
    evidence: tuple


def mr_bounds(A: SignPattern, options: Optional[MrBoundsOptions] = None) -> MrBounds:
    """Best lower and upper bounds on the minimum rank from every available
    test.  ``evidence`` is a tuple of (kind, value, description) records,
    kind in {"lower", "upper", "exact", "note"}, one per test that ran."""
    opts = options or MrBoundsOptions()
    if opts.sns_cap < 0:
        raise DomainError(f"sns_cap must be >= 0, got {opts.sns_cap}")
    check_search_budget(opts.restarts, opts.iters, opts.seed)
    if opts.try_rank is not None and opts.try_rank < 1:
        raise DomainError(f"try_rank must be >= 1, got {opts.try_rank}")
    if A.is_zero():
        return MrBounds(0, 0, (("exact", 0, "zero pattern"),))

    mr2 = is_mr2(A)
    report = mr2.condensation
    C = report.condensed
    evidence = [
        ("lower", 1, "nonzero pattern"),
        ("upper", min(C.m, C.n), f"condensed size min({C.m},{C.n})"),
    ]

    tr = term_rank(C)
    evidence.append(("upper", tr, f"term rank {tr}"))

    if C.m == 1 and C.n == 1:
        evidence.append(("exact", 1, "condensed pattern is 1x1"))
        return MrBounds(1, 1, tuple(evidence))
    if mr2.value:
        evidence.append(("exact", 2, "nondecreasing arrangement exists"))
        return MrBounds(2, 2, tuple(evidence))
    evidence.append(("lower", 3, "mr = 1 and mr = 2 excluded exactly"))

    k, rows, cols = _sns_scan(C, min(opts.sns_cap, tr))
    if k:
        evidence.append(
            (
                "lower",
                k,
                f"SNS {k}x{k} at rows "
                f"{','.join(str(report.kept_rows[i] + 1) for i in rows)} / cols "
                f"{','.join(str(report.kept_cols[j] + 1) for j in cols)}",
            )
        )

    lower = max(v for kind, v, _ in evidence if kind == "lower")
    upper = min(v for kind, v, _ in evidence if kind == "upper")

    rank = opts.try_rank
    if rank is not None and not lower <= rank < upper:
        why = (f"is below the proven lower bound {lower}" if rank < lower
               else f"is not below the upper bound {upper}")
        evidence.append(("note", None, f"rank {rank} {why}; no search run"))
    elif rank is not None:
        from . import realize

        params = realize.SearchParams(seed=opts.seed, restarts=opts.restarts, iters=opts.iters)
        found = realize.search_realization(C, rank, params)
        if found is not None:
            evidence.append(("upper", found.r, f"numerical realization at rank {found.r}"))
            upper = min(upper, found.r)
        else:
            evidence.append(("note", None, f"no rank-{rank} realization found (inconclusive)"))

    return MrBounds(lower, upper, tuple(evidence))


def load_pattern(path) -> SignPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return SignPattern.from_text(fh.read())


def save_pattern(A: SignPattern, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(A.to_text() + "\n")
