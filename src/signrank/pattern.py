"""Sign patterns as combinatorial objects.

A sign pattern is an m x n grid over {+, -, 0} standing for the class of all
real matrices with those entry signs.  This module provides condensation,
permutation/signature equivalence with explicit witnesses, the term rank
(= maximum rank of the class), sign nonsingularity, exact recognition of
minimum rank <= 2, and an aggregator combining every bound this package
knows how to compute.

numpy is imported inside the functions that compute with it (the SNS scan,
the monotone arrangement behind ``is_mr2`` and ``SignPattern.to_array``),
so parsing, condensation and equivalence run without loading it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError, PatternFormatError, ResourceExhausted

_CHAR_TO_INT = {"+": 1, "-": -1, "0": 0}
_INT_TO_CHAR = {1: "+", -1: "-", 0: "0"}


class SignPattern:
    """Immutable rectangular grid over {+, -, 0}, stored as -1/0/+1 ints."""

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
                    if iv != value or iv not in (-1, 0, 1):
                        raise DomainError(f"invalid sign value {value!r}")
                    converted.append(iv)
            grid.append(tuple(converted))
        object.__setattr__(self, "entries", tuple(grid))
        object.__setattr__(self, "m", len(grid))
        widths = {len(r) for r in grid}
        if len(widths) > 1:
            raise DomainError("all rows of a sign pattern must have equal length")
        object.__setattr__(self, "n", widths.pop() if widths else 0)

    def __setattr__(self, name, value):
        raise AttributeError("SignPattern is immutable")

    @classmethod
    def zeros(cls, m: int, n: int) -> "SignPattern":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def from_text(cls, text: str) -> "SignPattern":
        """Parse the .pat format: optional #-comment lines, then rows of
        +/-/0 characters with optional whitespace between them."""
        rows = []
        width = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            row = []
            for colno, ch in enumerate(raw, start=1):
                if ch.isspace():
                    continue
                if ch not in _CHAR_TO_INT:
                    raise PatternFormatError(
                        f"invalid character {ch!r} in pattern", line=lineno, column=colno
                    )
                row.append(_CHAR_TO_INT[ch])
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise PatternFormatError(
                    f"row has {len(row)} entries, expected {width}", line=lineno
                )
            rows.append(row)
        return cls(rows)

    def to_text(self) -> str:
        return "\n".join("".join(_INT_TO_CHAR[v] for v in row) for row in self.entries)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "SignPattern":
        if self.m == 0:
            return SignPattern([[] for _ in range(self.n)])
        return SignPattern(list(zip(*self.entries)))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SignPattern":
        return SignPattern([[self.entries[i][j] for j in cols] for i in rows])

    def negate(self) -> "SignPattern":
        return SignPattern([[-v for v in row] for row in self.entries])

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
        lead = next((x for x in v if x), 0)
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
    E = A.entries
    log = []
    rows = _sweep(E, "row", log)
    cols = _sweep(zip(*E), "col", log)
    condensed = SignPattern([[E[i][j] for j in cols] for i in rows])
    return CondensationReport(condensed, tuple(rows), tuple(cols), tuple(log))


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
        return SignPattern(
            [
                [
                    self.row_signs[i] * self.col_signs[j] * A.entries[self.row_perm[i]][self.col_perm[j]]
                    for j in range(A.n)
                ]
                for i in range(A.m)
            ]
        )

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
    column compatibility; the first assigned row's sign is pinned to + since
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

    def column_assignment():
        size, match_to = column_matching()
        if size < n:
            return None
        col_perm = [0] * n
        col_signs = [1] * n
        for c in range(n):
            j = match_to[c]
            col_perm[j] = c
            col_signs[j] = comp[c][j] if comp[c][j] != 0 else 1
        return tuple(col_perm), tuple(col_signs)

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
        if pos == m:
            return column_assignment() is not None
        i = order[pos]
        for k in range(m):
            if used[k] or prof_a[k] != prof_b[i]:
                continue
            for sign in ((1,) if pos == 0 else (1, -1)):
                updates = []
                dead = False
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
                if any(all(comp[c][j] is None for c in range(n)) for j in range(n)):
                    dead = True
                if not dead and column_matching()[0] < n:
                    dead = True
                if not dead:
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
    cols = column_assignment()
    col_perm, col_signs = cols
    return EquivalenceWitness(tuple(sigma), col_perm, tuple(eps), col_signs)


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
    nonsingular).  Enumerates nonzero-product permutations; n above
    ``_SNS_CAP`` (10) raises ResourceExhausted."""
    if A.m != A.n:
        raise DomainError(f"sign nonsingularity needs a square pattern, got {A.m}x{A.n}")
    n = A.n
    if n == 0:
        raise DomainError("sign nonsingularity is undefined for the empty pattern")
    if n > _SNS_CAP:
        raise ResourceExhausted(f"is_sns capped at n <= {_SNS_CAP}, got {n}")
    if term_rank(A) < n:
        return False  # no nonzero term at all

    found_sign = 0
    used = [False] * n

    def walk(i, parity_sign):
        nonlocal found_sign
        if i == n:
            if found_sign == 0:
                found_sign = parity_sign
                return True
            return parity_sign == found_sign
        for j in range(n):
            if used[j] or A.entries[i][j] == 0:
                continue
            used[j] = True
            # row-order parity: count inversions incrementally via sign flips
            ok = walk(i + 1, parity_sign * A.entries[i][j] * _transposition_sign(used, j))
            used[j] = False
            if not ok:
                return False
        return True

    def _transposition_sign(used_flags, j):
        # parity contribution of placing column j at the current row: one
        # factor -1 per already-used column with larger index
        inversions = sum(1 for k in range(j + 1, n) if used_flags[k])
        return -1 if inversions % 2 else 1

    return walk(0, 1) and found_sign != 0


# Elements in the largest per-chunk temporary of the SNS scan (2 MB as intp)
_SCAN_BUDGET = 1 << 18
# permutation tables kept between calls: k <= 8 is at most 40320 x 8 bytes;
# the 36 MB 10! x 10 table of the largest size is rebuilt on each scan instead
_CACHED_PERMUTATIONS = 8
_PERMUTATIONS: dict = {}


def _permutation_table(k: int):
    """All k! permutations of range(k) in lexicographic order as int8 rows,
    and their signs (+1 even, -1 odd) as int8."""
    table = _PERMUTATIONS.get(k)
    if table is None:
        import numpy as np

        flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
        perms = np.fromiter(flat, dtype=np.int8, count=math.factorial(k) * k).reshape(-1, k)
        odd = np.zeros(len(perms), dtype=bool)
        for a, b in itertools.combinations(range(k), 2):
            odd ^= perms[:, a] > perms[:, b]
        table = (perms, np.where(odd, np.int8(-1), np.int8(1)))
        if k <= _CACHED_PERMUTATIONS:
            _PERMUTATIONS[k] = table
    return table


def _first_sns(E, m: int, n: int, k: int):
    """First k x k SNS submatrix of the int8 array E in lexicographic
    (rows, cols) order, as (rows, cols) tuples, or None.

    Each candidate's k x k submatrix is gathered once; its determinant
    terms are the products of that submatrix along every permutation, one
    factor per row.  A candidate is SNS when it has a nonzero term and its
    terms are not of both signs.  Row combinations (drawn lazily), column
    combinations and permutations are taken in chunks so that no per-chunk
    temporary exceeds ``_SCAN_BUDGET`` elements; a chunk spans several row
    combinations only when it holds every column combination, so the first
    hit of a chunk is the first hit overall.
    """
    import numpy as np

    perms, parity = _permutation_table(k)
    cols = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    p_step = min(len(perms), _SCAN_BUDGET)
    c_step = max(1, min(len(cols), _SCAN_BUDGET // (p_step + k * k)))
    r_step = max(1, _SCAN_BUDGET // ((p_step + k * k) * len(cols))) if c_step == len(cols) else 1
    row_iter = itertools.combinations(range(m), k)
    while True:
        rows = np.array(list(itertools.islice(row_iter, r_step)), dtype=np.intp).reshape(-1, k)
        if not len(rows):
            return None
        for c0 in range(0, len(cols), c_step):
            block = cols[c0:c0 + c_step]
            sub = E[rows[:, None, :, None], block[None, :, None, :]]
            pos = np.zeros((len(rows), len(block)), dtype=bool)
            neg = np.zeros_like(pos)
            for p0 in range(0, len(perms), p_step):
                chunk = perms[p0:p0 + p_step]
                terms = parity[p0:p0 + p_step] * sub[:, :, 0, chunk[:, 0]]
                for i in range(1, k):
                    terms *= sub[:, :, i, chunk[:, i]]
                pos |= (terms > 0).any(axis=-1)
                neg |= (terms < 0).any(axis=-1)
            hits = np.flatnonzero(pos != neg)
            if hits.size:
                r, c = divmod(int(hits[0]), len(block))
                return tuple(int(i) for i in rows[r]), tuple(int(j) for j in block[c])


def max_sns_submatrix(A: SignPattern, cap: int = 4):
    """Largest k <= cap with a k x k sign-nonsingular submatrix, plus one
    witness (rows, cols): the first SNS k x k submatrix in lexicographic
    (rows, cols) order.  Each size is one numpy scan over every candidate's
    determinant terms, chunked to a bounded working set; the cost still
    grows as C(m, k) C(n, k) k! k, and sizes above the ``is_sns`` cap of
    10 raise ResourceExhausted.  Returns (0, (), ()) for the zero pattern."""
    upper = min(cap, A.m, A.n, term_rank(A))
    if upper > _SNS_CAP:
        raise ResourceExhausted(f"SNS scan capped at k <= {_SNS_CAP}, got {upper}")
    E = A.to_array()
    for k in range(upper, 0, -1):
        found = _first_sns(E, A.m, A.n, k)
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
    if opts.restarts < 0 or opts.iters < 0:
        raise DomainError(
            f"restarts and iters must be >= 0, got {opts.restarts} and {opts.iters}"
        )
    if opts.seed < 0:
        raise DomainError(f"seed must be >= 0, got {opts.seed}")
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

    k, rows, cols = max_sns_submatrix(C, cap=opts.sns_cap)
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

    if opts.try_rank is not None and opts.try_rank < lower:
        evidence.append(
            ("note", None, f"rank {opts.try_rank} is below the proven lower bound {lower}; "
                            "no search run")
        )
    elif opts.try_rank is not None and opts.try_rank < upper:
        from . import realize

        params = realize.SearchParams(seed=opts.seed, restarts=opts.restarts, iters=opts.iters)
        found = realize.search_realization(C, opts.try_rank, params)
        if found is not None:
            evidence.append(("upper", found.r, f"numerical realization at rank {found.r}"))
            upper = min(upper, found.r)
        else:
            evidence.append(
                ("note", None, f"no rank-{opts.try_rank} realization found (inconclusive)")
            )

    return MrBounds(lower, upper, tuple(evidence))


def load_pattern(path) -> SignPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return SignPattern.from_text(fh.read())


def save_pattern(A: SignPattern, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(A.to_text() + "\n")
