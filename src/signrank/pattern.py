"""The deciders on sign patterns.

A sign pattern is an m x n grid over {+, -, 0} standing for the class of all
real matrices with those entry signs.  The pattern itself, its
condensation, the signature between two patterns and the .pat files live
in ``core``; this module decides on them: permutation/signature
equivalence with explicit witnesses, the term rank (= maximum rank of the
class), sign nonsingularity, exact recognition of minimum rank <= 2, and an
aggregator combining every bound this package knows how to compute.

Sign nonsingularity is decided by one walk over the row sets that are
L-matrices (every nonzero signing leaves a unisigned column), on per-row
bitmasks: ``is_sns`` walks all rows of a square pattern, and the SNS scan
covers each k-row set it reaches with k columns.

``search_realization`` is the one entry point of a rank-r realization: it
checks the budget and the rank, condenses once and builds ranks 1 and 2
exactly from the arrangement of ``is_mr2``; only for r >= 3 does it import
``realize``, the float search, and with it numpy.  The module imports no
``fractions`` or numpy, and ``exactnum`` only where a realization is built.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import NamedTuple, Optional

from .core import (CondensationReport, SignPattern, _check_integer, _lead_key, _propagate_signs,
                   condense, load_pattern)
from .errors import DomainError, ResourceExhausted

# core's names that the benchmark looks up here (tracing.TRACED, workloads)
__all__ = ["SignPattern", "condense", "load_pattern"]

_UNIT = {1: 1, -1: -1}


class EquivalenceWitness(NamedTuple):
    """Permutations and signatures carrying pattern A onto pattern B:
    ``apply(A)[i][j] = row_signs[i] * col_signs[j] * A[row_perm[i]][col_perm[j]]``.
    """

    row_perm: tuple
    col_perm: tuple
    row_signs: tuple
    col_signs: tuple

    def apply(self, A: SignPattern) -> SignPattern:
        # a witness is a public record, so it is checked here: each line of A
        # is taken once and signed +1 or -1, read back as a plain int
        try:
            row_signs = [_UNIT[s] for s in self.row_signs]
            col_signs = [_UNIT[s] for s in self.col_signs]
        except (KeyError, TypeError):
            raise DomainError("witness signs must be +1 or -1") from None
        row_perm = [_check_integer(i, "witness row index", 0) for i in self.row_perm]
        col_perm = [_check_integer(j, "witness column index", 0) for j in self.col_perm]
        if (sorted(row_perm) != [*range(A.m)] or sorted(col_perm) != [*range(A.n)]
                or len(row_signs) != A.m or len(col_signs) != A.n):
            raise DomainError(f"witness does not permute and sign the {A.m}x{A.n} pattern's lines")
        entries = tuple(
            tuple([row_signs[i] * col_signs[j] * A.entries[row_perm[i]][col_perm[j]] for j in range(A.n)])
            for i in range(A.m)
        )
        return SignPattern._trusted(entries, A.m, A.n)

    @classmethod
    def identity(cls, m: int, n: int) -> "EquivalenceWitness":
        return cls(tuple(range(m)), tuple(range(n)), (1,) * m, (1,) * n)


def _row_profiles(P: SignPattern) -> list:
    """Each row's zero count and the sorted counts of the zeros it shares
    with each other row, from one zero mask per row."""
    zeros = [_mask(row, _ZERO_BIT) for row in P.entries]
    return [(z.bit_count(),
             tuple(sorted([(z & y).bit_count() for k, y in enumerate(zeros) if k != i])))
            for i, z in enumerate(zeros)]


# search nodes ``is_equivalent`` visits before giving up
_NODE_BUDGET = 2_000_000


def is_equivalent(A: SignPattern, B: SignPattern) -> Optional[EquivalenceWitness]:
    """Search for permutation sign patterns P1, P2 and signatures D1, D2 with
    B = P1 D1 A D2 P2; returns a witness or None.

    Backtracks over row assignments (B row -> A row with a sign), carrying
    the partial columns: A's over the assigned A rows times their signs,
    B's over the assigned B rows.  B column j can still go to A column c
    exactly when the two are equal up to one sign, an equivalence, so a
    branch lives while each class (``_lead_key``) holds as many columns of
    A as of B.  After the last row the i-th B column of a class takes its
    i-th A column from the end (the pairing Kuhn's matching finds on a
    complete block), signed by the ratio of their first nonzeros (+ for a
    zero class).  The first assigned row's sign is pinned to + since the
    global flip of all row and column signs is invisible.  Measured at
    <= 0.13 s a pair on zero-free 8..16 and 30%-zero 12..24 lines; raises
    ResourceExhausted past ``_NODE_BUDGET`` (2,000,000) search nodes.
    """
    if A.m != B.m or A.n != B.n:
        return None
    m, n = A.m, A.n
    if m == 0 or n == 0:
        return EquivalenceWitness.identity(m, n)

    prof_a, prof_b = _row_profiles(A), _row_profiles(B)
    if sorted(prof_a) != sorted(prof_b):
        return None
    nodes = 0

    # assign B rows in a most-discriminating order: rare profiles first
    freq = Counter(prof_b)
    order = sorted(range(m), key=lambda i: (freq[prof_b[i]], prof_b[i], i))

    used = [False] * m
    sigma = [0] * m  # sigma[b_row] = a_row
    eps = [1] * m

    def assign(pos: int, a_cols: list, b_cols: list):
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise ResourceExhausted(f"equivalence search exceeded node budget {_NODE_BUDGET}")
        if pos == m:
            return a_cols, b_cols
        i = order[pos]
        b_next = [v + (x,) for v, x in zip(b_cols, B.entries[i])]
        b_classes = Counter([_lead_key(v)[1] for v in b_next])
        for k in range(m):
            if used[k] or prof_a[k] != prof_b[i]:
                continue
            for sign in ((1,) if pos == 0 else (1, -1)):
                a_next = [v + (sign * x,) for v, x in zip(a_cols, A.entries[k])]
                if Counter([_lead_key(v)[1] for v in a_next]) == b_classes:
                    used[k] = True
                    sigma[i] = k
                    eps[i] = sign
                    found = assign(pos + 1, a_next, b_next)
                    if found:
                        return found
                    used[k] = False
        return None

    found = assign(0, [()] * n, [()] * n)
    if found is None:
        return None
    a_cols, b_cols = found
    members = {}
    for c, v in enumerate(a_cols):
        members.setdefault(_lead_key(v)[1], []).append(c)
    col_perm = tuple(members[_lead_key(v)[1]].pop() for v in b_cols)
    # equal up to sign, so the first nonzero product is the ratio's sign
    col_signs = tuple(next(filter(None, map(operator.mul, v, a_cols[c])), 1)
                      for v, c in zip(b_cols, col_perm))
    return EquivalenceWitness(tuple(sigma), col_perm, tuple(eps), col_signs)


def term_rank(A: SignPattern) -> int:
    """Maximum number of nonzero entries no two in a row or column, which
    equals the maximum rank over the qualitative class (a standard fact of
    the field, taken as given here).  Kuhn's augmenting-path matching: row
    u may take column v where entry (u, v) is nonzero, tried in increasing
    v."""
    E = A.entries
    match = [-1] * A.n

    def augment(u, seen):
        for v, ok in enumerate(E[u]):
            if ok and not seen[v]:
                seen[v] = True
                if match[v] == -1 or augment(match[v], seen):
                    match[v] = u
                    return True
        return False

    size = 0
    for u in range(A.m):
        if augment(u, [False] * A.n):
            size += 1
    return size


_SNS_CAP = 10


def is_sns(A: SignPattern) -> bool:
    """True iff every matrix in the class is nonsingular.  A square pattern
    is SNS exactly when its rows are an L-matrix, so this is the SNS scan's
    walk (``_l_matrix_rows``) on all n rows; no column cover is needed, as
    the only n x n block is the whole pattern.  n above ``_SNS_CAP`` (10)
    raises ResourceExhausted."""
    if A.m != A.n:
        raise DomainError(f"sign nonsingularity needs a square pattern, got {A.m}x{A.n}")
    n = A.n
    if n == 0:
        raise DomainError("sign nonsingularity is undefined for the empty pattern")
    if n > _SNS_CAP:
        raise ResourceExhausted(f"is_sns capped at n <= {_SNS_CAP}, got {n}")
    rows = [(_mask(row, _PLUS_BIT), _mask(row, _MINUS_BIT)) for row in A.entries]
    return next(_l_matrix_rows(rows, n, n), None) is not None


def max_sns_submatrix(A: SignPattern, cap: int = 4):
    """Largest k <= cap with a k x k sign-nonsingular submatrix, plus one
    witness (rows, cols): the first SNS k x k submatrix in lexicographic
    (rows, cols) order.  A square block is SNS exactly when its rows are an
    L-matrix: every nonzero signing of them leaves a unisigned column, one
    with a nonzero entry and no two of opposite sign (``_l_matrix_rows``).
    A negative or non-integer cap raises DomainError, and sizes above the
    ``is_sns`` cap of 10 raise ResourceExhausted.  Returns (0, (), ()) for
    the zero pattern."""
    _check_integer(cap, "sns_cap", 0)
    return _sns_scan(A, min(cap, term_rank(A)))


def _sns_scan(A: SignPattern, upper: int):
    """``max_sns_submatrix`` over k <= ``upper``, a bound that already
    includes the term rank of A, so a caller holding it does not recount.

    A k x k SNS block has at least (k - 1)(k - 2) / 2 zeros (Gibson, Proc.
    AMS 27, 1971: at most (k^2 + 3k - 2) / 2 nonzeros), so a size needing
    more zeros than A has is skipped; on a zero-free pattern only k <= 2
    is scanned."""
    if upper > _SNS_CAP:
        raise ResourceExhausted(f"SNS scan capped at k <= {_SNS_CAP}, got {upper}")
    rows = [(_mask(row, _PLUS_BIT), _mask(row, _MINUS_BIT)) for row in A.entries]
    zeros = A.count_zeros()
    for k in range(upper, 0, -1):
        if (k - 1) * (k - 2) // 2 <= zeros:
            for chosen, unisigned, count in _l_matrix_rows(rows, A.n, k):
                cols = _first_cover(unisigned, count, A.n, k)
                if cols is not None:
                    return (k, chosen, cols)
    return (0, (), ())


def _spread(count: int, w: int) -> int:
    """Bit 0 of each of ``count`` slots of w bits."""
    return ((1 << w * count) - 1) // ((1 << w) - 1)


def _each_slot(x: int, cols: int, ones: int, w: int) -> bool:
    """Has every slot of x (``ones`` = its slots' bits 0) a bit among the
    spread columns ``cols``?  Setting each slot's top bit, which no column
    reaches, and subtracting 1 from each slot clears that bit exactly in
    the slots that were zero."""
    guard = ones << w - 1
    return ((x & cols | guard) - ones) & guard == guard


def _l_matrix_rows(rows: list, n: int, k: int):
    """Yield every k-row L-matrix set of the pattern in lexicographic order,
    as (rows, unisigned, count): the row indices as a tuple, and its
    signings' unisigned columns packed into ``count`` slots.  ``rows``
    holds each row's (+ mask, - mask) over its n columns.

    A signing of some rows is held as two column masks: p ORs the + masks
    of the rows signed + and the - masks of the rows signed -, q the other
    way round, so p ^ q are its unisigned columns (nonzero, with no two
    entries of opposite sign).  Row sets are walked depth-first in
    lexicographic order, carrying every nonzero signing of the current
    ones, first nonzero row signed +.  A signing with p == q leaves no
    unisigned column on any superset, so it prunes the subtree; a k-row
    set that is reached is an L-matrix over all columns.

    The signings are packed into one integer, one per slot of w = 2n + 1
    bits holding p | q << n, so that a new row signs all of them both ways
    with two ORs, and each test covers every slot at once (``_each_slot``).
    A k-row set has (3^k - 1) / 2 slots."""
    m = len(rows)
    w = 2 * n + 1
    full = (1 << n) - 1
    chosen = []

    def walk(start: int, signs: int, count: int):
        # a row adds 2 count + 1 signings: alone (+), then + and - after each old one
        ones, added_ones = _spread(count, w), _spread(2 * count + 1, w)
        low = full * added_ones
        for r in range(start, m - k + len(chosen) + 1):
            plus, minus = rows[r]
            pos, neg = plus | minus << n, minus | plus << n
            added = pos | (signs | pos * ones) << w | (signs | neg * ones) << w * (count + 1)
            if not _each_slot(added ^ added >> n, low, added_ones, w):
                continue
            chosen.append(r)
            grown = signs | added << w * count
            if len(chosen) < k:
                yield from walk(r + 1, grown, 3 * count + 1)
            else:
                yield tuple(chosen), grown ^ grown >> n, 3 * count + 1
            chosen.pop()

    return walk(0, 0, 0)


def _first_cover(unisigned: int, count: int, n: int, k: int):
    """The lexicographically first k of the n columns meeting every one of
    the ``count`` slots of ``unisigned`` (packed as in ``_l_matrix_rows``),
    as a tuple, or None."""
    w = 2 * n + 1
    full = (1 << n) - 1
    ones = _spread(count, w)

    def pick(start: int, taken: int, left: int):
        for c in range(start, n - left + 1):
            # taken and every column from c on: if they miss a slot, so
            # does every later choice
            if not _each_slot(unisigned, (taken | full >> c << c) * ones, ones, w):
                return None
            if left > 1:
                found = pick(c + 1, taken | 1 << c, left - 1)
                if found is not None:
                    return found
            elif _each_slot(unisigned, (taken | 1 << c) * ones, ones, w):
                return taken | 1 << c
        return None

    taken = pick(0, 0, k)
    return None if taken is None else tuple(j for j in range(n) if taken >> j & 1)


class Mr2Result(NamedTuple):
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
    component + and propagating the forced parities (``_propagate_signs``)
    finds the first valid d in (+, -) order, or a contradiction.  No two
    signed rows and no two signed columns of a condensed pattern are
    equal, so along a valid arrangement the line sums strictly increase
    and each order is the one sort by sums.  Each row is held as bitmasks
    of its +, - and 0 columns, so a pair test is a few integer operations
    and the whole decision runs in pure Python.
    """
    m, n = C.m, C.n
    c = (1,) * n if identity_only else _row_pinned_signature(C)
    T = [tuple(map(operator.mul, row, c)) for row in C.entries]
    # row a of T as bitmasks of its + columns, its - columns and its zeros
    pos = [_mask(row, _PLUS_BIT) for row in T]
    neg = [_mask(row, _MINUS_BIT) for row in T]
    zero = [(1 << n) - 1 & ~(p | q) for p, q in zip(pos, neg)]

    # T_a - T_b is > 0 where a has + over a 0 or -, or 0 over a -, and < 0
    # the other way round; having both makes rows a and b incomparable.
    # T_a + T_b is the same test with b's + and - masks swapped.
    adjacent = [[] for _ in range(m)]  # (b, +1 equal or -1 opposite signs)
    forced = []
    for a in range(m):
        pa, na, za = pos[a], neg[a], zero[a]
        for b in range(a + 1, m):
            pb, nb, zb = pos[b], neg[b], zero[b]
            same = not ((pa & ~pb) | (za & nb)) or not ((pb & ~pa) | (zb & na))
            opposite = not identity_only and (
                not ((pa & ~nb) | (za & pb)) or not ((nb & ~pa) | (zb & na)))
            if same != opposite:
                p = 1 if same else -1
                adjacent[a].append((b, p))
                adjacent[b].append((a, p))
                forced.append((a, b, p))
            elif not same:
                return None
    d = _propagate_signs([0] * m, adjacent.__getitem__)
    if any(d[a] * d[b] != p for a, b, p in forced):
        return None
    S = [row if s > 0 else tuple([-x for x in row]) for row, s in zip(T, d)]
    row_sums = list(map(sum, S))
    col_sums = list(map(sum, zip(*S)))
    # sorted is stable, as the sort by sums must be for equal sums
    row_order = sorted(range(m), key=row_sums.__getitem__)
    col_order = sorted(range(n), key=col_sums.__getitem__)
    return EquivalenceWitness(
        row_perm=tuple(row_order),
        col_perm=tuple(col_order),
        row_signs=tuple([d[i] for i in row_order]),
        col_signs=tuple([c[j] for j in col_order]),
    )


# the binary digit each sign sets in a row's +, - and 0 masks
_PLUS_BIT = {1: "1", 0: "0", -1: "0"}
_MINUS_BIT = {1: "0", 0: "0", -1: "1"}
_ZERO_BIT = {1: "0", 0: "1", -1: "0"}


def _mask(row: tuple, bit: dict) -> int:
    """The bitmask with bit j set where ``bit[row[j]]`` is "1" (0 for an
    empty row)."""
    return int("".join(map(bit.__getitem__, reversed(row))) or "0", 2)


def check_search_budget(params: "SearchParams") -> None:
    """Refuse a non-integer or negative search budget or seed before any
    search starts, and so before the search loads numpy."""
    for what in ("restarts", "iters", "seed"):
        _check_integer(getattr(params, what), what, 0)


class SearchParams(NamedTuple):
    """Search budget: restarts and the seed (>= 0) they derive from;
    ``direct`` pins identity signatures.  ``iters`` caps the one descent
    that each restart runs (0 means no descent) before it polishes the zeros
    once and checks the signs once.  The descent stops before the cap once
    its signs are cleared or its penalty stalls (``kernels.descent``), so
    raising ``iters`` changes only restarts that reach the cap.  A result is
    accepted at the fixed thresholds ``realize.DEFAULT_MARGIN`` and
    ``exactnum.DEFAULT_ZERO_TOL``.

    ``threads`` is ignored: restarts run one after another.  It is kept only
    so that existing callers that pass it keep working."""

    restarts: int = 64
    iters: int = 5000
    seed: int = 0
    threads: int = 1
    direct: bool = False


def search_realization(A: SignPattern, r: int, params: Optional[SearchParams] = None):
    """A rank-r sign realization (an ``exactnum.Realization``) of the
    condensed pattern of A, or None.

    r = 1 and r = 2 are decided exactly, without numpy: None proves that no
    realization exists (in direct mode: none with identity signatures), and
    ``restarts``, ``iters`` and ``seed`` are only checked.  A 1x1 condensed
    pattern [s] (mr = 1) has the closed forms U = V = [[1]] at r = 1, whose
    product + matches s only up to signature (so direct mode needs s = +),
    and U = [[1, s - 1]], V = [[1], [1]] at r = 2, whose product is s.  At
    r = 2 a pattern with mr = 2 is realized from the monotone arrangement of
    ``is_mr2``, or in direct mode from the identity-signed one, which may not
    exist.  Every other pattern has mr > r.

    For r >= 3 the randomized penalty search of ``realize`` runs its restarts
    in order: restart k draws its generator from seed XOR k, and the first
    one that succeeds is returned, so a fixed seed gives a bit-identical
    result.  Failure there returns None and is always inconclusive (it
    never certifies that no realization exists).
    """
    params = params or SearchParams()
    check_search_budget(params)
    _check_integer(r, "rank", 1)
    from .exactnum import Realization

    mr2 = is_mr2(A) if r == 2 else None
    C = (condense(A) if mr2 is None else mr2.condensation).condensed
    if C.m == 0:
        return Realization(r, (), ((),) * r)
    if r >= 3:
        from . import realize

        return realize._search(C, r, params)
    if C.m == 1 and C.n == 1:
        s = C.entries[0][0]
        if r == 2:
            return Realization(2, ((1.0, s - 1.0),), ((1.0,), (1.0,)))
        return None if params.direct and s < 0 else Realization(1, ((1.0,),), ((1.0,),))
    if mr2 is None or not mr2.value:
        return None
    witness = _monotone_arrangement(C, identity_only=True) if params.direct else mr2.witness
    return None if witness is None else _realization_from_arrangement(C, witness)


def _realization_from_arrangement(C: SignPattern, witness):
    """Exact rank-2 realization from a monotone arrangement of C (an
    ``is_mr2`` witness, or an identity-signed one for direct mode).

    The witness's row signs d and column signs c turn C into S = d C c,
    whose rows are nondecreasing in the witness's column order.  The column
    at arranged position q gets v = q + 1.  A row with k minus entries and
    z zeros (0 or 1) crosses at k + 1 if z = 1, else between k and k + 1,
    so u = -(k + (1 + z) / 2), exact in float, and the products v_j + u_i
    realize S.  Like every search result, the product's own signs carry
    the signature."""
    from .exactnum import Realization

    d = dict(zip(witness.row_perm, witness.row_signs))
    c = dict(zip(witness.col_perm, witness.col_signs))
    S = SignPattern._trusted(
        tuple(tuple([d[i] * C.entries[i][j] * c[j] for j in range(C.n)]) for i in range(C.m)),
        C.m, C.n,
    )
    v = [0.0] * C.n
    for pos, j in enumerate(witness.col_perm):
        v[j] = pos + 1.0
    U = [[1.0, -(row.count(-1) + (1 + row.count(0)) / 2)] for row in S.entries]
    real = Realization(2, U, [v, [1.0] * C.n])
    if real.signed_pattern() != S:
        raise AssertionError("internal error: rank-2 witness failed validation")
    return real


class DirectRepresentation(NamedTuple):
    status: str  # "yes", "no", "unknown"
    witness: object  # an exactnum.Realization, or None


def has_direct_representation(A: SignPattern, r: int) -> DirectRepresentation:
    """Can the minimum-rank normal form be reached without signatures?

    The search runs with the normal form held (``SearchParams(direct=True)``,
    its default budget).  r = 1 and r = 2 are exact, as the search is there:
    no realization means no, and so does one with fewer than r condensed
    rows or columns, since then mr < r.  At r = 2 the witness is built from
    the identity-signed monotone arrangement of the condensed pattern.  For
    r >= 3 an ``mr_bounds`` upper bound below r means no, without a search;
    a realization means yes if the lower bound is r, else unknown, as does
    exhaustion (never a proof of no).
    """
    bounds = mr_bounds(A) if _check_integer(r, "rank", 1) >= 3 else None
    if bounds and bounds.upper < r:
        return DirectRepresentation("no", None)
    found = search_realization(A, r, SearchParams(direct=True))
    if found is not None and (bounds.lower if bounds else min(len(found.U), len(found.V[0]))) >= r:
        return DirectRepresentation("yes", found)
    return DirectRepresentation("no" if r <= 2 else "unknown", None)


class MrBoundsOptions(NamedTuple):
    """The SNS cap, and the rank and budget of an optional search."""

    sns_cap: int = 4
    try_rank: Optional[int] = None
    search: SearchParams = SearchParams()


class MrBounds(NamedTuple):
    lower: int
    upper: int
    evidence: tuple

    def reason(self, side: str) -> str:
        """The text of the last ``side`` ("lower" or "upper") or "exact"
        record at that bound's value, else "none": ``mr_bounds`` records the
        most specific evidence last."""
        if side not in ("lower", "upper"):
            raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
        value = self.lower if side == "lower" else self.upper
        return next((text for kind, v, text in reversed(self.evidence)
                     if kind in (side, "exact") and v == value), "none")


def mr_bounds(A: SignPattern, options: Optional[MrBoundsOptions] = None) -> MrBounds:
    """Best lower and upper bounds on the minimum rank from every available
    test.  ``evidence`` is a tuple of (kind, value, description) records,
    kind in {"lower", "upper", "exact", "note"}, one per test that ran."""
    opts = options or MrBoundsOptions()
    _check_integer(opts.sns_cap, "sns_cap", 0)
    check_search_budget(opts.search)
    if opts.try_rank is not None:
        _check_integer(opts.try_rank, "try_rank", 1)
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
        found = search_realization(C, rank, opts.search)
        if found is not None:
            evidence.append(("upper", found.r, f"numerical realization at rank {found.r}"))
            upper = min(upper, found.r)
        else:
            evidence.append(("note", None, f"no rank-{rank} realization found (inconclusive)"))

    return MrBounds(lower, upper, tuple(evidence))
