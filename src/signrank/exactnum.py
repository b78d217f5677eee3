"""Exact rational certificates and the realization class, built on the
exact scalars of ``scalars``.

A :class:`RationalCertificate` is an exact rational matrix with the target's
signs, its factors and its exact rank (``rational_rank``).  ``rationalize``
builds one from a floating realization by rounding its factors to a dyadic
grid (multiples of 2^-32, then of 2^-64: one denominator per cap) and
solving the zero constraints exactly; its hot path runs on integers (the
factors' numerators over 2^t, integer zero solves, signs of integer dot
products), and ``save_certificate`` writes the indent-1 JSON text in one
pass.  ``rational_round``, the best approximation under a denominator cap,
is public but not on that path.  No numpy:
certificates load and verify without it, and a :class:`Realization` (the
normal-form factor pair, as tuples of float rows) is read, checked
(``read_realization``), multiplied out and rationalized without it too.
This module imports neither the deciders of ``pattern`` nor the search:
``rationalize`` reads its pattern through ``core``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction
from numbers import Real
from typing import Optional, Sequence

from .core import (CondensationReport, SignPattern, _check_integer, _propagate_signs, _Record,
                   condense, signature_between)
from .errors import DomainError, Overdetermined, PrecisionExhausted, SingularSystem
from .scalars import (
    MAX_RADICAL,
    QuadElem,
    Rational,
    _as_fraction,
    _integral,
    _ratios,
    check_radical,
    format_rational,
    format_scalar,
    parse_integer,
    parse_rational,
    parse_scalar,
    quad_sign,
    root_sign,
)

# the scalars' names that are also looked up here, by callers that import
# them from exactnum
__all__ = ["MAX_RADICAL", "QuadElem", "Rational", "check_radical", "format_rational",
           "format_scalar", "parse_integer", "parse_rational", "parse_scalar", "quad_sign",
           "root_sign"]


def rational_round(x: float, max_denominator: int) -> Fraction:
    """Best rational approximation of ``x`` with denominator <= max_denominator.

    The integer continued fraction of x = n/d (x read exactly by
    ``_as_fraction``) runs until the next convergent's denominator would
    pass the cap; the answer is then the last convergent p1/q1 or the
    semiconvergent below the cap, whichever is closer to x.  A tie goes to
    p1/q1, the smaller denominator (at cap 1 both are 1, and p1/q1 is the
    floor of x).  This is ``Fraction.limit_denominator``'s algorithm and tie
    rule, with the distances compared in int.
    """
    if max_denominator < 1:
        raise DomainError(f"max_denominator must be >= 1, got {max_denominator}")
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


# ---------------------------------------------------------------------------
# Exact rational certificates


class RationalCertificate(_Record):
    """Exact rational matrix whose signs equal the target pattern, plus its
    exact rank: a machine-checkable witness that the rational minimum rank
    is at most that rank.

    ``factors`` = (U, V) are exact rational factors with U V == matrix; the
    rank is then proven from them (``_factored_rank``).  A certificate
    without them, as files written before they were stored are, is checked
    by eliminating the matrix itself.  ``matrix`` and the factors are
    tuples of tuples of Fraction."""

    __slots__ = ("matrix", "rank", "target", "factors")

    def __init__(self, matrix: tuple, rank: int, target: SignPattern,
                 factors: Optional[tuple] = None):
        if factors is not None:
            U, V = factors
            if (len(U) != len(matrix) or any(len(row) != len(V) for row in U)
                    or any(len(row) != target.n for row in V)):
                raise DomainError("certificate factors have inconsistent shapes")
        self._set(matrix, _check_integer(rank, "certificate rank", 0), target, factors)

    def verify(self) -> bool:
        """Three independent checks: the matrix's signs are the target's,
        U V == matrix, and the claimed rank is the matrix's.  Entries may be
        any rational number ``_ratios`` reads (int, float, Fraction, a numpy
        integer); a non-finite float fails."""
        try:
            ratios = [_ratios(row) for row in self.matrix]  # read once for both checks
            numerators = (map(operator.itemgetter(0), row) for row in ratios)
            if _sign_pattern(numerators) != self.target.entries:
                return False
            if self.factors is None:
                return rational_rank(self.matrix) == self.rank
            U, V = self.factors
            return (_product_equals(U, V, ratios)
                    and _factored_rank(U, V, self.matrix) == self.rank)
        except (OverflowError, ValueError):  # inf or nan: no exact value
            return False

    def to_dict(self) -> dict:
        def text(M):
            return [[format_rational(p, q) for p, q in _ratios(row)] for row in M]

        doc = {
            "rank": self.rank,
            "target": self.target.lines(),
            "matrix": text(self.matrix),
        }
        if self.factors is not None:
            doc["U"], doc["V"] = (text(F) for F in self.factors)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RationalCertificate":
        def exact(M):
            return tuple(tuple(parse_rational(v) for v in row) for row in M)

        try:
            factors = None
            if "U" in doc or "V" in doc:
                factors = (exact(doc["U"]), exact(doc["V"]))
            target = SignPattern(doc["target"])
            rank = parse_integer(doc["rank"], "'rank'", 0)
            return cls(exact(doc["matrix"]), rank, target, factors)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed certificate document: {exc}") from None


def load_certificate(path) -> RationalCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        return RationalCertificate.from_dict(json.load(fh))


def save_certificate(cert: RationalCertificate, path) -> None:
    """Write the text of ``json.dump(cert.to_dict(), fh, indent=1)`` and a
    newline, built in one pass from each entry's integer ratio (json's
    indented encoder is its pure-Python one) before the file is opened, so
    an entry that cannot be written leaves an existing file as it was."""
    def text(M):  # an entry's JSON is format_rational's: the int p, or the string "p/q"
        return _indented([_indented([str(p) if q == 1 else f'"{p}/{q}"' for p, q in _ratios(row)], 2)
                          for row in M], 1)

    doc = {"rank": json.dumps(cert.rank),
           "target": _indented([json.dumps(line) for line in cert.target.lines()], 1),
           "matrix": text(cert.matrix)}
    if cert.factors is not None:
        doc["U"], doc["V"] = map(text, cert.factors)
    body = _indented([f'"{key}": {value}' for key, value in doc.items()], 0, "{}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body + "\n")


def _indented(items: list, depth: int, brackets: str = "[]") -> str:
    """The text of json's indent=1 layout for a list (or, with brackets
    "{}", an object) at nesting ``depth``, from its items' texts."""
    if not items:
        return brackets
    sep = ",\n" + " " * (depth + 1)
    return brackets[0] + sep[1:] + sep.join(items) + "\n" + " " * depth + brackets[1]


def _bareiss_echelon(M):
    """Fraction-free row echelon form (Bareiss, Math. Comp. 22, 1968).

    Each row is first scaled to integers (``_integral``); the returned
    integer rows are linear combinations of the input rows with the same row
    space, so an augmented system keeps its solutions.  ``pivots`` holds the
    pivot column of each leading row; pivoting scans for any nonzero entry,
    so degenerate inputs are handled exactly."""
    work = [line for line, _ in _integral(M)]
    m = len(work)
    n = len(work[0]) if work else 0
    pivots = []
    prev = 1
    for pc in range(n):
        pr = len(pivots)
        if pr == m:
            break
        piv = next((i for i in range(pr, m) if work[i][pc] != 0), None)
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        top = work[pr]
        p = top[pc]
        for i in range(pr + 1, m):
            row = work[i]
            a = row[pc]
            row[pc + 1:] = [(p * x - a * y) // prev for x, y in zip(row[pc + 1:], top[pc + 1:])]
            row[pc] = 0
        prev = p
        pivots.append(pc)
    return work, pivots


def rational_rank(M) -> int:
    """Exact rank: the pivot count of the fraction-free echelon form."""
    return len(_bareiss_echelon(M)[1])


def _factored_rank(U, V, matrix) -> int:
    """Exact rank of ``matrix`` == U V, with r = len(V) inner dimensions.

    The shapes give rank <= r and Sylvester's inequality gives rank(U V) >=
    rank U + rank V - r, so factors both of rank r prove rank r: from a
    nonzero leading r x r minor of each factor (the first r rows of U, the
    first r columns of V), else elimination of the factor.  Only a
    rank-deficient factor falls back to eliminating the matrix."""
    r = len(V)
    if _full_rank(U, r) and _full_rank(list(zip(*V)), r):
        return r
    return rational_rank(matrix)


def _full_rank(lines, r: int) -> bool:
    """Whether the lines span r dimensions: a nonsingular leading r x r
    block proves it with one small elimination."""
    return rational_rank(lines[:r]) == r or rational_rank(lines) == r


def _product_equals(U, V, ratios) -> bool:
    """U V == the matrix whose rows' ``_ratios`` are given, over Q, with no
    Fraction built: entry (i, j) of U V is the integer dot product over
    lu * lv (``_integral``), so it equals p/q exactly when dot * q == p *
    lu * lv."""
    rows, cols = _integral(U), _integral(zip(*V))
    return [len(line) for line in ratios] == [len(cols)] * len(rows) and all(
        sum(map(operator.mul, u, v)) * q == p * lu * lv
        for (u, lu), line in zip(rows, ratios)
        for (v, lv), (p, q) in zip(cols, line)
    )


def _sign_pattern(rows) -> tuple:
    """The signs of rows of integers (a matrix's numerators: denominators
    are positive) as a tuple of tuples of -1/0/1."""
    return tuple(tuple([(p > 0) - (p < 0) for p in row]) for row in rows)


# ---------------------------------------------------------------------------
# Float realizations, read without numpy

# |b| <= DEFAULT_ZERO_TOL reads as a zero of a float product
DEFAULT_ZERO_TOL = 1e-9

_PLAIN_NUMBERS = frozenset({int, float})


def _float_rows(M) -> tuple:
    """M, rows of real numbers (a numpy array is read through its
    ``tolist()``), as a tuple of float rows.  A bool, a string or any other
    value names no entry of a factor."""
    if hasattr(M, "tolist"):
        M = M.tolist()
    if not isinstance(M, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in M):
        raise DomainError("realization factors have inconsistent shapes")
    # plain ints and floats, all that JSON gives, skip the slower test
    if not _PLAIN_NUMBERS.issuperset(map(type, itertools.chain.from_iterable(M))):
        for x in itertools.chain.from_iterable(M):
            if isinstance(x, bool) or not isinstance(x, Real):
                raise DomainError(f"realization entries must be numbers, got {x!r}")
    try:
        rows = tuple(tuple(map(float, row)) for row in M)
        finite = all(map(math.isfinite, itertools.chain.from_iterable(rows)))
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise DomainError("realization factors must be finite")
    return rows


class Realization(_Record):
    """Normal-form factor pair witnessing a rank-r sign realization, as
    tuples of float rows: U is m x r with first column exactly ones (its
    rows are points of R^(r-1)), V is r x n with last row exactly ones (its
    columns are hyperplanes).

    Building one is the one check of a realization: r is an integer >= 1,
    every entry a finite real number (not a bool or a string), the shapes
    agree and the normal form holds.  The factors may be given as numpy
    arrays, as the search gives them; they are kept as rows all the same.
    The product is computed in pure Python, so a realization is read,
    checked and rationalized without numpy."""

    __slots__ = ("r", "U", "V")

    def __init__(self, r, U, V):
        r = _check_integer(r, "realization rank 'r'", 1)
        U, V = _float_rows(U), _float_rows(V)
        n = len(V[0]) if V else 0
        if len(V) != r or any(len(row) != n for row in V) or any(len(row) != r for row in U):
            raise DomainError("realization factors have inconsistent shapes")
        if any(row[0] != 1.0 for row in U):
            raise DomainError("realization violates normal form: U's first column must be ones")
        if any(x != 1.0 for x in V[-1]):
            raise DomainError("realization violates normal form: V's last row must be ones")
        self._set(r, U, V)

    def _products(self):
        """The entries of U V, row by row, each summed in coordinate order."""
        cols = list(zip(*self.V))
        return ([sum(map(operator.mul, u, v)) for v in cols] for u in self.U)

    def signed_pattern(self) -> SignPattern:
        """The signs of U V: 0 within ``DEFAULT_ZERO_TOL`` of zero, and a
        NaN (an overflowed product) reads as -."""
        entries = tuple(
            tuple([0 if abs(b) <= DEFAULT_ZERO_TOL else (1 if b > 0 else -1) for b in row])
            for row in self._products()
        )
        return SignPattern._trusted(entries, len(self.U), len(self.V[0]))

    def margin(self) -> float:
        """The least |b| of U V beyond ``DEFAULT_ZERO_TOL``; inf if none."""
        return min((b for row in self._products() for b in map(abs, row) if b > DEFAULT_ZERO_TOL),
                   default=math.inf)

    def transpose(self) -> "Realization":
        """Realization of the transposed pattern: U' = V^T and V' = U^T with
        the first and last inner coordinates exchanged, which keeps the ones
        where the normal form puts them."""
        r = self.r
        idx = [r - 1, *range(1, r - 1), 0] if r >= 2 else [0]
        U_cols = list(zip(*self.U)) or [()] * r
        return Realization(r, tuple(tuple([v[k] for k in idx]) for v in zip(*self.V)),
                           tuple(U_cols[k] for k in idx))

    def to_dict(self) -> dict:
        return {"r": self.r, "U": [list(row) for row in self.U],
                "V": [list(row) for row in self.V]}

    @classmethod
    def from_dict(cls, doc) -> "Realization":
        return read_realization(doc)


def read_realization(doc) -> Realization:
    """The realization a JSON document {"r": r, "U": rows, "V": rows} holds,
    checked by ``Realization``; "U": [] is the 0 x r factor."""
    if not isinstance(doc, dict):
        raise DomainError(f"a realization document must be a JSON object, got {type(doc).__name__}")
    try:
        r, U, V = doc["r"], doc["U"], doc["V"]
    except KeyError as exc:
        raise DomainError(f"malformed realization document: missing {exc}") from None
    return Realization(parse_integer(r, "realization rank 'r'", 1), U, V)


def load_realization(path) -> Realization:
    with open(path, "r", encoding="utf-8") as fh:
        return read_realization(json.load(fh))


def save_realization(real: Realization, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(real.to_dict(), fh)
        fh.write("\n")


def _round_matrix(M, t: int) -> list:
    """Each entry rounded to the nearest multiple of 2^-t, ties to even, as
    its integer numerator over 2^t: the lines of a cap share the one
    denominator 2^t.  The rounding runs on each entry's integer ratio
    (``_ratios``), so no float overflows, and a normal form's pinned ones
    are exact (2^t over 2^t)."""
    out = []
    for row in M:
        line = []
        for p, q in _ratios(row):
            n, rem = divmod(p << t, q)
            if 2 * rem > q or (2 * rem == q and n & 1):
                n += 1
            line.append(n)
        out.append(line)
    return out


def rationalize(A: SignPattern, real) -> RationalCertificate:
    """Upgrade a floating realization (read only through its r, U, V,
    ``signed_pattern()`` and ``transpose()``) to an exact rational certificate.

    Works on the condensed pattern, where every column must carry at most
    r-1 zeros.  If some column carries more but every row carries at most
    r-1, the rows are used instead, since mr(A) = mr(A^T): A^T is certified
    from ``real.transpose()`` and the certificate is transposed back.  If
    neither fits, Overdetermined names the first over-full column of the
    original pattern.

    The signature is read off a spanning forest of the condensed pattern's
    nonzero cells (``_forest_signature``: one float product per line, not
    all m n).  Every entry of U and V is rounded to the nearest multiple of
    2^-t, ties to even (``_round_matrix``: the dyadic grid of cap t = 32,
    then of t = 64), and U is kept as rounded: no point is moved.  The
    rounding is exact, so a float on the grid keeps its value, and the
    whole cap shares the one denominator 2^t.  Each column that carries
    zeros is then solved exactly through its zero rows
    (``solve_zero_columns``, on U's rows as their integer numerators over
    2^t): the coordinates its echelon form pivots on are solved, the others
    keep their rounded values.  A cap at which some column cannot pass
    through its rounded zero rows (SingularSystem), or whose exact product
    has the wrong signs, gives way to the next cap; PrecisionExhausted
    follows 2^64.  No random numbers are drawn.  The exact factors are
    expanded back to the shape of the original pattern.  The signs are
    checked on the integer products of their lines scaled to integers
    (``_integral``), before the matrix is built: only a cap that passes
    builds its Fractions.  The certificate stores the factors with their
    product and its exact rank, proven from them.

    Only when every cap fails are all signs of the float product checked
    (``signature_between``): a product that does not realize the pattern
    then raises DomainError, never PrecisionExhausted.  So a product that
    misreads a sign within rounding, but whose rounded factors pass a cap,
    is certified: the certificate's exact signs are the pattern's.
    """
    report = condense(A)
    C = report.condensed
    r = real.r
    m, n = len(real.U), len(real.V[0])
    if m != C.m or n != C.n:
        raise DomainError(
            f"realization is {m}x{n}, "
            f"but the condensed pattern is {C.m}x{C.n}"
        )
    zeros = [col.count(0) for col in zip(*C.entries)]
    over = next((j for j, s in enumerate(zeros) if s > r - 1), None)
    if over is not None:
        if any(row.count(0) > r - 1 for row in C.entries):
            raise Overdetermined(report.kept_cols[over], zeros[over], r - 1)
        cert = rationalize(A.transpose(), real.transpose())
        U, V = cert.factors
        return RationalCertificate(
            tuple(zip(*cert.matrix)), cert.rank, A, (tuple(zip(*V)), tuple(zip(*U)))
        )

    d1, d2 = _forest_signature(C, real)
    for t in (32, 64):
        cap = 1 << t
        Ui = _round_matrix(real.U, t)  # each solve eliminates some of these rows
        Ur = [[Fraction(x, cap) for x in row] for row in Ui]
        columns = [[Fraction(x, cap) for x in col] for col in zip(*_round_matrix(real.V, t))]
        try:
            for j, s in enumerate(zeros):
                if s:
                    columns[j] = solve_zero_columns(Ui, C, j, columns[j])
        except SingularSystem:
            pass
        else:
            U = _expand_lines(Ur, d1, report, "row", r)
            V = tuple(zip(*_expand_lines(columns, d2, report, "col", r)))
            # entry (i, j) of U V is dot / (lu lv) with lu, lv > 0 (``_integral``),
            # so its sign is the dot product's: the signs are checked in int and
            # the Fractions are built only for a cap that passes
            rows, cols = _integral(U), _integral(zip(*V))
            dots = [[sum(map(operator.mul, u, v)) for v, _ in cols] for u, _ in rows]
            if _sign_pattern(dots) == A.entries:
                full = tuple(
                    tuple(Fraction(dot, lu * lv) for dot, (_, lv) in zip(line, cols))
                    for line, (_, lu) in zip(dots, rows)
                )
                # the certificate's one exact rank; verify() stays the
                # independent check that callers run
                return RationalCertificate(full, _factored_rank(U, V, full), A, (U, V))
    # every cap failed: only now is every sign of the float product read,
    # and a product off the pattern is the input's fault, not the schedule's
    if signature_between(C, real.signed_pattern()) is None:
        raise DomainError(
            "realization does not realize the pattern (no signature carries "
            "its product signs onto the target)"
        )
    raise PrecisionExhausted(
        "denominator schedule exhausted at 2^64 without exact zeros and signs"
    )


def _forest_signature(C: SignPattern, real) -> tuple:
    """The signature (d1, d2) that ``signature_between(C, real.signed_pattern())``
    finds when the product realizes C, from a spanning forest of C's
    nonzero cells: the one propagation reads a cell's float product only
    when it is about to sign the far end, so m + n - (components) products
    are computed instead of m n.  Nothing is checked here."""
    E, U, cols = C.entries, real.U, list(zip(*real.V))
    m = len(E)
    sign = [0] * (m + len(cols))

    def ratio(i, j):  # C_ij times the sign of the float product, as signed_pattern reads it
        b = sum(map(operator.mul, U[i], cols[j]))
        return 0 if abs(b) <= DEFAULT_ZERO_TOL else (E[i][j] if b > 0 else -E[i][j])

    def neighbours(v):
        if 0 not in sign:  # every line is signed, mostly after the first two
            return ()
        if v < m:
            return ((m + j, ratio(v, j)) for j, c in enumerate(E[v]) if c and not sign[m + j])
        return ((i, ratio(i, v - m)) for i in range(m) if E[i][v - m] and not sign[i])

    _propagate_signs(sign, neighbours)
    return sign[:m], sign[m:]


def _expand_lines(lines, signs, report: CondensationReport, axis: str, width: int) -> tuple:
    """A factor's lines for every original row (axis "row") or column
    ("col") from its condensed lines: kept line p becomes signs[p] *
    lines[p], a deleted duplicate copies its survivor, an opposite negates
    it, and a zero line is zero.  Survivors are always earlier lines, so
    one pass in index order follows every chain in the deletion log."""
    kept = report.kept_rows if axis == "row" else report.kept_cols
    position = {orig: pos for pos, orig in enumerate(kept)}
    deleted = {e.index: e for e in report.log if e.axis == axis}
    out = []
    for idx in range(len(kept) + len(deleted)):
        if idx in position:
            p = position[idx]
            line, negate = lines[p], signs[p] < 0
        else:
            event = deleted[idx]
            if event.kind == "zero":
                line, negate = (Fraction(0),) * width, False
            else:
                line, negate = out[event.survivor], event.kind == "opposite"
        out.append(tuple(-x for x in line) if negate else tuple(line))
    return tuple(out)


def solve_zero_columns(U, A: SignPattern, j: int, column: Sequence) -> tuple:
    """Column j of V, given as its r entries (v_1j, ..., v_rj), with the
    entries that make the zero rows of column j vanish solved exactly.

    The zero rows of U are brought to fraction-free echelon form
    (``_bareiss_echelon``); the coordinates among the first r-1 that it
    pivots on are solved, and every other entry, v_rj included, is kept as
    given.  With the leading s x s block of the zero rows nonsingular, the
    solved entries are v_1j, ..., v_sj.  SingularSystem means that no column
    with this v_rj passes through the zero rows: a pivot lands on the last
    coordinate.  More than r-1 zero rows raise Overdetermined.

    Exact: every entry is read at its exact value (``_ratios``; a float at
    its exact binary value), the back-substitution runs over integers with
    one common denominator, and the r Fractions of the result are built at
    the end.  ``rationalize`` hands in U's rows as their integer numerators
    over the cap's one denominator 2^t; since the echelon form scales each
    row to integers first, rows given as integers or as their rational
    multiples solve alike.
    """
    ratios = _ratios(column)
    rows = [U[i] for i in range(A.m) if A.entries[i][j] == 0]
    r = len(ratios)
    if len(rows) > r - 1:
        raise Overdetermined(j, len(rows), r - 1)
    echelon, pivots = _bareiss_echelon(rows)
    if pivots and pivots[-1] == r - 1:
        raise SingularSystem(f"no column {j + 1} passes through its zero rows")
    # the column is y / den: row . y = 0 solves y_p = -(row[p+1:] . y[p+1:]) / a
    # for the pivot a = row[p], and multiplying den and the other y_k by a
    # keeps y integral
    den = math.lcm(*(q for _, q in ratios))
    y = [p * (den // q) for p, q in ratios]
    for row, p in reversed(list(zip(echelon, pivots))):
        a = row[p]
        solved = -sum(map(operator.mul, row[p + 1:], y[p + 1:]))
        y = [x * a for x in y]
        y[p] = solved
        den *= a
    return tuple([Fraction(x, den) for x in y])
