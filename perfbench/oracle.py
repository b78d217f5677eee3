"""Independent answers and checks for the benchmark.

Nothing here imports signrank: every result the program returns is checked
against code written separately, on plain tuples of -1/0/+1 and on exact
fractions.  The checks run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

import numpy as np

Pattern = tuple  # tuple of row tuples over -1/0/+1


def sgn(x) -> int:
    return (x > 0) - (x < 0)


def parse_pat(text: str) -> Pattern:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(tuple({"+": 1, "-": -1, "0": 0}[ch] for ch in line if not ch.isspace()))
    return tuple(rows)


def pat_text(A: Pattern) -> str:
    return "".join("".join({1: "+", -1: "-", 0: "0"}[v] for v in row) + "\n" for row in A)


def transpose(A: Pattern) -> Pattern:
    return tuple(zip(*A)) if A else ()


def submatrix(A: Pattern, rows, cols) -> Pattern:
    return tuple(tuple(A[i][j] for j in cols) for i in rows)


def condense_indices(A: Pattern):
    """Kept rows and columns under the documented rule: sweep rows top to
    bottom, then columns left to right, dropping zero lines and lines equal
    or opposite to an earlier kept line, until a sweep drops nothing."""
    rows = list(range(len(A)))
    cols = list(range(len(A[0]) if A else 0))
    changed = True
    while changed:
        changed = False
        kept, seen = [], set()
        for i in rows:
            v = tuple(A[i][j] for j in cols)
            neg = tuple(-x for x in v)
            if not any(v) or v in seen or neg in seen:
                changed = True
                continue
            seen.add(v)
            kept.append(i)
        rows = kept
        kept, seen = [], set()
        for j in cols:
            v = tuple(A[i][j] for i in rows)
            neg = tuple(-x for x in v)
            if not any(v) or v in seen or neg in seen:
                changed = True
                continue
            seen.add(v)
            kept.append(j)
        cols = kept
    if not rows or not cols:
        return [], []
    return rows, cols


def condensed(A: Pattern) -> Pattern:
    rows, cols = condense_indices(A)
    return submatrix(A, rows, cols)


def term_rank(A: Pattern) -> int:
    """Maximum matching on the nonzero cells (augmenting paths)."""
    m = len(A)
    n = len(A[0]) if A else 0
    owner = [-1] * n

    def augment(i, seen):
        for j in range(n):
            if A[i][j] and j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(1 for i in range(m) if augment(i, set()))


def _parity(perm) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def is_sns(S: Pattern) -> bool:
    """Sign nonsingular by expanding the determinant over all permutations."""
    n = len(S)
    found = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= S[i][j]
            if not prod:
                break
        if not prod:
            continue
        term = prod * _parity(perm)
        if found == 0:
            found = term
        elif term != found:
            return False
    return found != 0


def find_sns(A: Pattern, k: int):
    """First k x k SNS submatrix (rows, cols), or None.  Brute force."""
    m, n = len(A), len(A[0])
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            if is_sns(submatrix(A, rows, cols)):
                return rows, cols
    return None


_SNS_EVIDENCE = re.compile(r"SNS (\d+)x\d+ at rows ([\d,]+) / cols ([\d,]+)")


def check_sns_evidence(A: Pattern, text: str):
    """Re-check an 'SNS kxk at rows .. / cols ..' record (1-based indices
    into A).  Returns k, or raises ValueError."""
    match = _SNS_EVIDENCE.search(text)
    if not match:
        raise ValueError(f"unparsable SNS evidence {text!r}")
    k = int(match.group(1))
    rows = [int(v) - 1 for v in match.group(2).split(",")]
    cols = [int(v) - 1 for v in match.group(3).split(",")]
    if len(rows) != k or len(cols) != k or not is_sns(submatrix(A, rows, cols)):
        raise ValueError(f"SNS evidence does not hold: {text!r}")
    return k


def is_monotone_arrangement(C: Pattern, witness: dict) -> bool:
    """Apply a permutation/signature witness to C and test that every row
    and every column is nondecreasing (- before 0 before +)."""
    rp, cp = witness["row_perm"], witness["col_perm"]
    rs, cs = witness["row_signs"], witness["col_signs"]
    m, n = len(C), len(C[0])
    if sorted(rp) != list(range(m)) or sorted(cp) != list(range(n)):
        return False
    M = [[rs[i] * cs[j] * C[rp[i]][cp[j]] for j in range(n)] for i in range(m)]
    rows_ok = all(M[i][j] <= M[i][j + 1] for i in range(m) for j in range(n - 1))
    cols_ok = all(M[i][j] <= M[i + 1][j] for j in range(n) for i in range(m - 1))
    return rows_ok and cols_ok


def witness_maps(A: Pattern, B: Pattern, witness: dict) -> bool:
    """B[i][j] == row_signs[i] * col_signs[j] * A[row_perm[i]][col_perm[j]]."""
    rp, cp = witness["row_perm"], witness["col_perm"]
    rs, cs = witness["row_signs"], witness["col_signs"]
    m, n = len(A), len(A[0])
    if sorted(rp) != list(range(m)) or sorted(cp) != list(range(n)):
        return False
    return all(B[i][j] == rs[i] * cs[j] * A[rp[i]][cp[j]] for i in range(m) for j in range(n))


def signs_up_to_signature(B: np.ndarray, C: Pattern) -> bool:
    """Is sgn(B) = D1 C D2 for some diagonal sign matrices D1, D2?  Entries
    within 1e-9 of zero count as zero."""
    S = np.where(np.abs(B) <= 1e-9, 0, np.sign(B)).astype(int)
    T = np.array(C, dtype=int)
    if S.shape != T.shape or not np.array_equal(S == 0, T == 0):
        return False
    m, n = T.shape
    d1 = np.zeros(m, dtype=int)
    d2 = np.zeros(n, dtype=int)
    for start in range(m):
        if d1[start]:
            continue
        d1[start] = 1
        todo = [("r", start)]
        while todo:
            kind, idx = todo.pop()
            if kind == "r":
                for j in np.nonzero(T[idx])[0]:
                    need = S[idx, j] * T[idx, j] * d1[idx]
                    if d2[j] == 0:
                        d2[j] = need
                        todo.append(("c", j))
                    elif d2[j] != need:
                        return False
            else:
                for i in np.nonzero(T[:, idx])[0]:
                    need = S[i, idx] * T[i, idx] * d2[idx]
                    if d1[i] == 0:
                        d1[i] = need
                        todo.append(("r", i))
                    elif d1[i] != need:
                        return False
    d1[d1 == 0] = 1
    d2[d2 == 0] = 1
    return bool(np.array_equal(S, d1[:, None] * T * d2[None, :]))


def exact_certificate_rank(path, target: Pattern) -> int:
    """Read a certificate file, check its exact signs against the target
    and return its rank over QQ as sympy's DomainMatrix computes it."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    matrix = [[Fraction(str(v)) for v in row] for row in doc["matrix"]]
    if tuple(tuple(sgn(v) for v in row) for row in matrix) != target:
        raise ValueError("certificate signs differ from the target pattern")
    shape = (len(matrix), len(matrix[0]))
    rank = DomainMatrix([[QQ(v.numerator, v.denominator) for v in row] for row in matrix],
                        shape, QQ).rank()
    if rank != doc["rank"]:
        raise ValueError(f"certificate claims rank {doc['rank']}, sympy finds {rank}")
    return rank


# ---------------------------------------------------------------------------
# Exact planar geometry over Q(sqrt 5), elements as (a, b) = a + b*sqrt5


def q5_sign(a: Fraction, b: Fraction) -> int:
    if b == 0:
        return sgn(a)
    if a == 0:
        return sgn(b)
    if sgn(a) == sgn(b):
        return sgn(a)
    lhs, rhs = a * a, 5 * b * b
    if lhs == rhs:
        return 0
    return sgn(a) if lhs > rhs else sgn(b)


def q5_mul(x, y):
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q5_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def scalar(obj):
    """JSON scalar of a configuration file as an (a, b) pair."""
    if isinstance(obj, dict):
        return (Fraction(str(obj.get("r", 0))), Fraction(str(obj.get("s", 0))))
    return (Fraction(str(obj)), Fraction(0))


def encode(points, lines) -> Pattern:
    """Side of every point relative to every oriented line c0 + c.x = 0."""
    rows = []
    for p in points:
        row = []
        for h in lines:
            acc = h[0]
            for c, x in zip(h[1:], p):
                acc = q5_add(acc, q5_mul(c, x))
            row.append(q5_sign(*acc))
        rows.append(tuple(row))
    return tuple(rows)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    points = [tuple(scalar(x) for x in p) for p in doc["points"]]
    lines = [tuple(scalar(c) for c in h) for h in doc["hyperplanes"]]
    return points, lines


def encode_file(path) -> Pattern:
    return encode(*load_config(path))
