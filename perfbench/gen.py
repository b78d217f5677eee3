"""Seeded input generators.

Each generator takes a numpy Generator and returns plain data (patterns
as tuples of -1/0/+1 rows, configurations as exact (a, b) = a + b*sqrt5
pairs).  Validity conditions (non-degenerate, condensed where a consumer
needs it) are met by redrawing, never by looking at what the program does.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import oracle

A0 = oracle.parse_pat(
    "000----++\n0--00++--\n++++000++\n++0++++00\n0----0-+0\n"
    "0----+00-\n++00-0-++\n+0-+0++0-\n+0-0-+0+0\n"
)
A0_MIN_RANK = 3  # literature value; the SNS 3x3 at rows 4-6 / cols 7-9 proves >= 3


def _as_pattern(S) -> tuple:
    return tuple(tuple(int(v) for v in row) for row in S)


def rank2_planted(rng, m, n):
    """sign(u_i + v_j) for integers u, v: minimum rank 2, with zeros."""
    spread = max(2, min(m, n) // 2)
    while True:
        u = rng.integers(-spread, spread + 1, m)
        v = rng.integers(-spread, spread + 1, n)
        A = _as_pattern(np.sign(u[:, None] + v[None, :]))
        C = oracle.condensed(A)
        if len(C) >= 2 and len(C[0]) >= 2:
            return A


def zero_free_planted(rng, m, n, r):
    """Condensed m x n pattern sgn(U V) with Gaussian U (m x r), V (r x n)."""
    while True:
        B = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        A = _as_pattern(np.sign(B))
        rows, cols = oracle.condense_indices(A)
        if len(rows) == m and len(cols) == n:
            return A


def grid_incidence(rng, points, lines):
    """Points on a 4 x 4 integer grid and non-vertical lines through pairs
    of them; the pattern is the side of each point relative to each line,
    zero on incidences.  Redrawn until condensed."""
    size = 4
    while True:
        cells = rng.choice(size * size, points, replace=False)
        pts = [(int(c) // size, int(c) % size) for c in cells]
        found = set()
        for _ in range(50 * lines):
            if len(found) == lines:
                break
            a, b = rng.choice(points, 2, replace=False)
            (x1, y1), (x2, y2) = pts[a], pts[b]
            if x1 == x2:
                continue
            slope = Fraction(y2 - y1, x2 - x1)
            found.add((slope * x1 - y1, -slope))  # c0 + c1 x + y = 0
        if len(found) < lines:
            continue
        hyps = sorted(found)
        A = tuple(tuple(oracle.sgn(c0 + c1 * x + y) for c0, c1 in hyps) for x, y in pts)
        rows, cols = oracle.condense_indices(A)
        if len(rows) == points and len(cols) == lines:
            return A


def sparse_random(rng, m, n, density):
    while True:
        S = rng.choice((-1, 1), size=(m, n))
        S[rng.random((m, n)) < density] = 0
        A = _as_pattern(S)
        rows, cols = oracle.condense_indices(A)
        if len(rows) == m and len(cols) == n:
            return A


def planted_factors(rng, m, n, r, max_zeros):
    """Normal-form factors U (m x r, first column ones) and V (r x n, last
    row ones) with up to ``max_zeros`` <= r-1 planted zeros per column of
    U V, solved in floating point.  Returns (pattern, U, V) with the pattern
    condensed and the factors restricted to its lines."""
    while True:
        U = rng.standard_normal((m, r))
        U[:, 0] = 1.0
        V = rng.standard_normal((r, n))
        V[-1, :] = 1.0
        zero = np.zeros((m, n), dtype=bool)
        for j in range(n):
            s = int(rng.integers(0, max_zeros + 1))
            if s == 0:
                continue
            rows = np.sort(rng.choice(m, s, replace=False))
            M = U[rows][:, :s]
            rhs = -(U[rows][:, s:] @ V[s:, j])
            V[:s, j] = np.linalg.solve(M, rhs)
            zero[rows, j] = True
        B = U @ V
        if np.any(np.abs(B[~zero]) < 1e-6) or np.any(np.abs(B[zero]) > 1e-11):
            continue
        S = np.where(zero, 0, np.sign(B))
        A = _as_pattern(S)
        rows, cols = oracle.condense_indices(A)
        if len(rows) < r or len(cols) < r:
            continue
        return oracle.submatrix(A, rows, cols), U[rows], V[:, cols]


def with_redundant_lines(rng, A, extra):
    """A with zero, duplicate and opposite rows and columns mixed in."""
    rows = [list(r) for r in A]
    for _ in range(extra):
        kind = int(rng.integers(0, 3))
        src = rows[int(rng.integers(0, len(rows)))]
        new = [0] * len(src) if kind == 0 else (src if kind == 1 else [-v for v in src])
        rows.insert(int(rng.integers(0, len(rows) + 1)), list(new))
    cols = [list(c) for c in zip(*rows)]
    for _ in range(extra):
        kind = int(rng.integers(0, 3))
        src = cols[int(rng.integers(0, len(cols)))]
        new = [0] * len(src) if kind == 0 else (src if kind == 1 else [-v for v in src])
        cols.insert(int(rng.integers(0, len(cols) + 1)), list(new))
    return _as_pattern(zip(*cols))


def permuted_signed(rng, A, permute=True):
    """A copy of A under random row/column permutations and signatures."""
    m, n = len(A), len(A[0])
    rp = [int(v) for v in rng.permutation(m)] if permute else list(range(m))
    cp = [int(v) for v in rng.permutation(n)] if permute else list(range(n))
    rs = [int(v) for v in rng.choice((-1, 1), m)]
    cs = [int(v) for v in rng.choice((-1, 1), n)]
    return tuple(tuple(rs[i] * cs[j] * A[rp[i]][cp[j]] for j in range(n)) for i in range(m))


# ---------------------------------------------------------------------------
# Planar configurations over Q or Q(sqrt 5)


def _q5_inv(x):
    a, b = x
    norm = a * a - 5 * b * b
    return (a / norm, -b / norm)


def _q5(rng, with_sqrt):
    a = Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 4)))
    b = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 3))) if with_sqrt else Fraction(0)
    return (a, b)


def configuration(rng, points, lines, with_sqrt):
    """Planar configuration with non-vertical, rightward lines (last
    coefficient 1), about half of them through two of the points.  No point
    is the origin and no line passes through it (so it can be dualized),
    and the encoded pattern is condensed (so it can be stacked)."""
    while True:
        pts = []
        while len(pts) < points:
            p = (_q5(rng, with_sqrt), _q5(rng, with_sqrt))
            if p not in pts and any(oracle.q5_sign(*c) for c in p):
                pts.append(p)
        hyps = []
        for _ in range(50 * lines):
            if len(hyps) == lines:
                break
            if rng.random() < 0.5:
                a, b = rng.choice(points, 2, replace=False)
                (x1, y1), (x2, y2) = pts[a], pts[b]
                dx = oracle.q5_add(x2, (-x1[0], -x1[1]))
                if not oracle.q5_sign(*dx):
                    continue
                slope = oracle.q5_mul(oracle.q5_add(y2, (-y1[0], -y1[1])), _q5_inv(dx))
                sx = oracle.q5_mul(slope, x1)
                c0 = (sx[0] - y1[0], sx[1] - y1[1])
                h = (c0, (-slope[0], -slope[1]), (Fraction(1), Fraction(0)))
            else:
                h = (_q5(rng, with_sqrt), _q5(rng, with_sqrt), (Fraction(1), Fraction(0)))
            if oracle.q5_sign(*h[0]) and h not in hyps:
                hyps.append(h)
        if len(hyps) < lines:
            continue
        A = oracle.encode(pts, hyps)
        rows, cols = oracle.condense_indices(A)
        if len(rows) == points and len(cols) == lines:
            return pts, hyps


def _fmt(x):
    a, b = x

    def rat(q):
        return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    return rat(a) if b == 0 else {"r": rat(a), "s": rat(b)}


def configuration_json(pts, hyps, with_sqrt) -> str:
    doc = {"dim": 2, "points": [[_fmt(x) for x in p] for p in pts],
           "hyperplanes": [[_fmt(c) for c in h] for h in hyps]}
    if with_sqrt:
        doc["sqrt"] = 5
    return json.dumps(doc)
