"""Shared oracles and random generators for the test suite.

Oracles here are deliberately independent of the library code they check:
term rank by factorial enumeration, sign nonsingularity by permutation
expansion, equivalence by applying every transform, high-precision decimal evaluation for quadratic signs, and
sympy for exact ranks.  ``corrupt_perles`` swaps in a damaged Perles
configuration for the fixture checks.
"""

import itertools
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from signrank import fixtures
from signrank.exactnum import QuadElem
from signrank.geometry import Configuration, encode_configuration
from signrank.pattern import EquivalenceWitness, SignPattern


def factor_arrays(real):
    """A realization's factors, tuples of float rows, as numpy arrays shaped
    m x r and r x n (also when m or n is 0)."""
    U = np.array(real.U, dtype=float).reshape(len(real.U), real.r)
    V = np.array(real.V, dtype=float).reshape(real.r, len(real.V[0]))
    return U, V


def decimal_value(q: QuadElem, digits: int = 60) -> Decimal:
    getcontext().prec = digits
    r = Decimal(q.r.numerator) / Decimal(q.r.denominator)
    s = Decimal(q.s.numerator) / Decimal(q.s.denominator)
    return r + s * Decimal(q.d).sqrt()


def factorial_term_rank(P: SignPattern) -> int:
    best = 0
    rows = min(P.m, P.n)
    for cols in itertools.permutations(range(P.n), rows):
        count = 0
        for i, j in enumerate(cols):
            if P.entries[i][j] != 0:
                count += 1
        best = max(best, count)
    if P.m > P.n:
        return factorial_term_rank(P.transpose())
    return best


def permutation_sns(P: SignPattern) -> bool:
    n = P.n
    assert P.m == n
    seen_sign = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= P.entries[i][j]
            if prod == 0:
                break
        if prod == 0:
            continue
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = prod * (-1 if inversions % 2 else 1)
        if seen_sign == 0:
            seen_sign = term
        elif seen_sign != term:
            return False
    return seen_sign != 0


def equivalence_orbit(P: SignPattern) -> frozenset:
    """The entries of every pattern B = P1 D1 P D2 P2: all m! n! 2^(m+n)
    row and column permutations and signatures, applied one by one (18,432
    transforms for a 3 x 4 pattern)."""
    E = P.entries
    orbit = set()
    for row_perm in itertools.permutations(range(P.m)):
        for row_signs in itertools.product((1, -1), repeat=P.m):
            rows = [[s * v for v in E[i]] for i, s in zip(row_perm, row_signs)]
            for col_perm in itertools.permutations(range(P.n)):
                for col_signs in itertools.product((1, -1), repeat=P.n):
                    orbit.add(tuple(
                        tuple([row[j] * s for j, s in zip(col_perm, col_signs)]) for row in rows
                    ))
    return frozenset(orbit)


def rank_one_signs(P: SignPattern) -> bool:
    """Zero-free P has minimum rank 1 iff all rows are equal or opposite
    (and likewise columns, which then follows automatically)."""
    first = P.row(0)
    return all(
        P.row(i) == first or P.row(i) == tuple(-v for v in first) for i in range(P.m)
    )


def random_pattern(rng, m, n, zero_prob=0.2) -> SignPattern:
    vals = rng.choice([-1, 0, 1], size=(m, n), p=[(1 - zero_prob) / 2, zero_prob, (1 - zero_prob) / 2])
    return SignPattern(vals.tolist())


def random_witness(rng, m, n) -> EquivalenceWitness:
    return EquivalenceWitness(
        row_perm=tuple(int(v) for v in rng.permutation(m)),
        col_perm=tuple(int(v) for v in rng.permutation(n)),
        row_signs=tuple(int(v) for v in rng.choice([-1, 1], size=m)),
        col_signs=tuple(int(v) for v in rng.choice([-1, 1], size=n)),
    )


def random_planar_config(rng, n_points=5, n_lines=7, max_incidence=2, coord_range=20):
    """Random rational planar configuration where no line is vertical and
    each line passes through at most ``max_incidence`` of the points."""
    while True:
        pts = [
            (Fraction(int(rng.integers(-coord_range, coord_range + 1))),
             Fraction(int(rng.integers(-coord_range, coord_range + 1))))
            for _ in range(n_points)
        ]
        if len(set(pts)) < n_points:
            continue
        lines = []
        tries = 0
        while len(lines) < n_lines and tries < 300:
            tries += 1
            if max_incidence >= 2 and rng.random() < 0.5:
                i, k = rng.choice(n_points, 2, replace=False)
                (x1, y1), (x2, y2) = pts[i], pts[k]
                if x1 == x2:
                    continue
                slope = (y2 - y1) / (x2 - x1)
                c1, c0 = -slope, -(y1 - slope * x1)
            else:
                c1 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                c0 = Fraction(int(rng.integers(-2 * coord_range, 2 * coord_range + 1)),
                              int(rng.integers(1, 3)))
            inc = sum(1 for (x, y) in pts if c0 + c1 * x + y == 0)
            if inc > max_incidence:
                continue
            lines.append((c0, c1, Fraction(1)))
        if len(lines) < n_lines:
            continue
        return Configuration(2, pts, lines)


def random_origin_avoiding_config(rng, n_points=4, n_lines=4):
    while True:
        C = random_planar_config(rng, n_points, n_lines, max_incidence=2, coord_range=9)
        if any(all(x == 0 for x in p) for p in C.points):
            continue
        if any(h.coeffs[0].is_zero() for h in C.hyperplanes):
            continue
        return C


def sympy_rank(matrix) -> int:
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in matrix]
    )
    return M.rank()


def corrupt_perles(monkeypatch, edit):
    """Replace the stored Perles configuration by one that ``edit(points,
    lines)`` changes in place."""
    stored = fixtures._perles_config()
    points, lines = list(stored.points), [h.coeffs for h in stored.hyperplanes]
    edit(points, lines)
    corrupt = Configuration(2, points, lines)
    monkeypatch.setattr(fixtures, "_perles_config", lambda: corrupt)


def lift_p5(points, lines):
    # p5 leaves l1, l6 and l9: three zeros of row 5 become +
    x, y = points[4]
    points[4] = (x, y + Fraction(1, 100))


def reverse_l6(points, lines):
    # every sign of column 6 flips: equivalent to A0, but not equal
    lines[5] = tuple(-c for c in lines[5])
