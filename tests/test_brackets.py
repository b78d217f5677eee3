"""One soundness net for every minimum-rank bracket.

Whatever bounds ``mr_bounds`` proves, with its default options, must agree
with what the minimum rank is known to satisfy: it is invariant under
transposition and equivalence, a duplicate, negated or zero line leaves it
unchanged, a submatrix's minimum rank is at most the whole pattern's, and
the minimum rank of a direct sum is the sum of its blocks'.  Two brackets
that break one of these cannot both be sound, so each check compares the
brackets of two patterns, and a failure names both patterns' rows and the
records that justify the bounds that disagree.
"""

import numpy as np
import pytest

from signrank.core import SignPattern
from signrank.fixtures import A0_PATTERN, A1_PATTERN, A2_PATTERN
from signrank.pattern import mr_bounds

from conftest import random_pattern, random_witness

ZERO_PROBS = (0.0, 0.15, 0.3, 0.45, 0.6)


def _random_family(seed: int, count: int, largest: int) -> list:
    """``count`` random patterns of up to ``largest`` x ``largest`` at 0-60%
    zeros."""
    rng = np.random.default_rng(seed)
    return [
        random_pattern(rng, int(rng.integers(1, largest + 1)), int(rng.integers(1, largest + 1)),
                       ZERO_PROBS[k % len(ZERO_PROBS)])
        for k in range(count)
    ]


def _equivalent_copies(seed: int) -> list:
    """Two random equivalent copies each of A0, A1 and A2."""
    rng = np.random.default_rng(seed)
    return [random_witness(rng, P.m, P.n).apply(P)
            for P in (A0_PATTERN, A1_PATTERN, A2_PATTERN) for _ in range(2)]


FAMILY = _random_family(25, 60, 9) + _equivalent_copies(26)
IDS = [f"{k}:{P.m}x{P.n}" for k, P in enumerate(FAMILY)]


def _describe(name: str, P: SignPattern) -> str:
    b = mr_bounds(P)
    return (f"{name} {' '.join(P.lines()) or '(empty)'} {P.m}x{P.n}: [{b.lower}, {b.upper}] "
            f"(lower: {b.reason('lower')}; upper: {b.reason('upper')})")


def _bracket(P: SignPattern) -> tuple:
    b = mr_bounds(P)
    return b.lower, b.upper


def _assert_same_bracket(A: SignPattern, name: str, B: SignPattern) -> None:
    assert _bracket(A) == _bracket(B), f"{_describe('A', A)} but {_describe(name, B)}"


def _with_row(P: SignPattern, row) -> SignPattern:
    return SignPattern([*P.entries, row])


@pytest.mark.parametrize("P", FAMILY, ids=IDS)
def test_transpose_and_equivalence_invariance(P):
    _assert_same_bracket(P, "A^T", P.transpose())
    copy = random_witness(np.random.default_rng(P.m * 10 + P.n), P.m, P.n).apply(P)
    _assert_same_bracket(P, "an equivalent copy", copy)


@pytest.mark.parametrize("P", FAMILY, ids=IDS)
def test_redundant_lines_leave_the_bracket(P):
    i, j = P.m // 2, P.n // 2
    _assert_same_bracket(P, "A with row i repeated", _with_row(P, P.row(i)))
    _assert_same_bracket(P, "A with row i negated", _with_row(P, [-v for v in P.row(i)]))
    _assert_same_bracket(P, "A with a zero row", _with_row(P, [0] * P.n))
    T = P.transpose()
    _assert_same_bracket(P, "A with column j repeated", _with_row(T, T.row(j)).transpose())
    _assert_same_bracket(P, "A with column j negated",
                         _with_row(T, [-v for v in T.row(j)]).transpose())
    _assert_same_bracket(P, "A with a zero column", _with_row(T, [0] * P.m).transpose())


@pytest.mark.parametrize("P", FAMILY, ids=IDS)
def test_submatrix_lower_within_upper(P):
    upper = _bracket(P)[1]
    rng = np.random.default_rng(P.m * 100 + P.n)
    for _ in range(3):
        rows = sorted(rng.choice(P.m, size=int(rng.integers(1, P.m + 1)), replace=False))
        cols = sorted(rng.choice(P.n, size=int(rng.integers(1, P.n + 1)), replace=False))
        for S in (P.submatrix(rows, range(P.n)), P.submatrix(range(P.m), cols)):
            assert _bracket(S)[0] <= upper, f"{_describe('submatrix', S)} but {_describe('A', P)}"


def _direct_sum(A: SignPattern, B: SignPattern) -> SignPattern:
    return SignPattern([*(row + (0,) * B.n for row in A.entries),
                        *((0,) * A.n + row for row in B.entries)])


SUMMANDS = _random_family(27, 24, 5) + [A1_PATTERN, A2_PATTERN]


@pytest.mark.parametrize("k", range(0, len(SUMMANDS), 2))
def test_direct_sum_meets_the_sum_of_brackets(k):
    A, B = SUMMANDS[k], SUMMANDS[k + 1]
    (la, ua), (lb, ub) = _bracket(A), _bracket(B)
    lower, upper = _bracket(_direct_sum(A, B))
    assert lower <= ua + ub and la + lb <= upper, (
        f"{_describe('A + B', _direct_sum(A, B))} misses [{la + lb}, {ua + ub}] of "
        f"{_describe('A', A)} and {_describe('B', B)}"
    )
