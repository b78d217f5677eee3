import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from signrank import kernels
from signrank.core import SignPattern, condense, signature_between
from signrank.errors import (
    DomainError,
    NumericalDegeneracy,
    Overdetermined,
    PrecisionExhausted,
    SingularSystem,
)
from signrank.fixtures import A0_PATTERN, A1_PATTERN, A2_PATTERN, FIG21_PATTERN
from signrank.geometry import encode_configuration
from signrank.exactnum import (
    DEFAULT_ZERO_TOL,
    RationalCertificate,
    Realization,
    _bareiss_echelon,
    _round_matrix,
    load_realization,
    rational_rank,
    rationalize,
    read_realization,
    save_certificate,
    save_realization,
    solve_zero_columns,
)
from signrank.pattern import SearchParams, has_direct_representation, is_mr2, search_realization
from signrank.realize import _normalize_factors

from conftest import (
    factor_arrays,
    permutation_sns,
    random_pattern,
    random_planar_config,
    random_witness,
    rank_one_signs,
    sympy_rank,
)


def rebuilt(cert: RationalCertificate, **changes) -> RationalCertificate:
    """The certificate with some fields changed, built again through its
    constructor, which checks the shapes of the factors."""
    fields = {"matrix": cert.matrix, "rank": cert.rank, "target": cert.target,
              "factors": cert.factors}
    return RationalCertificate(**{**fields, **changes})


def _nonzero_factors(rng, m, n, r):
    # U0 V0 with every entry away from zero, so (U V) / (U0 V0) is defined
    while True:
        U0, V0 = rng.standard_normal((m, r)), rng.standard_normal((r, n))
        if np.abs(U0 @ V0).min() > 0.1:
            return U0, V0


class TestNormalizeFactorization:
    # _normalize_factors is the float normal form: U V is U0 V0 with row i
    # scaled by a_i and column j by b_j, U's leading column and V's
    # trailing row are exact ones, and the returned signs are those of a, b

    def test_random_rank3_reconstruction(self):
        rng = np.random.default_rng(0)
        for m, n, r in ((7, 6, 3), (5, 5, 2), (6, 8, 4)):
            U0, V0 = _nonzero_factors(rng, m, n, r)
            U, V, _, _ = _normalize_factors(U0, V0, np.random.default_rng(1))
            assert np.all(U[:, 0] == 1.0) and np.all(V[-1, :] == 1.0)
            # the ratio is the rank-one outer(a, b)
            ratio = (U @ V) / (U0 @ V0)
            assert np.allclose(ratio * ratio[0, 0], np.outer(ratio[:, 0], ratio[0, :]), rtol=1e-8)

    def test_sign_vectors_match_scales(self):
        rng = np.random.default_rng(1)
        for m, n, r in ((5, 5, 2), (7, 6, 3)):
            U0, V0 = _nonzero_factors(rng, m, n, r)
            U, V, row_signs, col_signs = _normalize_factors(U0, V0, np.random.default_rng(2))
            assert set(row_signs) <= {-1.0, 1.0} and set(col_signs) <= {-1.0, 1.0}
            ratio = (U @ V) / (U0 @ V0)
            assert np.array_equal(np.sign(ratio), np.outer(row_signs, col_signs))

    def test_negative_leading_entry_forces_negative_sign(self):
        # row 1 of U0 is -2 times row 0 and column 2 of V0 is -3 times
        # column 0: whatever rotation is drawn, their leading entries have
        # opposite signs, so their scales (and signs) do, and they
        # normalize to the same row and column
        rng = np.random.default_rng(3)
        U0, V0 = _nonzero_factors(rng, 4, 4, 3)
        U0[1] = -2.0 * U0[0]
        V0[:, 2] = -3.0 * V0[:, 0]
        U, V, row_signs, col_signs = _normalize_factors(U0, V0, np.random.default_rng(4))
        assert row_signs[1] == -row_signs[0] and col_signs[2] == -col_signs[0]
        assert np.allclose(U[1], U[0]) and np.allclose(V[:, 2], V[:, 0])
        ratio = (U @ V) / (U0 @ V0)
        assert np.array_equal(np.sign(ratio), np.outer(row_signs, col_signs))

    def test_zero_row_raises(self):
        with pytest.raises(NumericalDegeneracy):
            _normalize_factors(np.zeros((2, 3)), np.ones((3, 2)), np.random.default_rng(1))

    def test_rotations_built_one_plane_at_a_time(self):
        # the 64 candidate rotations are built one plane at a time, 64 r x r
        # blocks: memory O(64 r^2), about 2.5 MB at r = 40, where all r - 1
        # planes at once would take O(64 r^3), 33.6 MB (about 4 GB at r = 200)
        rng = np.random.default_rng(40)
        U0, V0 = rng.standard_normal((8, 40)), rng.standard_normal((40, 8))
        tracemalloc.start()
        try:
            _normalize_factors(U0, V0, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _reference_plane_rotation(r: int, k: int, theta: float) -> np.ndarray:
    R = np.eye(r)
    c, s = math.cos(theta), math.sin(theta)
    R[0, 0] = c
    R[0, k] = -s
    R[k, 0] = s
    R[k, k] = c
    return R


def _reference_normalize(U0, V0, rng):
    """The normal form trying one rotation at a time, stopping at the first
    of quality above 0.05; also returns the best quality it saw."""
    r = U0.shape[1]
    row_norm = np.linalg.norm(U0, axis=1)
    col_norm = np.linalg.norm(V0, axis=0)
    if np.any(row_norm == 0) or np.any(col_norm == 0):
        raise NumericalDegeneracy("zero row of U or zero column of V cannot be normalized")

    best = None
    best_quality = -1.0
    for _ in range(64):
        Q = np.eye(r)
        for k in range(1, r):
            Q = _reference_plane_rotation(r, k, rng.uniform(0.0, 2.0 * math.pi)) @ Q
        U = U0 @ Q.T
        V = Q @ V0
        quality = min(
            float(np.min(np.abs(U[:, 0]) / row_norm)),
            float(np.min(np.abs(V[-1, :]) / col_norm)),
        )
        if quality > best_quality:
            best_quality = quality
            best = (U, V)
        if quality > 0.05:
            break
    if best is None or best_quality < 1e-10:
        raise NumericalDegeneracy(
            f"rotations failed to clear leading entries (best quality {best_quality:.2e})"
        )
    U, V = best
    row_scales = 1.0 / U[:, 0]
    col_scales = 1.0 / V[-1, :]
    U = U * row_scales[:, None]
    V = V * col_scales[None, :]
    U[:, 0] = 1.0
    V[-1, :] = 1.0
    return (U, V, np.sign(row_scales), np.sign(col_scales)), best_quality


class TestNormalizeEqualsReference:
    """``_normalize_factors`` scores all 64 rotations at once; it must pick
    the rotation the one-at-a-time reference picks, so its factors and signs
    equal the reference's bit for bit, and it must fail where it fails."""

    @staticmethod
    def _orthogonal_to_every_candidate(seed):
        # r = 2 factors that each of the 64 candidate rotations (drawn from
        # default_rng(seed), as the normal form draws them) leaves with a
        # zero leading entry: rows of U0 for candidates 0-31, columns of V0
        # for candidates 32-63, so even the best quality is about 1e-16
        c, s = (f(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=64))
                for f in (np.cos, np.sin))
        U0 = np.stack([s[:32], c[:32]], axis=1)
        V0 = np.stack([c[32:], -s[32:]])
        return U0, V0

    def _compare(self, U0, V0, seed):
        try:
            want, quality = _reference_normalize(U0, V0, np.random.default_rng(seed))
        except NumericalDegeneracy as exc:
            with pytest.raises(NumericalDegeneracy) as got:
                _normalize_factors(U0, V0, np.random.default_rng(seed))
            assert str(got.value) == str(exc)
            return "degenerate"
        got = _normalize_factors(U0, V0, np.random.default_rng(seed))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), seed
        if quality > 0.05:
            return "first above 0.05"
        return "best of 64, >= 45 lines" if max(U0.shape[0], V0.shape[1]) >= 45 else "best of 64"

    def test_normalize_equals_reference(self):
        branches = Counter()
        for seed in range(250):
            rng = np.random.default_rng(seed)
            r = 2 + seed % 5
            m, n = (int(x) for x in rng.integers(4, 61, size=2))
            U0, V0 = rng.standard_normal((m, r)), rng.standard_normal((r, n))
            if seed % 4 == 0:  # rows of opposite sign along one line: scales of both signs
                U0[1::3] = -2.0 * U0[0]
            branches[self._compare(U0, V0, seed)] += 1
        branches[self._compare(*self._orthogonal_to_every_candidate(7), 7)] += 1
        assert set(branches) == {"first above 0.05", "best of 64", "best of 64, >= 45 lines",
                                 "degenerate"}, branches

    def test_nan_factors_are_degenerate(self):
        U0 = np.full((5, 3), np.nan)
        for normalize in (_reference_normalize, _normalize_factors):
            with pytest.raises(NumericalDegeneracy):
                normalize(U0, np.ones((3, 4)), np.random.default_rng(0))


class TestSignatureBetween:
    def test_against_every_signature(self):
        # brute force over all 2^(m+n) signatures: None exactly when none
        # carries P onto Q, and a returned pair does; Q is a signed copy of
        # P, such a copy with one cell changed (often its zero set), or an
        # unrelated pattern
        rng = np.random.default_rng(44)
        found = 0
        for trial in range(600):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            P = random_pattern(rng, m, n, 0.3)
            E = np.array(P.entries).reshape(m, n)
            E = E * np.outer(rng.choice([-1, 1], size=m), rng.choice([-1, 1], size=n))
            if trial % 3 == 1:
                E[rng.integers(m), rng.integers(n)] = rng.choice([-1, 0, 1])
            Q = SignPattern(E.tolist()) if trial % 3 < 2 else random_pattern(rng, m, n, 0.3)
            exists = any(
                all(Q.entries[i][j] == d1[i] * P.entries[i][j] * d2[j]
                    for i in range(m) for j in range(n))
                for d1 in itertools.product((1, -1), repeat=m)
                for d2 in itertools.product((1, -1), repeat=n)
            )
            signs = signature_between(P, Q)
            assert (signs is not None) == exists
            if signs is not None:
                d1, d2 = signs
                assert all(Q.entries[i][j] == d1[i] * P.entries[i][j] * d2[j]
                           for i in range(m) for j in range(n))
                found += 1
        assert 200 < found < 600
        assert signature_between(SignPattern(["+0"]), SignPattern(["+", "0"])) is None


class TestSolveZeroColumns:
    def test_single_zero(self):
        U = [[1, 2, 5]]
        A = SignPattern(["0"])
        assert solve_zero_columns(U, A, 0, [7, 3, 1]) == (Fraction(-11), Fraction(3), Fraction(1))

    def test_two_zeros_fully_determined(self):
        U = [[1, 0, 0], [1, 1, 1]]
        A = SignPattern(["0", "0"])
        assert solve_zero_columns(U, A, 0, [7, 7, 1]) == (Fraction(0), Fraction(-1), Fraction(1))

    def test_singular_when_second_coordinates_collide(self):
        # r = 3: the rows differ only in the last coordinate, so no column
        # with v_3 = 1 passes through both
        U = [[1, 2, 9], [1, 2, 7]]
        A = SignPattern(["0", "0"])
        with pytest.raises(SingularSystem):
            solve_zero_columns(U, A, 0, [0, 0, 1])
        # r = 4: the echelon form pivots on the third coordinate instead of
        # the second, which keeps its value
        U = [[1, 2, 9, 3], [1, 2, 7, 5]]
        v = solve_zero_columns(U, A, 0, [0, 5, 0, 1])
        assert v == (Fraction(-22), Fraction(5), Fraction(1), Fraction(1))
        assert all(sum(Fraction(a) * b for a, b in zip(row, v)) == 0 for row in U)

    def test_float_path(self):
        # floats enter at their exact binary value and the solve stays exact
        U = [[1.0, 2.0, 5.0]]
        A = SignPattern(["0"])
        assert solve_zero_columns(U, A, 0, [0.0, 3.0, 1.0]) == (
            Fraction(-11), Fraction(3), Fraction(1))
        v, w, one = solve_zero_columns(
            np.array([[1.0, 0.1, 0.3]]), A, 0, [0.0, np.float64(0.7), 1.0])
        assert v == -(Fraction(0.3) + Fraction(0.1) * Fraction(0.7))
        assert (w, one) == (Fraction(0.7), 1)

    def test_no_zero_rows_keeps_column(self):
        assert solve_zero_columns([[1, 2, 5]], SignPattern(["+"]), 0, [0.5, 3, 1]) == (
            Fraction(1, 2), Fraction(3), Fraction(1))

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(83)

        def entry(integer):
            if integer:
                return int(rng.integers(-4, 5))
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))

        singular = planted_solved = 0
        for trial in range(160):
            s = int(rng.integers(1, 5))
            r = s + 1 + int(rng.integers(0, 3))
            m = s + int(rng.integers(0, 3))
            integer = trial % 2 == 0
            U = [[entry(integer) for _ in range(r)] for _ in range(m)]
            for row in U:
                row[0] = 1
            zero_rows = sorted(int(i) for i in rng.choice(m, s, replace=False))
            planted = trial % 3 == 0
            if planted:
                # plant a singular leading block: the last zero row's leading
                # s entries become an affine combination of the other zero
                # rows' (its first entry stays 1; equal to the other row's
                # when s = 2, and [1] is never singular, so s = 1 skips)
                last = zero_rows[-1]
                coeffs = [entry(integer) for _ in zero_rows[:-2]]
                coeffs.append(1 - sum(coeffs, Fraction(0)))
                if s >= 2:
                    U[last][:s] = [
                        sum((c * U[i][k] for c, i in zip(coeffs, zero_rows)), Fraction(0))
                        for k in range(s)
                    ]
            A = SignPattern([[0 if i in zero_rows else 1] for i in range(m)])
            column = [entry(integer) for _ in range(r - 1)] + [1]
            Z = sympy.Matrix([[sympy.Rational(U[i][k]) for k in range(r)] for i in zero_rows])
            coef, rhs = Z[:, : r - 1], -Z[:, r - 1]
            if coef.rank() < coef.row_join(rhs).rank():
                singular += 1
                with pytest.raises(SingularSystem):
                    solve_zero_columns(U, A, 0, column)
                continue
            sol = solve_zero_columns(U, A, 0, column)
            assert all(type(v) is Fraction for v in sol) and len(sol) == r
            for i in zero_rows:
                assert sum(U[i][k] * sol[k] for k in range(r)) == 0
            changed = [k for k in range(r) if sol[k] != column[k]]
            assert sol[-1] == 1 and len(changed) <= s
            if Z[:, :s].det() != 0:
                # a nonsingular leading block: the first s entries are solved
                assert all(k < s for k in changed)
            elif s < r - 1:
                planted_solved += 1
        assert singular >= 8 and planted_solved >= 10

    def test_overdetermined_column(self):
        U = [[1, 1], [1, 2], [1, 3]]
        A = SignPattern(["0", "0", "0"])
        with pytest.raises(Overdetermined):
            solve_zero_columns(U, A, 0, [0, 1])

    def test_negative_pivots(self):
        # both pivots of the echelon form are negative: the common
        # denominator turns negative and back, and the result is reduced
        U = [[-2, 1, 3, 1], [-4, 3, 1, 2]]
        A = SignPattern(["0", "0"])
        assert [row[p] for row, p in zip(*_bareiss_echelon(U))] == [-2, -2]
        v = solve_zero_columns(U, A, 0, [Fraction(5, 3), Fraction(7, 2), Fraction(-1, 6), 1])
        assert v == (Fraction(-1, 6), Fraction(-5, 6), Fraction(-1, 6), Fraction(1))
        assert all(type(x) is Fraction for x in v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in U)

    def test_integer_rows_solve_as_fractions(self):
        # rationalize hands in U's rows scaled to integers: a row and any
        # positive multiple of it give the same solution
        rng = np.random.default_rng(71)
        for _ in range(60):
            s = int(rng.integers(1, 4))
            r = s + 1 + int(rng.integers(0, 2))
            rows = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(r)]
                    for _ in range(s)]
            scaled = [[x * math.lcm(*(y.denominator for y in row)) for x in row] for row in rows]
            assert all(x.denominator == 1 for row in scaled for x in row)
            integer = [[int(x) for x in row] for row in scaled]
            A = SignPattern([[0]] * s)
            column = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                      for _ in range(r - 1)] + [1]
            try:
                expected = solve_zero_columns(rows, A, 0, column)
            except SingularSystem:
                with pytest.raises(SingularSystem):
                    solve_zero_columns(integer, A, 0, column)
                continue
            assert solve_zero_columns(integer, A, 0, column) == expected
            assert all(sum(a * b for a, b in zip(row, expected)) == 0 for row in rows)

    def test_float_column_read_exactly(self):
        # float entries of the column enter at their exact binary value:
        # the kept entry is Fraction(0.1), not 1/10, and the solved one
        # follows from it exactly
        U = [[1, 3, -2, 5]]
        v = solve_zero_columns(U, SignPattern(["0"]), 0, [0.25, 0.1, 0.7, 1.0])
        assert v[1:] == (Fraction(0.1), Fraction(0.7), Fraction(1))
        assert v[1] != Fraction(1, 10)
        assert v[0] == -(3 * Fraction(0.1) - 2 * Fraction(0.7) + 5)


class TestSearch:
    def test_a1_rank2(self):
        real = search_realization(A1_PATTERN, 2, SearchParams(seed=1))
        assert real is not None
        assert signature_between(A1_PATTERN, real.signed_pattern()) is not None
        assert real.margin() > 0

    def test_a2_rank2_needs_signatures(self):
        real = search_realization(A2_PATTERN, 2, SearchParams(seed=1))
        assert real is not None
        d1, d2 = signature_between(A2_PATTERN, real.signed_pattern())
        assert set(d1) == {1, -1} or set(d2) == {1, -1}

    def test_diag_rank1_not_found(self):
        assert search_realization(SignPattern(["+0", "0+"]), 1) is None

    def test_rank1_exact(self):
        real = search_realization(SignPattern(["++", "++"]), 1)
        assert real is not None and real.r == 1

    def test_deterministic_given_seed(self):
        p = SearchParams(seed=5)
        r1 = search_realization(FIG21_PATTERN, 3, p)
        r2 = search_realization(FIG21_PATTERN, 3, p)
        assert np.array_equal(r1.U, r2.U) and np.array_equal(r1.V, r2.V)

    def test_planted_zeros_all_found(self):
        # every pattern is realizable at r; its zeros are left to the polish
        rng = np.random.default_rng(7)
        for k in range(24):
            r = 3 + k % 3
            P, _ = _planted_instance(rng, r)
            real = search_realization(P, r, SearchParams(restarts=8, iters=1500, seed=k))
            assert real is not None, k
            assert rationalize(P, real).verify()

    def test_a0_rank4(self):
        real = search_realization(A0_PATTERN, 4)
        assert real is not None and real.r == 4
        assert signature_between(A0_PATTERN, real.signed_pattern()) is not None

    def test_a0_deletions_rank3(self):
        # deleting any one line of A0 leaves an SNS 3x3, so mr = 3 exactly
        rows = A0_PATTERN.entries
        deletions = [SignPattern(rows[:i] + rows[i + 1:]) for i in range(9)]
        deletions += [SignPattern([row[:j] + row[j + 1:] for row in rows]) for j in range(9)]
        for k, D in enumerate(deletions):
            real = search_realization(D, 3, SearchParams(seed=0))
            assert real is not None, k
            assert signature_between(condense(D).condensed, real.signed_pattern()) is not None, k

    def test_failing_restart_descends_once(self, monkeypatch):
        # a 4x4 SNS pattern has mr = 4, so every rank-3 restart fails; each
        # runs one descent, capped at `iters` steps
        P = SignPattern(["-+00", "--+0", "---+", "----"])
        seen = []
        original = kernels.descent

        def recording(U, V, S, iters, *rest):
            seen.append(iters)
            return original(U, V, S, iters, *rest)

        monkeypatch.setattr(kernels, "descent", recording)
        assert search_realization(P, 3, SearchParams(restarts=1, iters=40)) is None
        assert seen == [40]
        assert search_realization(P, 3, SearchParams(restarts=2, iters=0)) is None
        assert seen == [40, 0, 0]

    def test_nan_product_fails_sign_check(self):
        from signrank.realize import _check_signs

        S = np.array([[1, -1], [0, 1]])
        assert _check_signs(np.array([[1.0, -1.0], [0.0, 1.0]]), S, 1e-2, 1e-9)
        assert not _check_signs(np.full((2, 2), np.nan), S, 1e-2, 1e-9)

    @pytest.mark.parametrize("direct", [True, False])
    def test_nan_descent_fails_the_restart(self, monkeypatch, direct):
        # NaN factors fail the sign check, so the restart fails; in direct
        # mode they once reached Realization, which raised DomainError, and
        # with zeros the polish's least squares raised LinAlgError
        monkeypatch.setattr(
            kernels, "descent", lambda U, V, *_: (U * np.nan, V * np.nan, np.nan)
        )
        for rows in (["++-", "+-+", "-++"], ["++0", "+-+", "0++", "-+-"]):
            P = SignPattern(rows)
            assert search_realization(P, 3, SearchParams(restarts=2, direct=direct)) is None

    @pytest.mark.parametrize("failure", ["degenerate", "signs"])
    def test_failed_normal_form_moves_to_next_restart(self, monkeypatch, failure):
        # restart 0's normal form fails, by NumericalDegeneracy or by missing
        # the signs; restart k draws from seed ^ k, so what the search
        # returns is restart 0 of seed 1
        from signrank import realize

        calls = []

        def failing_first(U, V, rng):
            calls.append(rng)
            U, V, row_signs, col_signs = _normalize_factors(U, V, rng)
            if len(calls) == 1 and failure == "degenerate":
                raise NumericalDegeneracy("rotations failed to clear leading entries")
            if len(calls) == 1:
                row_signs = -row_signs  # the target's every nonzero flips
            return U, V, row_signs, col_signs

        expected = search_realization(FIG21_PATTERN, 3, SearchParams(seed=1, restarts=1))
        monkeypatch.setattr(realize, "_normalize_factors", failing_first)
        found = search_realization(FIG21_PATTERN, 3, SearchParams(seed=0, restarts=2))
        assert expected is not None and found == expected and len(calls) == 2

    def test_direct_rank1_needs_plus(self):
        # [-] is realized at rank 1 only with a signature: U = V = [[1]]
        # multiply to +
        neg, pos = SignPattern(["--", "--"]), SignPattern(["++"])
        assert search_realization(neg, 1, SearchParams(direct=True)) is None
        assert has_direct_representation(neg, 1).status == "no"
        for real in (search_realization(pos, 1, SearchParams(direct=True)),
                     search_realization(neg, 1)):
            U, V = factor_arrays(real)
            assert (U @ V).tolist() == [[1.0]]

    def test_rank_below_one_rejected(self):
        with pytest.raises(DomainError):
            search_realization(A1_PATTERN, 0)

    @pytest.mark.parametrize("r", [2, 3])
    def test_negative_seed_rejected(self, r):
        # restart k seeds its generator with seed ^ k, which numpy refuses
        # when negative; the exact ranks reject it as well, like restarts
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            search_realization(A0_PATTERN, r, SearchParams(seed=-1))

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("field, value", [
        ("restarts", 1.0), ("restarts", None), ("iters", 2.5), ("iters", "10"),
        ("seed", 1.5), ("seed", True), ("seed", np.True_),
    ])
    def test_non_integer_budget_rejected(self, r, field, value):
        # at rank 3 these once ended in a TypeError, after numpy had loaded
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got "):
            search_realization(A0_PATTERN, r, SearchParams(**{field: value}))

    @pytest.mark.parametrize("r", [2.5, 3.0, 1.5, True, np.True_, "3", None])
    def test_non_integer_rank_rejected(self, r):
        # 2.5 once returned None, which below rank 3 reads as a proof that
        # no realization exists
        with pytest.raises(DomainError, match="^rank must be an integer, got "):
            search_realization(A1_PATTERN, r)

    def test_numpy_integers_accepted(self):
        P = SignPattern(["0+++", "0-++", "0+-+", "++++"])
        numpy_ints = SearchParams(restarts=np.int64(4), iters=np.int32(400), seed=np.uint8(5))
        found = search_realization(P, np.int64(3), numpy_ints)
        assert found is not None
        assert found == search_realization(P, 3, SearchParams(restarts=4, iters=400, seed=5))
        assert search_realization(A1_PATTERN, np.int8(2), numpy_ints) is not None

    def test_overflowed_descent_warns_nothing(self, monkeypatch):
        # factors past the float range give an infinite product; its 0 * inf
        # at a zero target is NaN, which fails the sign check without a
        # RuntimeWarning reaching stderr
        import warnings

        descent = kernels.descent

        def overflowing(*args):
            U, V, info = descent(*args)
            return U * 1e200, V * 1e200, info

        monkeypatch.setattr(kernels, "descent", overflowing)
        assert any(0 in row for row in FIG21_PATTERN.entries)
        params = SearchParams(restarts=2, iters=50, seed=4)
        plain = search_realization(FIG21_PATTERN, 3, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert search_realization(FIG21_PATTERN, 3, params) == plain
        assert plain is None

    def test_normal_form_guaranteed(self):
        U, V = factor_arrays(search_realization(A2_PATTERN, 2, SearchParams(seed=9)))
        assert np.all(U[:, 0] == 1.0)
        assert np.all(V[-1, :] == 1.0)


def _low_rank_trials():
    """Seeded patterns with zeros, 2..7 x 2..7: random ones at 20% zeros
    (mostly mr > 2) and planted sign(u_i + v_j) staircases under a random
    signature and permutation (mr <= 2)."""
    rng = np.random.default_rng(2024)
    for trial in range(420):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        if trial % 2 == 0:
            yield False, random_pattern(rng, m, n, 0.2)
        else:
            u, v = rng.integers(-4, 5, size=m), rng.integers(-4, 5, size=n)
            stair = SignPattern(np.sign(np.add.outer(u, v)).tolist())
            yield True, random_witness(rng, m, n).apply(stair)


def _assert_low_rank_answer(P, r):
    """search_realization(P, r) for r <= 2, checked against the exact
    deciders in both modes; returns whether it found one."""
    C = condense(P).condensed
    real = search_realization(P, r)
    direct = search_realization(P, r, SearchParams(direct=True))
    for found in (real, direct):
        if found is not None:
            U, V = factor_arrays(found)
            assert found.r == r and U.shape == (C.m, r) and V.shape == (r, C.n)
            assert np.all(U[:, 0] == 1.0) and np.all(V[-1, :] == 1.0)
    if real is not None:
        assert signature_between(C, real.signed_pattern()) is not None
    if direct is not None:
        assert direct.signed_pattern() == C
    if r == 2 and is_mr2(P).value:
        assert has_direct_representation(P, 2).status == ("yes" if direct else "no")
    return real is not None


class TestExactLowRank:
    """search_realization decides r = 1 and 2 exactly, with no descent."""

    def test_zero_free_3x3_against_oracle(self):
        # zero-free 3x3: mr = 1 iff rank-one signs, mr = 3 iff SNS, else 2
        for signs in itertools.product((1, -1), repeat=9):
            P = SignPattern([signs[0:3], signs[3:6], signs[6:9]])
            mr_at_most_2 = rank_one_signs(P) or not permutation_sns(P)
            assert _assert_low_rank_answer(P, 2) == mr_at_most_2, P.to_text()
            assert _assert_low_rank_answer(P, 1) == rank_one_signs(P), P.to_text()

    def test_patterns_with_zeros(self):
        counts = {True: 0, False: 0}
        for planted, P in _low_rank_trials():
            C = condense(P).condensed
            one_by_one = C.m == 1 and C.n == 1
            found = _assert_low_rank_answer(P, 2)
            assert found == (is_mr2(P).value or one_by_one), P.to_text()
            assert found or not planted, P.to_text()
            assert _assert_low_rank_answer(P, 1) == one_by_one
            counts[found] += 1
        assert min(counts.values()) >= 100, counts

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rank1_pattern_at_rank2(self, sign):
        P = SignPattern([[sign, -sign], [sign, -sign]])
        for direct in (False, True):
            U, V = factor_arrays(search_realization(P, 2, SearchParams(direct=direct)))
            assert (U @ V).tolist() == [[float(sign)]]

    def test_descent_never_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("descent ran for r <= 2")

        monkeypatch.setattr(kernels, "descent", refuse)
        plus, minus = SignPattern(["+"]), SignPattern(["-"])
        for P in (A0_PATTERN, A1_PATTERN, A2_PATTERN, plus, minus):
            for r in (1, 2):
                for params in (SearchParams(), SearchParams(restarts=0),
                               SearchParams(direct=True)):
                    search_realization(P, r, params)
        # the search budget does not apply: no restart is needed to find it
        assert search_realization(A1_PATTERN, 2, SearchParams(restarts=0)) is not None
        assert search_realization(A0_PATTERN, 2, SearchParams(restarts=0)) is None


def _reference_check_signs(B, S, margin, zero_tol):
    """The sign check as first written: a nested ``np.where`` over S's signs."""
    return bool(np.where(S > 0, B >= margin / 2,
                         np.where(S < 0, B <= -margin / 2, np.abs(B) <= zero_tol)).all())


class TestCheckSignsEqualsReference:
    """``_check_signs`` reads s b >= margin/2 for both signs at once; it must
    give the nested ``np.where``'s answer on every B, the non-finite ones and
    those exactly at a threshold included."""

    @staticmethod
    def _targets(rng, m, n):
        # zero-free, zero-carrying, and the normal form's float target S
        # times the outer product of +-1 signatures, -0.0 at some zeros
        zeros = rng.choice([-1.0, 0.0, 1.0], size=(m, n))
        signatures = np.outer(np.sign(rng.standard_normal(m)), np.sign(rng.standard_normal(n)))
        return rng.choice([-1.0, 1.0], size=(m, n)), zeros, zeros * signatures

    def test_equals_reference(self):
        from signrank.realize import _check_signs

        rng = np.random.default_rng(38)
        answers = Counter()
        # the thresholds of the search's two checks
        for margin, zero_tol in ((1e-2, DEFAULT_ZERO_TOL), (4 * DEFAULT_ZERO_TOL, DEFAULT_ZERO_TOL)):
            edges = [margin / 2, zero_tol, np.nextafter(margin / 2, 0.0),
                     np.nextafter(zero_tol, 1.0), 0.0, np.inf, np.nan]
            special = np.array(edges + [-x for x in edges])
            for _ in range(200):
                m, n = (int(k) for k in rng.integers(1, 5, size=2))
                for S in self._targets(rng, m, n):
                    # a B that passes, then up to two entries at the edges
                    B = np.where(S == 0, rng.uniform(-zero_tol, zero_tol, size=(m, n)),
                                 S * rng.uniform(margin / 2, 1.0, size=(m, n)))
                    for _ in range(int(rng.integers(0, 3))):
                        B[rng.integers(m), rng.integers(n)] = rng.choice(special)
                    with np.errstate(invalid="ignore"):  # 0 * inf is NaN, which fails
                        got = _check_signs(B, S, margin, zero_tol)
                    assert got == _reference_check_signs(B, S, margin, zero_tol), (B, S)
                    answers[got] += 1
        assert min(answers.values()) > 300, answers


def _reference_polish(U, V, S, free_u, free_v, max_iter=30):
    """``realize._gauss_newton_zero_polish`` one zero cell and one free entry
    at a time, with the counts of step halvings and of least-squares solves
    and whether a line search ran out of its 20 tries, which ends the
    polish.  Its products are U @ V, as there, so the two agree bit for
    bit."""
    r = U.shape[1]
    cells = [(i, j) for j in range(S.shape[1]) for i in range(S.shape[0]) if S[i, j] == 0]
    rows, cols = sorted({i for i, _ in cells}), sorted({j for _, j in cells})
    free_u = [(i, k) for i in rows for k in range(r) if free_u is None or free_u[i, k]]
    free_v = [(k, j) for j in cols for k in range(r) if free_v is None or free_v[k, j]]

    def residual(U, V):
        B = U @ V
        return np.array([B[i, j] for i, j in cells])

    res, halvings, solves = residual(U, V), 0, 0
    for _ in range(max_iter):
        if np.max(np.abs(res)) < 1e-13:
            break
        J = np.zeros((len(cells), len(free_u) + len(free_v)))
        for row, (i, j) in enumerate(cells):
            for col, (a, k) in enumerate(free_u):
                if a == i:
                    J[row, col] = V[k, j]
            for col, (k, b) in enumerate(free_v):
                if b == j:
                    J[row, len(free_u) + col] = U[i, k]
        step = np.linalg.lstsq(J, -res, rcond=None)[0]
        solves += 1
        scale = 1.0
        for _ in range(20):
            U2, V2 = U.copy(), V.copy()
            for col, (i, k) in enumerate(free_u):
                U2[i, k] += scale * step[col]
            for col, (k, j) in enumerate(free_v):
                V2[k, j] += scale * step[len(free_u) + col]
            new = residual(U2, V2)
            if np.linalg.norm(new) < np.linalg.norm(res):
                U, V, res = U2, V2, new
                break
            scale *= 0.5
            halvings += 1
        else:
            return U, V, halvings, solves, True
    return U, V, halvings, solves, False


class TestZeroPolish:
    @pytest.mark.parametrize("rows, seed, exhausted", [
        (["0+-00-", "++00+0", "+000--", "--00--", "+-0+-0", "+--++-"], 0, False),
        (["-+0+-0+-", "00+--0+-", "00+0-0+0", "0000-+--", "0--+0-0+", "-+-00+-0", "+--000+0"],
         1, True),
    ], ids=["halved-steps-taken", "line-search-exhausted"])
    def test_step_halving_equals_reference(self, monkeypatch, rows, seed, exhausted):
        # the polish's input from one seeded direct restart at r = 3 (numpy
        # 2.4.6, x86-64) whose line search halves the step; planted instances
        # converge at full steps, so no other test halves it
        from signrank import realize

        captured = []
        original = realize._gauss_newton_zero_polish

        def recording(U, V, S, free_u, free_v):
            captured.append((U.copy(), V.copy(), S, free_u, free_v))
            return original(U, V, S, free_u, free_v)

        monkeypatch.setattr(realize, "_gauss_newton_zero_polish", recording)
        params = SearchParams(seed=seed, restarts=1, iters=1500, direct=True)
        search_realization(SignPattern(rows), 3, params)
        (U0, V0, S, free_u, free_v), = captured
        solves, lstsq = [], np.linalg.lstsq
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "lstsq",
                          lambda *args, **kw: solves.append(1) or lstsq(*args, **kw))
            U, V = original(U0, V0, S, free_u, free_v)
        U_ref, V_ref, halvings, ref_solves, ran_out = _reference_polish(U0, V0, S, free_u, free_v)
        assert halvings > 0 and ran_out == exhausted and len(solves) == ref_solves
        assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)

    def test_converges_quadratically(self):
        # the zero constraints are bilinear in U and V, so Gauss-Newton with
        # the exact Jacobian takes a 1e-3 perturbation of a planted zero set
        # to 1e-13 within 3 steps; a wrong Jacobian needs more
        from signrank import realize

        rng = np.random.default_rng(11)
        polished = 0
        for k in range(30):
            r = 2 + k % 4
            P, real = _planted_instance(rng, r)
            S = np.array(condense(P).condensed.entries, dtype=float)
            cells = [(i, j) for j in range(S.shape[1]) for i in range(S.shape[0]) if S[i, j] == 0]
            if not cells:
                continue
            U, V = factor_arrays(real)
            U = U + 1e-3 * rng.standard_normal(U.shape)
            V = V + 1e-3 * rng.standard_normal(V.shape)
            U, V = realize._gauss_newton_zero_polish(U, V, S, None, None, max_iter=3)
            B = U @ V
            assert max(abs(B[i, j]) for i, j in cells) < 1e-13, k
            polished += 1
        assert polished >= 15


    def test_keeps_direct_pins(self):
        # under the direct mode's masks the polish moves no normal-form one
        # and still clears every planted zero
        from signrank import realize

        rng = np.random.default_rng(11)
        polished = 0
        for k in range(30):
            r = 3 + k % 3
            P, real = _planted_instance(rng, r)
            S = np.array(condense(P).condensed.entries, dtype=float)
            cells = [(i, j) for j in range(S.shape[1]) for i in range(S.shape[0]) if S[i, j] == 0]
            if not cells:
                continue
            U, V = factor_arrays(real)
            free_u, free_v = np.ones_like(U), np.ones_like(V)
            free_u[:, 0] = free_v[-1, :] = 0.0
            U = U + 1e-3 * rng.standard_normal(U.shape)
            V = V + 1e-3 * rng.standard_normal(V.shape)
            U[:, 0] = V[-1, :] = 1.0
            U, V = realize._gauss_newton_zero_polish(U, V, S, free_u, free_v)
            assert (U[:, 0] == 1.0).all() and (V[-1, :] == 1.0).all(), k
            B = U @ V
            assert max(abs(B[i, j]) for i, j in cells) < 1e-13, k
            polished += 1
        assert polished >= 20


class TestRealizationDocument:
    def test_roundtrip_bits(self, tmp_path):
        real = search_realization(A1_PATTERN, 2, SearchParams(seed=2))
        path = tmp_path / "real.json"
        save_realization(real, path)
        assert load_realization(path) == real

    def test_normal_form_enforced(self):
        with pytest.raises(DomainError):
            Realization(2, np.array([[2.0, 1.0]]), np.array([[1.0], [1.0]]))
        with pytest.raises(DomainError):
            Realization(2, np.array([[1.0, 1.0]]), np.array([[1.0], [2.0]]))

    @pytest.mark.parametrize("r", [2.5, True, 1.9, "two", None])
    def test_non_integer_r_rejected(self, r):
        doc = {"r": r, "U": [[1.0, 2.0]], "V": [[1.0], [1.0]]}
        with pytest.raises(DomainError, match="'r' must be an integer"):
            read_realization(doc)

    def test_integral_float_r_accepted(self):
        doc = {"r": 2.0, "U": [[1.0, 2.0]], "V": [[1.0], [1.0]]}
        assert read_realization(doc).r == 2

    @pytest.mark.parametrize("r", [np.float32(3.7), 3.0, Fraction(3), "3"])
    def test_constructor_reads_r_strictly(self, r):
        # Realization(np.float32(3.7), U, V) once built a rank-3 realization;
        # only a document's integral float is read as an integer
        U, V = [[1.0, 2.0, 0.5]], [[1.0], [2.0], [1.0]]
        assert Realization(np.int64(3), U, V).r == 3
        with pytest.raises(DomainError, match="^realization rank 'r' must be an integer, got "):
            Realization(r, U, V)

    def test_empty_condensation_round_trip(self, tmp_path):
        # "U": [] carries no row width; it is read as a 0 x r matrix
        real = search_realization(SignPattern(["00", "00"]), 3)
        path = tmp_path / "z.real.json"
        save_realization(real, path)
        back = load_realization(path)
        assert back == real and back.U == () and back.V == ((),) * 3
        assert read_realization({"r": 2, "U": [[1.0, 2.0]], "V": [[1.0], [1.0]]}).U == ((1.0, 2.0),)
        with pytest.raises(DomainError, match="inconsistent shapes"):
            read_realization({"r": 2, "U": [1.0, 2.0], "V": [[1.0], [1.0]]})

    @pytest.mark.parametrize(
        "U, V, bad",
        [([[True, 0.5]], [[1.0], [True]], "True"), ([["1", "0.5"]], [[1.0], [1.0]], "'1'"),
         ([[1.0, None]], [[1.0], [1.0]], "None"), ([[1.0, [2.0]]], [[1.0], [1.0]], r"\[2.0\]")],
        ids=["bool", "string", "null", "list"],
    )
    def test_non_number_entries_rejected(self, U, V, bad):
        # True == 1 and float("1") == 1.0, but neither names an entry
        with pytest.raises(DomainError, match=f"realization entries must be numbers, got {bad}$"):
            read_realization({"r": 2, "U": U, "V": V})

    @pytest.mark.parametrize("doc", [[], [{"r": 2}], "r", 2, None],
                             ids=["empty-list", "list", "string", "number", "null"])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(DomainError, match="^a realization document must be a JSON object"):
            read_realization(doc)

    @pytest.mark.parametrize("r", [0, -1])
    def test_non_positive_r_rejected(self, r):
        with pytest.raises(DomainError, match=f"^realization rank 'r' must be >= 1, got {r}$"):
            read_realization({"r": r, "U": [], "V": []})

    def test_missing_key_rejected(self):
        with pytest.raises(DomainError, match="^malformed realization document: missing 'V'$"):
            read_realization({"r": 2, "U": [[1.0, 0.5]]})

    def test_document_rows_match_arrays(self):
        # factors given as arrays are kept as the rows a document gives, and
        # both forms check alike
        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        U, V = factor_arrays(real)
        assert real == Realization(real.r, U, V) == Realization(real.r, U.tolist(), V.tolist())
        assert all(type(x) is float for M in (real.U, real.V) for row in M for x in row)
        assert read_realization(real.to_dict()) == real
        assert real.transpose() == read_realization(real.transpose().to_dict())
        assert real.transpose().signed_pattern() == real.signed_pattern().transpose()
        for factor in ([[2.0, 1.0]], np.array([[2.0, 1.0]])):
            with pytest.raises(DomainError, match="normal form"):
                Realization(2, factor, [[1.0], [1.0]])

    def test_non_finite_factors_rejected(self):
        for U, V in (
            ([[1.0, np.nan]], [[1.0], [1.0]]),
            ([[1.0, 1.0]], [[np.inf], [1.0]]),
            ([[1.0, -np.inf]], [[1.0], [1.0]]),
        ):
            with pytest.raises(DomainError):
                Realization(2, U, V)


class TestRationalize:
    def test_a1_certificate(self):
        real = search_realization(A1_PATTERN, 2, SearchParams(seed=1))
        cert = rationalize(A1_PATTERN, real)
        assert cert.rank <= 2
        assert cert.verify()
        assert sympy_rank(cert.matrix) == cert.rank

    def test_fig21_certificate(self):
        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        cert = rationalize(FIG21_PATTERN, real)
        assert cert.rank <= 3
        assert cert.verify()
        assert sympy_rank(cert.matrix) == cert.rank

    def test_rank_computed_once(self, monkeypatch):
        # the rank is proven from the factors' leading r x r minors:
        # rationalize ranks one block of U and one of V, verify() once more
        # each, and every call eliminates a matrix of at most r x r
        import signrank.exactnum

        calls = []
        original = signrank.exactnum.rational_rank
        monkeypatch.setattr(
            signrank.exactnum, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        P, real = _planted_instance(np.random.default_rng(5), 3)
        assert min(P.m, P.n) > 3
        cert = rationalize(P, real)
        assert len(calls) == 2
        assert cert.verify() and len(calls) == 4
        assert all(len(M) <= 3 and all(len(line) <= 3 for line in M) for M in calls)

    def test_draws_no_random_numbers(self, monkeypatch):
        instances = [_planted_instance(np.random.default_rng(k), 3 + k % 3) for k in range(6)]

        def refuse(*args, **kwargs):
            raise AssertionError("rationalize drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for P, real in instances:
            assert rationalize(P, real).verify()

    def test_singular_leading_block_keeps_points(self):
        # zero rows 1 and 2 of column 1 share their second coordinate, so
        # the leading 2 x 2 block is singular; the solve pivots on the third
        # coordinate, and every point of U stays where it was
        U = np.array([[1, 0, -1, 1], [1, -2, 1, 1], [1, -2, -1, -1], [1, 2, 3, 0], [1, 1, -1, -2],
                      [1, 1, -3, 3]], dtype=float)
        V = np.array([[2, 1, -3, 3, -1, 2], [1, 2, -3, 0, -1, 1], [-1, -2, 1, 3, -1, -3],
                      [1, 1, 1, 1, 1, 1]], dtype=float)
        B = U @ V
        assert B[1, 0] == B[2, 0] == 0 and np.count_nonzero(B) == B.size - 2
        P = SignPattern(np.sign(B).astype(int).tolist())
        assert condense(P).condensed == P
        cert = rationalize(P, Realization(4, U, V))
        assert cert.verify() and sympy_rank(cert.matrix) == cert.rank
        assert [tuple(map(float, row)) for row in cert.factors[0]] == [tuple(row) for row in U]

    def test_denominator_cap_doubles(self):
        # at 2^-32 row 1 rounds to (1, 1/2, 0), whose product with column 1
        # is 0 where it should be 2^-20 - 2^-41 > 0; at 2^-64 both offsets
        # are on the grid and the certificate comes from that cap
        U = np.array([[1, 0.5 + 2.0**-40, -(2.0**-41)], [1, -1, 3], [1, 3, -3], [1, 2, 2], [1, 1, -3]])
        V = np.array([[-(2.0**19), -2, 2, -3, -1], [2.0**20, 2, 2, 1, 3], [1, 1, 1, 1, 1]])
        B = U @ V
        assert B[0, 0] == 2.0**-20 - 2.0**-41 and np.all(np.abs(B) > DEFAULT_ZERO_TOL)
        assert _round_matrix(U[:1], 32) == [[2**32, 2**31, 0]]
        P = SignPattern(np.sign(B).astype(int).tolist())
        assert condense(P).condensed == P
        self.assert_certified_past_first_cap(P, Realization(3, U, V))

    def test_singular_at_first_cap(self):
        # column 1 has zeros in rows 1 and 2; at 2^-32 row 2, (1, 3 * 2^-41,
        # 2), rounds to (1, 0, 2), the leading 2 x 2 block of the zero rows
        # is singular and the solve pivots on the last coordinate; at 2^-64
        # it is not, and v_21 solves to -2^41 / 3
        U = np.array([[1, 0, 1], [1, 3 * 2.0**-41, 2], [1, 0, 0]])
        V = np.array([[-1, 0, -1.5], [-(2.0**41) / 3, 0, 0], [1, 1, 1]])
        P = SignPattern(["0+-", "0++", "-0-"])
        real = Realization(3, U, V)
        assert real.signed_pattern() == P and condense(P).condensed == P
        with pytest.raises(SingularSystem):
            solve_zero_columns(_round_matrix(U, 32), P, 0, V[:, 0])
        assert solve_zero_columns(_round_matrix(U, 64), P, 0, V[:, 0])[1] == Fraction(-(2**41), 3)
        self.assert_certified_past_first_cap(P, real)

    def test_every_cap_fails(self):
        # 2^-70 rounds to 0 at every cap up to 2^64, which turns entry
        # (1, 1) from -1 + 2^-70 * 2^71 = 1 into -1
        U = np.array([[1, 2.0**-70, 0], [1, 0, 2]])
        V = np.array([[-1, -1], [2.0**71, 0], [1, 1]])
        P = SignPattern(["+-", "++"])
        real = Realization(3, U, V)
        assert real.signed_pattern() == P and condense(P).condensed == P
        with pytest.raises(PrecisionExhausted, match="exhausted at 2\\^64"):
            rationalize(P, real)

    def test_misread_sign_gets_every_cap(self):
        # entry (1, 1) of the float product is 2^-41, below the zero
        # tolerance, so the product misreads it as 0 and realizes no
        # signature of P; at 2^-32 it rounds to 0 too, at 2^-64 it is
        # exact, and the input is blamed only once every cap has failed
        U = np.array([[1, 0.5 + 2.0**-40, -(2.0**-41)], [1, -1, 3], [1, 3, -3], [1, 2, 2], [1, 1, -3]])
        V = np.array([[-0.5, -2, 2, -3, -1], [1, 2, 2, 1, 3], [1, 1, 1, 1, 1]])
        B = U @ V
        assert B[0, 0] == 2.0**-41 < DEFAULT_ZERO_TOL
        P = SignPattern(np.sign(B).astype(int).tolist())
        real = Realization(3, U, V)
        assert condense(P).condensed == P and signature_between(P, real.signed_pattern()) is None
        self.assert_certified_past_first_cap(P, real)

    def test_signature_from_the_exact_product(self):
        # entry (1, 4) of the float product is about 1e-10, which the zero
        # tolerance reads as 0, so the float product signs column 4 with no
        # cell; the exact product at 2^-64 is > 0, and the signature read
        # off it negates column 4 onto the pattern's "-"
        U = np.array([[1, 0.5, 0.5 + 1e-10], [1, 1, 0], [1, 0, 1]])
        rng = np.random.default_rng(3)
        while True:
            V = np.vstack([rng.uniform(-3, 3, size=(2, 3)), np.ones((1, 3))])
            B = U @ V
            P = SignPattern(np.hstack([np.sign(B), [[-1], [0], [0]]]).astype(int).tolist())
            if np.abs(B).min() >= 0.3 and condense(P).condensed == P:
                break
        column = np.array([-1.0, 1.0, 1.0])
        real = Realization(3, U, np.hstack([V, column[:, None]]))
        assert 0 < (U @ column)[0] <= DEFAULT_ZERO_TOL and real.signed_pattern().col(3) == (0, 0, 0)
        cert = rationalize(P, real)
        assert cert.verify() and cert.target == P and sympy_rank(cert.matrix) == cert.rank == 3

    @staticmethod
    def assert_certified_past_first_cap(P, real):
        cert = rationalize(P, real)
        assert cert.verify() and sympy_rank(cert.matrix) == cert.rank
        assert max(x.denominator for F in cert.factors for row in F for x in row) > 2**32

    def test_cap_doubles_on_the_dyadic_grid(self):
        # at 2^-32 row 1 rounds to (1, 1/2, 0) and its product with column
        # 1, 2^-20, to zero; at 2^-64 every entry is on the grid
        U = np.array([[1, 0.5 + 2.0**-40, 0], [1, -1, 3], [1, 3, -3], [1, 2, 2], [1, 1, -3]])
        V = np.array([[-(2.0**19), -2, 2, -3, -1], [2.0**20, 2, 2, 1, 3], [1, 1, 1, 1, 1]])
        B = U @ V
        assert B[0, 0] == 2.0**-20 and np.all(np.abs(B) > DEFAULT_ZERO_TOL)
        P = SignPattern(np.sign(B).astype(int).tolist())
        assert condense(P).condensed == P
        self.assert_certified_past_first_cap(P, Realization(3, U, V))

    def test_singular_on_the_first_grid(self):
        # zero rows 1 and 2 of column 1 are (1, 0, 1) and (1, 2^-40, 2); at
        # 2^-32 the second rounds to (1, 0, 2), the leading 2 x 2 block is
        # singular and the solve pivots on the last coordinate
        U = np.array([[1, 0, 1], [1, 2.0**-40, 2], [1, 0, 0]])
        V = np.array([[-1, 0, -1.5], [-(2.0**40), 0, 0], [1, 1, 1]])
        P = SignPattern(["0+-", "0++", "-0-"])
        real = Realization(3, U, V)
        assert real.signed_pattern() == P and condense(P).condensed == P
        with pytest.raises(SingularSystem):
            solve_zero_columns([[1, 0, 1], [1, 0, 2], [1, 0, 0]], P, 0, V[:, 0])
        self.assert_certified_past_first_cap(P, real)

    def test_a0_overdetermined(self):
        # every condensed row has >= 3 zeros too, so the rows cannot stand
        # in for the columns at r = 3
        assert min(row.count(0) for row in condense(A0_PATTERN).condensed.entries) >= 3
        real = search_realization(A0_PATTERN, 3, SearchParams(seed=0))
        with pytest.raises(Overdetermined) as exc:
            rationalize(A0_PATTERN, real)
        assert exc.value.column == 0 and exc.value.count == 4
        assert "column 1 has 4 zeros" in str(exc.value)

    def test_expansion_through_condensation(self):
        # duplicate and opposite rows, an opposite column and a zero column
        # are reinserted
        base = SignPattern(["++", "-+"])
        padded = SignPattern(["+-+0", "-++0", "+-+0", "+--0"])
        assert condense(padded).condensed == base
        real = search_realization(padded, 2, SearchParams(seed=6))
        cert = rationalize(padded, real)
        assert cert.verify()
        assert cert.target == padded
        assert all(v == 0 for row in cert.matrix for v in (row[3],))

    def test_signature_recovery_rejects_wrong_pattern(self):
        real = search_realization(A1_PATTERN, 2, SearchParams(seed=1))
        with pytest.raises(DomainError):
            rationalize(SignPattern(["+++", "-++", "-0-"]), real)

    @pytest.mark.parametrize("route", ["signs", "singular", "transposed"])
    def test_non_realizing_input_raises_domain_error(self, route):
        # the float product is read only once every cap fails; then a
        # product off the pattern is a DomainError, not PrecisionExhausted
        if route == "signs":
            # every cap's exact signs are wrong (the pattern above)
            P = SignPattern(["+++", "-++", "-0-"])
            real = search_realization(A1_PATTERN, 2, SearchParams(seed=1))
        elif route == "singular":
            # zero rows 1 and 2 of column 1 differ only in the last
            # coordinate, so every cap raises SingularSystem
            P = SignPattern(["0+-", "0++", "++-", "-+-"])
            real = Realization(3, [[1, 2, 9], [1, 2, 7], [1, -1, 0], [1, 0, 3]],
                               [[1, 2, -1], [0.5, 1, 2], [1, 1, 1]])
            with pytest.raises(SingularSystem):
                solve_zero_columns(real.U, P, 0, [0, 0, 1])
        else:
            # column 1 is over-full, so the rows are certified, with one
            # entry's sign changed from what the realization gives
            base = SignPattern(["0+++", "0-++", "0+-+", "++++"])
            real = search_realization(base, 3, SearchParams(seed=8))
            P = SignPattern(["0+++", "0-++", "0+-+", "+++-"])
            assert max(P.col(j).count(0) for j in range(P.n)) > 2
        assert condense(P).condensed == P and (len(real.U), len(real.V[0])) == (P.m, P.n)
        assert signature_between(P, real.signed_pattern()) is None
        with pytest.raises(DomainError, match="does not realize the pattern"):
            rationalize(P, real)

    def test_random_3xn_certificates(self):
        rng = np.random.default_rng(101)
        produced = 0
        attempts = 0
        while produced < 25 and attempts < 200:
            attempts += 1
            n = int(rng.integers(3, 6))
            P = SignPattern(
                rng.choice([-1, 0, 1], size=(3, n), p=[0.4, 0.2, 0.4]).tolist()
            )
            C = condense(P).condensed
            if C.m == 0 or any(C.col(j).count(0) > 2 for j in range(C.n)):
                continue
            real = search_realization(P, 3, SearchParams(seed=attempts, restarts=16))
            if real is None:
                continue
            cert = rationalize(P, real)
            assert cert.verify() and cert.rank <= 3
            produced += 1
        assert produced == 25

    def test_perturbed_configuration_keeps_pattern(self):
        # encoding a rational configuration, searching, and rationalizing
        # reproduces the configuration's pattern exactly
        rng = np.random.default_rng(55)
        for _ in range(10):
            C = random_planar_config(rng, 4, 5, max_incidence=2)
            P = encode_configuration(C)
            real = search_realization(P, 3, SearchParams(seed=77))
            assert real is not None
            cert = rationalize(P, real)
            assert cert.verify()
            assert cert.target == P

    def test_transpose_route(self):
        # column 1 has 3 zeros (too many for r = 3) but every row has at
        # most one, so rationalize takes the rows: its certificate is the
        # explicit transpose route's, transposed back
        P = SignPattern(["0+++", "0-++", "0+-+", "++++"])
        assert condense(P).condensed == P
        assert max(P.col(j).count(0) for j in range(P.n)) > 2
        real = search_realization(P, 3, SearchParams(seed=8))
        assert real is not None
        cert_t = rationalize(P.transpose(), real.transpose())
        assert cert_t.verify()
        transposed = tuple(zip(*cert_t.matrix))
        signs = SignPattern([[(v > 0) - (v < 0) for v in row] for row in transposed])
        assert signs == P
        assert rational_rank(transposed) == cert_t.rank <= 3
        cert = rationalize(P, real)
        assert cert.verify()
        U_t, V_t = cert_t.factors
        assert cert == RationalCertificate(
            transposed, cert_t.rank, P, (tuple(zip(*V_t)), tuple(zip(*U_t)))
        )

    def test_rows_through_condensation(self):
        # the row-fit pattern above padded with an opposite column, an
        # opposite row and a zero row: the transposed certificate expands
        # back to the original shape
        padded = SignPattern(["0+++-", "0-++-", "0+-+-", "++++-", "0---+", "00000"])
        real = search_realization(padded, 3, SearchParams(seed=8))
        cert = rationalize(padded, real)
        assert cert.verify() and cert.target == padded
        U, V = cert.factors
        assert (len(U), len(V), len(V[0])) == (6, 3, 5)
        assert cert.rank == sympy_rank(cert.matrix) == 3


def _dense_planted_pattern(rng, m, n, r):
    """sgn(U V) for Gaussian m x r and r x n factors whose product keeps
    every entry at least 1e-3 from zero: a zero-free pattern of mr <= r."""
    while True:
        B = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        if np.abs(B).min() > 1e-3:
            return SignPattern(np.sign(B).astype(int).tolist())


def _planted_instance(rng, r):
    """A pattern sgn(U V) for Gaussian normal-form factors at rank r with up
    to r-1 planted zeros per column, with zero, duplicate and opposite rows
    and columns mixed in (as zero, copied and negated factor lines), and a
    normal-form realization of its condensed form."""
    while True:
        m, n = int(rng.integers(r + 1, r + 6)), int(rng.integers(r + 1, r + 6))
        U = rng.standard_normal((m, r))
        U[:, 0] = 1.0
        V = rng.standard_normal((r, n))
        V[-1, :] = 1.0
        zero = np.zeros((m, n), dtype=bool)
        max_zeros = int(rng.integers(0, r))
        for j in range(n):
            s = int(rng.integers(0, max_zeros + 1))
            if s:
                rows = rng.choice(m, s, replace=False)
                V[:s, j] = np.linalg.solve(U[rows][:, :s], -(U[rows][:, s:] @ V[s:, j]))
                zero[rows, j] = True
        for _ in range(int(rng.integers(0, 4))):
            kind, src = int(rng.integers(0, 3)), int(rng.integers(0, len(U)))
            pos = int(rng.integers(0, len(U) + 1))
            line = (0.0, 1.0, -1.0)[kind] * U[src]
            U = np.insert(U, pos, line, axis=0)
            zero = np.insert(zero, pos, zero[src] | (kind == 0), axis=0)
        for _ in range(int(rng.integers(0, 4))):
            kind, src = int(rng.integers(0, 3)), int(rng.integers(0, V.shape[1]))
            pos = int(rng.integers(0, V.shape[1] + 1))
            line = (0.0, 1.0, -1.0)[kind] * V[:, src]
            V = np.insert(V, pos, line, axis=1)
            zero = np.insert(zero, pos, zero[:, src] | (kind == 0), axis=1)
        B = U @ V
        if np.any(np.abs(B[~zero]) < 1e-6) or np.any(np.abs(B[zero]) > 1e-11):
            continue
        P = SignPattern(np.where(zero, 0, np.sign(B)).astype(int).tolist())
        report = condense(P)
        if len(report.kept_rows) <= r or len(report.kept_cols) <= r:
            continue
        # kept lines are base lines or their negations: rescale to normal form
        Uk = U[list(report.kept_rows)]
        Vk = V[:, list(report.kept_cols)]
        return P, Realization(r, Uk / Uk[:, :1], Vk / Vk[-1:, :])


def _fraction_product(U, V):
    return tuple(
        tuple(sum((u * v for u, v in zip(row, col)), Fraction(0)) for col in zip(*V))
        for row in U
    )


class TestFactoredCertificates:
    def test_planted_ranks_against_sympy(self):
        rng = np.random.default_rng(2024)
        redundant = 0
        for k in range(64):
            r = 2 + k % 4
            P, real = _planted_instance(rng, r)
            redundant += condense(P).condensed != P
            cert = rationalize(P, real)
            U, V = cert.factors
            assert len(U) == P.m and len(V) == r and all(len(row) == P.n for row in V)
            assert _fraction_product(U, V) == cert.matrix
            assert cert.rank == sympy_rank(cert.matrix) == r
            assert cert.verify()
        assert redundant >= 40

    def test_json_round_trip_adds_factors(self):
        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        cert = rationalize(FIG21_PATTERN, real)
        doc = cert.to_dict()
        assert set(doc) == {"rank", "target", "matrix", "U", "V"}
        back = RationalCertificate.from_dict(doc)
        assert back == cert and back.verify()

    def test_old_format_verifies_by_elimination(self, monkeypatch):
        import signrank.exactnum

        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        doc = rationalize(FIG21_PATTERN, real).to_dict()
        del doc["U"], doc["V"]
        old = RationalCertificate.from_dict(doc)
        assert old.factors is None
        calls = []
        original = signrank.exactnum.rational_rank
        monkeypatch.setattr(
            signrank.exactnum, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        assert old.verify()
        assert calls == [old.matrix]
        assert not rebuilt(old, rank=old.rank - 1).verify()

    @pytest.mark.parametrize("rank", [1.9, 2.5, True, "3/1"])
    def test_non_integer_rank_rejected(self, rank):
        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        doc = rationalize(FIG21_PATTERN, real).to_dict()
        assert RationalCertificate.from_dict(dict(doc, rank=float(doc["rank"]))).verify()
        with pytest.raises(DomainError, match="'rank' must be an integer"):
            RationalCertificate.from_dict(dict(doc, rank=rank))

    def test_bool_entry_rejected(self):
        doc = {"rank": 1, "target": ["+"], "matrix": [[1]]}
        assert RationalCertificate.from_dict(doc).verify()
        with pytest.raises(DomainError, match="True"):
            RationalCertificate.from_dict(dict(doc, matrix=[[True]]))
        with pytest.raises(DomainError, match="True"):
            RationalCertificate.from_dict(dict(doc, U=[[True]], V=[[1]]))

    def test_bool_target_rejected(self, tmp_path):
        # JSON true is no sign: the target must not read it as +
        from signrank.exactnum import load_certificate

        doc = {"rank": 1, "target": [[1, 1]], "matrix": [[1, 1]]}
        path = tmp_path / "c.cert.json"
        path.write_text(json.dumps(doc))
        assert load_certificate(path).verify()
        path.write_text(json.dumps(dict(doc, target=[[True, True]])))
        with pytest.raises(DomainError, match="True"):
            load_certificate(path)

    def test_tampering_fails_verify(self):
        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        cert = rationalize(FIG21_PATTERN, real)
        assert cert.verify()
        U, V = cert.factors
        i, j = next((i, j) for i, row in enumerate(cert.matrix) for j, v in enumerate(row) if v)
        # one matrix entry doubled: its sign is kept, so only U V == matrix catches it
        matrix = [list(row) for row in cert.matrix]
        matrix[i][j] *= 2
        tampered = rebuilt(cert, matrix=tuple(map(tuple, matrix)))
        assert tampered.target == cert.target and not tampered.verify()
        # one factor entry changed
        U2 = [list(row) for row in U]
        U2[i][1] += Fraction(1, 3)
        assert not rebuilt(cert, factors=(tuple(map(tuple, U2)), V)).verify()
        # a wrong rank claim
        assert not rebuilt(cert, rank=cert.rank - 1).verify()
        assert not rebuilt(cert, rank=cert.rank + 1).verify()
        # factors of the wrong shape are rejected on construction
        with pytest.raises(DomainError):
            rebuilt(cert, factors=(U[1:], V))
        with pytest.raises(DomainError):
            rebuilt(cert, factors=(tuple(row[:2] for row in U), V))

    def test_singular_leading_minor_falls_back(self, monkeypatch):
        # a duplicate of the first row, restored by the expansion, makes U's
        # leading r x r block singular although U has rank r: the proof
        # eliminates the whole of U and still finds rank r
        import signrank.exactnum

        P, real = _planted_instance(np.random.default_rng(5), 3)
        doubled = SignPattern((P.entries[0],) + P.entries)
        assert condense(doubled).condensed == condense(P).condensed
        cert = rationalize(doubled, real)
        U, V = cert.factors
        assert U[0] == U[1] and rational_rank(U[:3]) < 3
        calls = []
        original = signrank.exactnum.rational_rank
        monkeypatch.setattr(
            signrank.exactnum, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        assert cert.verify() and cert.rank == sympy_rank(cert.matrix) == 3
        assert [len(M) for M in calls] == [3, len(U), 3]
        assert not rebuilt(cert, rank=2).verify()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rank_deficient_factor_falls_back(self, monkeypatch, transpose):
        import signrank.exactnum

        # U has two equal columns, so U V has rank 2 although r = 3; the
        # transpose puts the deficient factor on the right
        U = tuple(tuple(map(Fraction, row)) for row in [(1, 1, 0), (2, 2, 1), (3, 3, -1), (1, 1, 2)])
        V = tuple(tuple(map(Fraction, row)) for row in [(1, 0, 2, -1), (0, 1, -1, 3), (2, -1, 1, 1)])
        if transpose:
            U, V = tuple(zip(*V)), tuple(zip(*U))
        matrix = _fraction_product(U, V)
        target = SignPattern([[(v > 0) - (v < 0) for v in row] for row in matrix])
        assert sympy_rank(matrix) == 2
        calls = []
        original = signrank.exactnum.rational_rank
        monkeypatch.setattr(
            signrank.exactnum, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        cert = RationalCertificate(matrix, 2, target, (U, V))
        assert cert.verify()
        assert calls[-1] == matrix
        assert not rebuilt(cert, rank=3).verify()


class TestPlainNumberCertificates:
    # a certificate built in code may hold int or float entries: every
    # finite one is read at its exact value, and a non-finite one fails
    U = ((1, 0.5), (1.0, -2), (1, Fraction(1, 4)))
    V = ((0.25, -1, 3), (1, 1.0, 1))

    def certificate(self, factored):
        matrix = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*self.V))
                       for row in self.U)
        target = SignPattern([[(v > 0) - (v < 0) for v in row] for row in matrix])
        return RationalCertificate(matrix, 2, target, (self.U, self.V) if factored else None)

    @pytest.mark.parametrize("factored", [False, True])
    def test_floats_verify(self, factored):
        cert = self.certificate(factored)
        assert any(type(v) is float for row in cert.matrix for v in row)
        assert cert.verify() is True
        assert cert.target == SignPattern(["+-+", "--+", "+-+"])
        assert rebuilt(cert, rank=1).verify() is False

    @pytest.mark.parametrize("factored", [False, True])
    def test_numpy_integers_verify(self, factored):
        # entries straight from an integer numpy product; tampering keeps the
        # signs, so only the product (factored) or the rank (not) catches it
        U, V = np.array([[1, 2], [1, -1], [1, 0]]), np.array([[3, -1, 1], [1, 1, 1]])
        matrix = tuple(map(tuple, U @ V))
        assert type(matrix[0][0]) is np.int64
        target = SignPattern(np.sign(U @ V).tolist())
        factors = (tuple(map(tuple, U)), tuple(map(tuple, V))) if factored else None
        cert = RationalCertificate(matrix, 2, target, factors)
        assert cert.verify() is True
        assert cert.to_dict()["matrix"] == (U @ V).tolist()
        tampered = ((matrix[0][0] + np.int64(1),) + matrix[0][1:],) + matrix[1:]
        assert rational_rank(tampered) == 3
        assert rebuilt(cert, matrix=tampered).verify() is False

    # a Fraction built around a numpy integer keeps its numpy numerator, and
    # numpy integers wrap in int64: 2^32 * 2^32 must stay 2^64, not become 0
    BIG = Fraction(np.int64(2**32))
    HUGE = Fraction(np.int64(2**40))

    def numpy_backed(self):
        U, V = ((1, self.HUGE), (1, -self.HUGE)), ((1, 2), (self.HUGE, 1))
        matrix = ((1 + 2**80, 2 + 2**40), (1 - 2**80, 2 - 2**40))
        return RationalCertificate(matrix, 2, SignPattern(["++", "--"]), (U, V))

    def test_numpy_backed_false_certificate_fails(self):
        factors = (((1, self.BIG),), ((0,), (self.BIG,)))
        assert RationalCertificate(((0,),), 0, SignPattern(["0"]), factors).verify() is False

    def test_numpy_backed_certificate_verifies(self):
        assert self.numpy_backed().verify() is True

    def test_numpy_backed_to_dict_writes_ints(self):
        doc = self.numpy_backed().to_dict()
        assert doc["U"] == [[1, 2**40], [1, -(2**40)]]
        assert all(type(v) is int for key in ("matrix", "U", "V") for row in doc[key] for v in row)

    def test_numpy_backed_entry_gives_bool(self):
        matrix = ((Fraction(np.int64(2)), Fraction(1)), (Fraction(1), Fraction(1)))
        assert RationalCertificate(matrix, 2, SignPattern(["++", "++"])).verify() is True

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rank_of_non_finite_raises_domain_error(self, bad):
        with pytest.raises(DomainError):
            rational_rank([[1.0, bad]])

    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fails(self, factored, bad):
        cert = self.certificate(factored)
        matrix = (cert.matrix[0][:2] + (bad,),) + cert.matrix[1:]
        assert rebuilt(cert, matrix=matrix).verify() is False
        if factored:
            U = ((1, bad),) + self.U[1:]
            assert rebuilt(cert, factors=(U, self.V)).verify() is False


class TestPinnedCertificates:
    # sha256 of the certificate files that save_certificate writes (x86-64,
    # numpy 2.4.6).  ("A1",) and ("fig21",) certify searched realizations.
    # ("planted", seed, r) certifies _planted_instance(default_rng(seed), r):
    # each but (16, 3) is expanded back through its condensation, and (0, 3),
    # (4, 4) and (11, 5) condense to zero-free patterns.  ("transposed",
    # seed, r) certifies the transpose of such an instance; a column of it
    # carries more than r-1 zeros, so it takes the transpose route
    PINNED_SHA256 = {
        ("A1",):
            "bda61a8ceefc9905a70c1f405d6223adfb2e1442d33c55b20fe445f93be6ac2e",
        ("fig21",):
            "2c2d61be91235064662a6d68f52e578930563c7a961c9ac3353dd6287ed0d725",
        ("planted", 0, 3):
            "d14db79cbffd2aca9eeb9ef93c92aca601859efd237722a012366d6cc5dac11e",
        ("planted", 1, 4):
            "9e2945154cb67e52fb8f1e223eba6cb3b9554f293aadcb2ed9f26a4312975bd2",
        ("planted", 4, 4):
            "cdf0cce8b4ea8fb32e7b07317ec53f3ea2be4c8e6195fdb7df1c506063755360",
        ("planted", 2, 5):
            "6200b262b9b4e453572ad756fb85441d4a8a811a1bef4644e7c6755fbf402586",
        ("planted", 11, 5):
            "c72c0074da5545b3b77a5f1cd4b92a844c7c1adc1df08b1363c18f377ca62caf",
        ("planted", 16, 3):
            "464f1abd15f9df08b568a356d9e19fed2e5f06629d72350111cef5b6e8514f3a",
        ("transposed", 10, 3):
            "baef6244cc6dfa49b1d4c8ec48d5ba3aeae9326317af0c69b82527e91bd39ab7",
        ("transposed", 24, 4):
            "842873521fa58fae1178ce677729a0950ecd173b17f9e7419d29db0d6be72338",
    }

    @pytest.mark.parametrize("key", sorted(PINNED_SHA256, key=str),
                             ids=lambda k: "-".join(map(str, k)))
    def test_certificate_bytes_unchanged(self, tmp_path, key):
        import hashlib

        from signrank.exactnum import save_certificate

        P, real = self._instance(key)
        cert = rationalize(P, real)
        assert cert.verify()
        path = tmp_path / "c.cert.json"
        save_certificate(cert, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256[key]

    @staticmethod
    def _instance(key):
        if key == ("A1",):
            return A1_PATTERN, search_realization(A1_PATTERN, 2, SearchParams(seed=1))
        if key == ("fig21",):
            return FIG21_PATTERN, search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        P, real = _planted_instance(np.random.default_rng(key[1]), key[2])
        if key[0] == "transposed":
            P, real = P.transpose(), real.transpose()
        return P, real

    @pytest.mark.parametrize("key", sorted(PINNED_SHA256, key=str) + [("duplicates",)],
                             ids=lambda k: "-".join(map(str, k)))
    def test_document_rows_certify_alike(self, tmp_path, key):
        # the search answers with the one realization class; the document
        # of a realization reads back equal to it, and rationalize on the
        # read-back rows (as the CLI runs it) saves the same bytes, on the
        # transposed route too
        from signrank.exactnum import save_certificate

        if key == ("duplicates",):
            # the row-fit pattern with an opposite column, an opposite row
            # and a zero row deleted by its condensation
            P = SignPattern(["0+++-", "0-++-", "0+-+-", "++++-", "0---+", "00000"])
            real = search_realization(P, 3, SearchParams(seed=8))
        else:
            P, real = self._instance(key)
        assert isinstance(real, Realization)
        assert read_realization(real.to_dict()) == real
        saved = []
        for form in (real, read_realization(real.to_dict())):
            path = tmp_path / f"c{len(saved)}.cert.json"
            save_certificate(rationalize(P, form), path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


PINNED_KEYS = sorted(TestPinnedCertificates.PINNED_SHA256, key=str)


def _planted_sweep():
    """The 64 planted instances of ``test_planted_ranks_against_sympy``."""
    rng = np.random.default_rng(2024)
    return [_planted_instance(rng, 2 + k % 4) for k in range(64)]


class TestDyadicGrid:
    # rationalize rounds U and V to multiples of 2^-32, then of 2^-64
    def test_planted_sweep_at_the_first_cap(self):
        # every entry that no solve touches is on the 2^-32 grid: all of U
        # and every column of V without zeros (the sweep fits its columns)
        for P, real in _planted_sweep():
            cert = rationalize(P, real)
            assert cert.verify() and sympy_rank(cert.matrix) == cert.rank
            U, V = cert.factors
            unsolved = [x for row in U for x in row]
            unsolved += [x for col, target in zip(zip(*V), zip(*P.entries)) if 0 not in target for x in col]
            assert all(2**32 % x.denominator == 0 for x in unsolved)
            assert all(x in (-1, 0, 1) for x in V[-1])

    def test_exact_low_rank_realizations_keep_their_values(self):
        # the r <= 2 realizations of search_realization are exact in floats
        # (halves), so each certificate line is a realization line, up to
        # the signature
        rng = np.random.default_rng(39)
        patterns = [(condense(A1_PATTERN).condensed, 2), (SignPattern(["++", "--"]), 1)]
        for _ in range(60):
            m, n = (int(k) for k in rng.integers(2, 7, size=2))
            B = rng.integers(-2, 3, size=(m, 2)) @ rng.integers(-2, 3, size=(2, n))
            patterns.append((condense(SignPattern(np.sign(B).tolist())).condensed, 2))
        certified = 0
        for C, r in patterns:
            real = search_realization(C, r)
            if real is None or any(col.count(0) > r - 1 for col in zip(*C.entries)):
                continue
            cert = rationalize(C, real)
            assert cert.verify() and sympy_rank(cert.matrix) == cert.rank
            U, V = cert.factors
            for got, want in ((U, real.U), (zip(*V), zip(*real.V))):
                for line, floats in zip(got, want):
                    exact = tuple(map(Fraction, floats))
                    assert line in (exact, tuple(-x for x in exact))
            certified += 1
        assert certified >= 30


class TestForestSignature:
    # rationalize propagates its signature over a spanning forest of the
    # nonzero cells of the exact product (signature_between); where the
    # float product realizes the pattern too, that is the signature which
    # signature_between finds on the float product.  The normal form's ones
    # (U's first column, V's last row) survive rounding and the zero
    # solves, so the certificate's factors carry the signature there
    @staticmethod
    def assert_agrees(P, real):
        report = condense(P)
        if any(col.count(0) > real.r - 1 for col in zip(*report.condensed.entries)):
            # the rows are certified
            P, real = P.transpose(), real.transpose()
            report = condense(P)
        expected = signature_between(report.condensed, real.signed_pattern())
        assert expected is not None
        cert = rationalize(P, real)
        assert cert.verify() and cert.target == P
        U, V = cert.factors
        assert (tuple(U[i][0] for i in report.kept_rows),
                tuple(V[-1][j] for j in report.kept_cols)) == expected
        return expected

    def test_planted_sweep(self):
        for P, real in _planted_sweep():
            self.assert_agrees(P, real)

    @pytest.mark.parametrize("key", PINNED_KEYS, ids=lambda k: "-".join(map(str, k)))
    def test_pinned_instances(self, key):
        self.assert_agrees(*TestPinnedCertificates._instance(key))

    def test_two_components(self):
        # block-diagonal patterns: each block's first row is the lowest line
        # of its component, so it takes + whatever its product's signs, and
        # a column whose product has the wrong sign is negated
        cases = [([[1, 1], [1, 0]], [[0, -1], [1, 1]]),
                 # a triangle: point i lies on every line but line i
                 ([[1, 0, 0], [1, 1, 1], [1, 2, -1]], [[-3, 0, 0], [2, 0.5, -1], [1, 1, 1]])]
        for U, V in cases:
            r = len(V)
            real = Realization(r, U, V)
            P = SignPattern([[int(i == j) for j in range(r)] for i in range(r)])
            assert condense(P).condensed == P
            d2 = tuple(real.signed_pattern().entries[j][j] for j in range(r))
            assert -1 in d2 and self.assert_agrees(P, real) == ((1,) * r, d2)

    def test_duplicate_opposite_and_zero_lines(self):
        # the pattern carries a copied, a negated and a zero row and column
        # and a random signature; the realization is of its condensed form
        rng = np.random.default_rng(12)
        for _ in range(40):
            U, V = rng.standard_normal((5, 3)), rng.standard_normal((3, 6))
            U = np.vstack([U, U[1], -U[2], 0 * U[0]])[rng.permutation(8)]
            V = np.hstack([V, V[:, [0]], -V[:, [3]], 0 * V[:, [1]]])[:, rng.permutation(9)]
            B = U @ V
            assert np.abs(B[B != 0]).min() > 1e-6
            signs = np.outer(rng.choice([-1, 1], 8), rng.choice([-1, 1], 9))
            P = SignPattern((np.sign(B) * signs).astype(int).tolist())
            report = condense(P)
            assert report.condensed != P
            Uk, Vk = U[list(report.kept_rows)], V[:, list(report.kept_cols)]
            self.assert_agrees(P, Realization(3, Uk / Uk[:, :1], Vk / Vk[-1:, :]))


class TestCertificateWriter:
    # save_certificate writes the bytes of json.dump(cert.to_dict(), fh,
    # indent=1) and a newline, from its own one-pass writer
    @staticmethod
    def assert_json_layout(cert, path):
        save_certificate(cert, path)
        assert path.read_bytes() == (json.dumps(cert.to_dict(), indent=1) + "\n").encode()

    @pytest.mark.parametrize("key", PINNED_KEYS, ids=lambda k: "-".join(map(str, k)))
    def test_pinned_instances(self, tmp_path, key):
        self.assert_json_layout(rationalize(*TestPinnedCertificates._instance(key)),
                                tmp_path / "c.cert.json")

    def test_planted_sweep(self, tmp_path):
        for P, real in _planted_sweep():
            self.assert_json_layout(rationalize(P, real), tmp_path / "c.cert.json")

    def test_without_factors(self, tmp_path):
        doc = rationalize(FIG21_PATTERN, search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))).to_dict()
        del doc["U"], doc["V"]
        cert = RationalCertificate.from_dict(doc)
        assert cert.factors is None
        self.assert_json_layout(cert, tmp_path / "c.cert.json")

    @pytest.mark.parametrize("rows, r", [(["00", "00"], 1), (["00", "00"], 2), (["-"], 1), (["+"], 2)])
    def test_zero_and_one_by_one_patterns(self, tmp_path, rows, r):
        A = SignPattern(rows)
        cert = rationalize(A, search_realization(A, r))
        assert cert.verify()
        self.assert_json_layout(cert, tmp_path / "c.cert.json")

    def test_empty_lists(self, tmp_path):
        self.assert_json_layout(RationalCertificate((), 0, SignPattern([])), tmp_path / "c.cert.json")

    def test_rows_without_columns(self, tmp_path):
        # a 3 x 0 target is written as three empty rows and reloads as 3 x 0
        from signrank.exactnum import load_certificate

        cert = RationalCertificate(((), (), ()), 0, SignPattern([[], [], []]))
        assert cert.verify() and cert.to_dict()["target"] == ["", "", ""]
        path = tmp_path / "c.cert.json"
        self.assert_json_layout(cert, path)
        back = load_certificate(path)
        assert (back.target.m, back.target.n) == (3, 0) and back.verify()

    def test_every_verified_certificate_round_trips(self, tmp_path):
        # whatever constructs and verifies also saves and loads back equal;
        # a rank of True, 1.0 or Fraction(1) once verified as 1, and then was
        # written as "rank": true or not written at all
        from signrank.exactnum import load_certificate

        planted = rationalize(FIG21_PATTERN, search_realization(FIG21_PATTERN, 3, SearchParams(seed=4)))
        plain = TestPlainNumberCertificates()
        shapes = [
            (((1,),), SignPattern(["+"]), None),
            (((1,),), SignPattern(["+"]), (((1,),), ((1,),))),
            (((0.5, -1),), SignPattern(["+-"]), (((1,),), ((0.5, -1),))),
            ((tuple(map(np.int64, (3, -2))),), SignPattern(["+-"]), None),
            (((Fraction(1, 3), 0),), SignPattern(["+0"]), None),
            ((), SignPattern([]), None),
            (((), (), ()), SignPattern([[], [], []]), None),
            (plain.certificate(True).matrix, plain.certificate(True).target, (plain.U, plain.V)),
            (planted.matrix, planted.target, planted.factors),
        ]
        path = tmp_path / "c.cert.json"
        kept = 0
        for matrix, target, factors in shapes:
            for rank in (0, 1, 2, 3, np.int64(1), np.int64(2), True, 1.0, Fraction(1)):
                try:
                    cert = RationalCertificate(matrix, rank, target, factors)
                except DomainError:
                    assert type(rank) not in (int, np.int64)
                    continue
                if cert.verify():
                    save_certificate(cert, path)
                    assert load_certificate(path) == cert
                    kept += 1
        # each shape verifies at its one rank: given as an int, and as a
        # numpy integer where that rank is listed twice
        assert kept == 15

    def test_failing_save_keeps_the_file(self, tmp_path):
        # the text is built before the file is opened: an entry with no
        # exact value fails the save and leaves the old file's bytes alone
        path = tmp_path / "c.cert.json"
        path.write_bytes(b'{"old": true}\n')
        cert = RationalCertificate(((Fraction(1), float("inf")),), 1, SignPattern(["++"]))
        assert cert.verify() is False
        with pytest.raises(DomainError):
            save_certificate(cert, path)
        assert path.read_bytes() == b'{"old": true}\n'


def _low_rank_pin_patterns():
    """600 seeded patterns of 1..7 rows and columns: even k a random pattern
    with zeros, odd k the signs of an integer rank-2 product, which has
    exact zeros wherever an entry cancels."""
    rng = np.random.default_rng(2026)
    for k in range(600):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        if k % 2 == 0:
            yield random_pattern(rng, m, n, 0.3)
        else:
            B = rng.integers(-2, 3, size=(m, 2)) @ rng.integers(-2, 3, size=(2, n))
            yield SignPattern(np.sign(B).tolist())


class TestPinnedSearch:
    # sha256 over search_realization's answers, each b"None" or the shapes
    # and then the bytes of U and V (x86-64, numpy 2.4.6).  LOW_RANK: r = 1
    # and 2, not direct and direct, on _low_rank_pin_patterns (528 of the
    # 600 carry zeros; 1046 of the 2400 answers are realizations).  RANK3:
    # 12 planted rank-3 instances (default_rng(303)) at restarts 2 and iters
    # 400, not direct and direct (23 of the 24 are found).  LARGE: dense
    # planted 20x20 r=4, 25x25 r=4 and 24x22 r=3 patterns (default_rng(2323))
    # at seeds 0-2, restarts 4 and iters 1500; all 9 are found, and their
    # normal forms take 9 to 64 tries (25x25 at seed 1 takes all 64)
    LOW_RANK_SHA256 = "52f6a82a44208ef20a44e183f9d6f28b6fb3f249cd724350aee8e88f5971da9f"
    RANK3_SHA256 = "02742ebc3d7c9679614f7ab07a72c63eed0381aa4a1e16e3e163af245168efdc"
    LARGE_SHA256 = "c9cf597bc7a920587015f0685628219381d028eeb23eb03f23e7cdc5b3b8bc60"

    @staticmethod
    def _update(h, real):
        if real is None:
            h.update(b"None")
        else:
            U, V = factor_arrays(real)
            h.update(repr((U.shape, V.shape)).encode() + U.tobytes() + V.tobytes())

    def test_low_rank_answers_pinned(self):
        import hashlib

        h = hashlib.sha256()
        for P in _low_rank_pin_patterns():
            for r in (1, 2):
                for direct in (False, True):
                    self._update(h, search_realization(P, r, SearchParams(direct=direct)))
        assert h.hexdigest() == self.LOW_RANK_SHA256

    def test_rank3_answers_pinned(self):
        import hashlib

        h = hashlib.sha256()
        rng = np.random.default_rng(303)
        for _ in range(12):
            P, _ = _planted_instance(rng, 3)
            for direct in (False, True):
                params = SearchParams(restarts=2, iters=400, direct=direct)
                self._update(h, search_realization(P, 3, params))
        assert h.hexdigest() == self.RANK3_SHA256

    def test_large_answers_pinned(self):
        import hashlib

        h = hashlib.sha256()
        rng = np.random.default_rng(2323)
        for m, n, r in ((20, 20, 4), (25, 25, 4), (24, 22, 3)):
            P = _dense_planted_pattern(rng, m, n, r)
            for seed in range(3):
                params = SearchParams(restarts=4, iters=1500, seed=seed)
                self._update(h, search_realization(P, r, params))
        assert h.hexdigest() == self.LARGE_SHA256


class TestRationalRank:
    def test_identity(self):
        assert rational_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_outer_product(self):
        assert rational_rank([[4, 5], [8, 10], [12, 15]]) == 1

    def test_empty(self):
        assert rational_rank([]) == 0

    def test_fractions(self):
        M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        assert rational_rank(M) == 1

    def test_against_sympy(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            r = int(rng.integers(1, min(m, n) + 1))
            left = [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(r)] for _ in range(m)]
            right = [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(n)] for _ in range(r)]
            M = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
            assert rational_rank(M) == sympy_rank(M)


class TestDirectRepresentation:
    def test_a1_yes(self):
        result = has_direct_representation(A1_PATTERN, 2)
        assert result.status == "yes"
        witness = result.witness
        assert signature_between(A1_PATTERN, witness.signed_pattern()) == (
            (1, 1, 1),
            (1, 1, 1),
        )

    def test_a2_no(self):
        assert has_direct_representation(A2_PATTERN, 2).status == "no"

    def test_two_by_two_example(self):
        P = SignPattern(["++", "-+"])
        result = has_direct_representation(P, 2)
        assert result.status == "yes"
        U, V = factor_arrays(result.witness)
        B = U @ V
        # substitute: every entry's sign checks out directly
        for i in range(2):
            for j in range(2):
                assert np.sign(B[i, j]) == P.entries[i][j]

    def test_rank3_search_path(self):
        result = has_direct_representation(FIG21_PATTERN, 3)
        assert result.status == "yes"
        assert result.witness.signed_pattern() == FIG21_PATTERN

    @pytest.mark.parametrize("P, status", [
        (SignPattern(["+"]), "no"), (A1_PATTERN, "no"), (FIG21_PATTERN, "yes"),
        (SignPattern(["++-", "+-+"]), "no"),
    ], ids=["plus", "A1", "fig21", "2x3"])
    def test_rank3_needs_mr3(self, monkeypatch, P, status):
        # these once all read yes: a direct search at r = 3 succeeds where
        # mr_bounds proves mr < 3, and then no search runs
        from signrank import realize

        if status == "no":
            monkeypatch.setattr(realize, "_search", lambda *args: pytest.fail("searched"))
        assert has_direct_representation(P, 3).status == status

    def test_rank_above_lower_bound_is_unknown(self):
        # A0 has a direct rank-4 realization, but mr(A0) = 3 < 4
        assert search_realization(A0_PATTERN, 4, SearchParams(direct=True)) is not None
        assert has_direct_representation(A0_PATTERN, 4) == ("unknown", None)

    def test_wrong_rank_is_no(self):
        assert has_direct_representation(SignPattern(["++", "++"]), 2).status == "no"

    # sha256 over the status and the witness (shapes, then the bytes of U and
    # V) at r = 1 and r = 2 of every 2x2 and then every 2x3 pattern, in
    # itertools.product order over (-1, 0, 1) (x86-64, numpy 2.4.6).  1108
    # answers are no and 512 yes
    PINNED_SHA256 = "1bfed3de9858f4ba632b12cd11d4ccfd054b480f96f38672c5f9f6ccd89908f2"

    def test_small_patterns_pinned(self):
        import hashlib

        h = hashlib.sha256()
        for m, n in ((2, 2), (2, 3)):
            for signs in itertools.product((-1, 0, 1), repeat=m * n):
                P = SignPattern([signs[i * n:(i + 1) * n] for i in range(m)])
                for r in (1, 2):
                    result = has_direct_representation(P, r)
                    h.update(result.status.encode())
                    W = result.witness
                    if W is not None:
                        U, V = factor_arrays(W)
                        h.update(repr((U.shape, V.shape)).encode() + U.tobytes() + V.tobytes())
        assert h.hexdigest() == self.PINNED_SHA256
