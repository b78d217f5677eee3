import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from signrank import kernels
from signrank.errors import (
    DomainError,
    Overdetermined,
    RankMismatch,
    SingularSystem,
)
from signrank.fixtures import A0_PATTERN, A1_PATTERN, A2_PATTERN, FIG21_PATTERN
from signrank.geometry import encode_configuration
from signrank.pattern import SignPattern, condense, is_mr2
from signrank.realize import (
    RationalCertificate,
    Realization,
    SearchParams,
    has_direct_representation,
    load_realization,
    normalize_factorization,
    rational_rank,
    rationalize,
    save_realization,
    search_realization,
    signature_between,
    solve_zero_columns,
    transpose_realization,
)

from conftest import (
    permutation_sns,
    random_pattern,
    random_planar_config,
    random_witness,
    rank_one_signs,
    sympy_rank,
)


class TestNormalizeFactorization:
    def test_random_rank3_reconstruction(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 6))
        nf = normalize_factorization(B, 3)
        assert np.all(nf.U[:, 0] == 1.0)
        assert np.all(nf.V[-1, :] == 1.0)
        scaled = np.diag(nf.row_scales) @ B @ np.diag(nf.col_scales)
        err = np.linalg.norm(scaled - nf.U @ nf.V) / np.linalg.norm(scaled)
        assert err < 1e-9

    def test_sign_vectors_match_scales(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        nf = normalize_factorization(B, 2)
        assert nf.row_signs == tuple(int(np.sign(s)) for s in nf.row_scales)
        assert nf.col_signs == tuple(int(np.sign(s)) for s in nf.col_scales)

    def test_negative_leading_entry_forces_negative_sign(self):
        # B = u v^T with u's first entry negative: row 1 must flip
        u = np.array([[-2.0], [1.0], [3.0]])
        v = np.array([[1.0, 2.0, 1.0]])
        B = u @ v + np.outer([0.1, 0.2, -0.3], [1.0, -1.0, 2.0])
        nf = normalize_factorization(B, 2)
        scaled = np.diag(nf.row_scales) @ B @ np.diag(nf.col_scales)
        assert np.allclose(scaled, nf.U @ nf.V, atol=1e-9)

    def test_rank_mismatch_low(self):
        B = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        with pytest.raises(RankMismatch):
            normalize_factorization(B, 2)

    def test_rank_mismatch_high(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((5, 5))
        with pytest.raises(RankMismatch):
            normalize_factorization(B, 2)


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

    def test_failing_restart_descends_once(self, monkeypatch):
        # a 4x4 SNS pattern has mr = 4, so every rank-3 restart fails; each
        # runs one descent of exactly `iters` steps
        P = SignPattern(["-+00", "--+0", "---+", "----"])
        seen = []
        original = kernels.descent

        def recording(U, V, S, margin, zero_weight, iters, *rest):
            seen.append(iters)
            return original(U, V, S, margin, zero_weight, iters, *rest)

        monkeypatch.setattr(kernels, "descent", recording)
        assert search_realization(P, 3, SearchParams(restarts=1, iters=40)) is None
        assert seen == [40]
        assert search_realization(P, 3, SearchParams(restarts=2, iters=0)) is None
        assert seen == [40, 0, 0]

    def test_direct_rank1_needs_plus(self):
        # [-] is realized at rank 1 only with a signature: U = V = [[1]]
        # multiply to +
        neg, pos = SignPattern(["--", "--"]), SignPattern(["++"])
        assert search_realization(neg, 1, SearchParams(direct=True)) is None
        assert has_direct_representation(neg, 1).status == "no"
        real = search_realization(pos, 1, SearchParams(direct=True))
        assert real.product.tolist() == [[1.0]]
        assert search_realization(neg, 1).product.tolist() == [[1.0]]

    def test_rank_below_one_rejected(self):
        with pytest.raises(DomainError):
            search_realization(A1_PATTERN, 0)

    @pytest.mark.parametrize("r", [2, 3])
    def test_negative_seed_rejected(self, r):
        # restart k seeds its generator with seed ^ k, which numpy refuses
        # when negative; the exact ranks reject it as well, like restarts
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            search_realization(A0_PATTERN, r, SearchParams(seed=-1))

    def test_normal_form_guaranteed(self):
        real = search_realization(A2_PATTERN, 2, SearchParams(seed=9))
        assert np.all(real.U[:, 0] == 1.0)
        assert np.all(real.V[-1, :] == 1.0)


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
            assert found.r == r and found.U.shape == (C.m, r) and found.V.shape == (r, C.n)
            assert np.all(found.U[:, 0] == 1.0) and np.all(found.V[-1, :] == 1.0)
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
            real = search_realization(P, 2, SearchParams(direct=direct))
            assert real.product.tolist() == [[float(sign)]]

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


class TestZeroPolish:
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
            S = condense(P).condensed.to_array()
            cells = [(i, j) for j in range(S.shape[1]) for i in range(S.shape[0]) if S[i, j] == 0]
            if not cells:
                continue
            var_index = [(0, i, a) for i in sorted({i for i, _ in cells}) for a in range(r)]
            var_index += [(1, a, j) for j in sorted({j for _, j in cells}) for a in range(r)]
            U = real.U + 1e-3 * rng.standard_normal(real.U.shape)
            V = real.V + 1e-3 * rng.standard_normal(real.V.shape)
            U, V = realize._gauss_newton_zero_polish(U, V, cells, var_index, max_iter=3)
            B = U @ V
            assert max(abs(B[i, j]) for i, j in cells) < 1e-13, k
            polished += 1
        assert polished >= 15


class TestRealizationDocument:
    def test_roundtrip_bits(self, tmp_path):
        from signrank.realize import load_realization, save_realization

        real = search_realization(A1_PATTERN, 2, SearchParams(seed=2))
        path = tmp_path / "real.json"
        save_realization(real, path)
        back = load_realization(path)
        assert np.array_equal(back.U, real.U)
        assert np.array_equal(back.V, real.V)

    def test_normal_form_enforced(self):
        with pytest.raises(DomainError):
            Realization(2, np.array([[2.0, 1.0]]), np.array([[1.0], [1.0]]))
        with pytest.raises(DomainError):
            Realization(2, np.array([[1.0, 1.0]]), np.array([[1.0], [2.0]]))

    @pytest.mark.parametrize("r", [2.5, True, 1.9, "two", None])
    def test_non_integer_r_rejected(self, r):
        doc = {"r": r, "U": [[1.0, 2.0]], "V": [[1.0], [1.0]]}
        with pytest.raises(DomainError, match="'r' must be an integer"):
            Realization.from_dict(doc)

    def test_integral_float_r_accepted(self):
        doc = {"r": 2.0, "U": [[1.0, 2.0]], "V": [[1.0], [1.0]]}
        assert Realization.from_dict(doc).r == 2

    def test_empty_condensation_round_trip(self, tmp_path):
        # "U": [] carries no row width; it is read as a 0 x r matrix
        real = search_realization(SignPattern(["00", "00"]), 3)
        path = tmp_path / "z.real.json"
        save_realization(real, path)
        back = load_realization(path)
        assert back.U.shape == (0, 3) and back.V.shape == (3, 0)
        assert Realization.from_dict({"r": 2, "U": [[1.0, 2.0]], "V": [[1.0], [1.0]]}).U.shape == (1, 2)
        with pytest.raises(DomainError, match="inconsistent shapes"):
            Realization.from_dict({"r": 2, "U": [1.0, 2.0], "V": [[1.0], [1.0]]})

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
        # the rank is proven from the factors: rationalize ranks U (m x r)
        # and V (r x n) once each, verify() once more each, and no call
        # eliminates a matrix larger than r in both dimensions
        import signrank.realize

        calls = []
        original = signrank.realize.rational_rank
        monkeypatch.setattr(
            signrank.realize, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        P, real = _planted_instance(np.random.default_rng(5), 3)
        assert min(P.m, P.n) > 3
        cert = rationalize(P, real)
        assert len(calls) == 2
        assert cert.verify() and len(calls) == 4
        assert all(len(M) <= 3 or len(M[0]) <= 3 for M in calls)

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
        # at cap 2^16 row 1 rounds to (1, 1/2, 0) and its product with
        # column 1, 2^-21, to zero; the certificate comes from a finer cap
        U = np.array([[1, 0.5 + 2.0**-20, -(2.0**-21)], [1, -1, 3], [1, 3, -3], [1, 2, 2], [1, 0, -1]])
        V = np.array([[-0.5, -2, 2, -3, -1], [1, 2, 2, 1, 3], [1, 1, 1, 1, 1]])
        B = U @ V
        assert B[0, 0] == 2.0**-21 and np.all(B != 0)
        P = SignPattern(np.sign(B).astype(int).tolist())
        assert condense(P).condensed == P
        cert = rationalize(P, Realization(3, U, V))
        assert cert.verify() and sympy_rank(cert.matrix) == cert.rank
        assert max(x.denominator for F in cert.factors for row in F for x in row) > 2**16

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
        # duplicate and opposite rows plus a zero column are reinserted
        base = SignPattern(["+-+", "-++"])
        padded = SignPattern(["+-+0", "-++0", "+-+0", "+--0"])
        real = search_realization(padded, 2, SearchParams(seed=6))
        cert = rationalize(padded, real)
        assert cert.verify()
        assert cert.target == padded
        assert all(v == 0 for row in cert.matrix for v in (row[3],))

    def test_signature_recovery_rejects_wrong_pattern(self):
        real = search_realization(A1_PATTERN, 2, SearchParams(seed=1))
        with pytest.raises(DomainError):
            rationalize(SignPattern(["+++", "-++", "-0-"]), real)

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
        cert_t = rationalize(P.transpose(), transpose_realization(real))
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
        import signrank.realize

        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        doc = rationalize(FIG21_PATTERN, real).to_dict()
        del doc["U"], doc["V"]
        old = RationalCertificate.from_dict(doc)
        assert old.factors is None
        calls = []
        original = signrank.realize.rational_rank
        monkeypatch.setattr(
            signrank.realize, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        assert old.verify()
        assert calls == [old.matrix]
        assert not replace(old, rank=old.rank - 1).verify()

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

    def test_tampering_fails_verify(self):
        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        cert = rationalize(FIG21_PATTERN, real)
        assert cert.verify()
        U, V = cert.factors
        i, j = next((i, j) for i, row in enumerate(cert.matrix) for j, v in enumerate(row) if v)
        # one matrix entry doubled: its sign is kept, so only U V == matrix catches it
        matrix = [list(row) for row in cert.matrix]
        matrix[i][j] *= 2
        tampered = replace(cert, matrix=tuple(map(tuple, matrix)))
        assert tampered.target == cert.target and not tampered.verify()
        # one factor entry changed
        U2 = [list(row) for row in U]
        U2[i][1] += Fraction(1, 3)
        assert not replace(cert, factors=(tuple(map(tuple, U2)), V)).verify()
        # a wrong rank claim
        assert not replace(cert, rank=cert.rank - 1).verify()
        assert not replace(cert, rank=cert.rank + 1).verify()
        # factors of the wrong shape are rejected on construction
        with pytest.raises(DomainError):
            replace(cert, factors=(U[1:], V))
        with pytest.raises(DomainError):
            replace(cert, factors=(tuple(row[:2] for row in U), V))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rank_deficient_factor_falls_back(self, monkeypatch, transpose):
        import signrank.realize

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
        original = signrank.realize.rational_rank
        monkeypatch.setattr(
            signrank.realize, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        cert = RationalCertificate(matrix, 2, target, (U, V))
        assert cert.verify()
        assert calls[-1] == matrix
        assert not replace(cert, rank=3).verify()


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
        B = result.witness.product
        # substitute: every entry's sign checks out directly
        for i in range(2):
            for j in range(2):
                assert np.sign(B[i, j]) == P.entries[i][j]

    def test_rank3_search_path(self):
        result = has_direct_representation(FIG21_PATTERN, 3)
        assert result.status == "yes"
        assert result.witness.signed_pattern() == FIG21_PATTERN

    def test_wrong_rank_is_no(self):
        assert has_direct_representation(SignPattern(["++", "++"]), 2).status == "no"


class TestGradientProperty:
    def test_analytic_vs_central_differences(self):
        from signrank import kernels

        rng = np.random.default_rng(99)
        for _ in range(10):
            m, n, r = int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
            U = rng.standard_normal((m, r))
            V = rng.standard_normal((r, n))
            S = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(m, n))
            _, gU, gV = kernels.penalty_grad(U, V, S, 0.5, 4.0)
            h = 1e-6
            for _ in range(10):
                which = rng.integers(0, 2)
                arr, grad = (U, gU) if which == 0 else (V, gV)
                idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                up = kernels.penalty_grad(U, V, S, 0.5, 4.0)[0]
                arr[idx] = orig - h
                down = kernels.penalty_grad(U, V, S, 0.5, 4.0)[0]
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(grad[idx]))
