from fractions import Fraction

import numpy as np
import pytest

from signrank.errors import (
    DomainError,
    Overdetermined,
    RankMismatch,
    SingularSystem,
)
from signrank.fixtures import A0_PATTERN, A1_PATTERN, A2_PATTERN, FIG21_PATTERN
from signrank.geometry import encode_configuration
from signrank.pattern import SignPattern, condense
from signrank.realize import (
    Realization,
    SearchParams,
    has_direct_representation,
    normalize_factorization,
    rational_rank,
    rationalize,
    search_realization,
    signature_between,
    solve_zero_columns,
    transpose_realization,
)

from conftest import random_planar_config, sympy_rank


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
        assert solve_zero_columns(U, A, 0, free_values=[Fraction(3)]) == (Fraction(-11),)

    def test_two_zeros_fully_determined(self):
        U = [[1, 0, 0], [1, 1, 1]]
        A = SignPattern(["0", "0"])
        assert solve_zero_columns(U, A, 0) == (Fraction(0), Fraction(-1))

    def test_singular_when_second_coordinates_collide(self):
        U = [[1, 2, 9], [1, 2, 7]]
        A = SignPattern(["0", "0"])
        with pytest.raises(SingularSystem):
            solve_zero_columns(U, A, 0)

    def test_float_path(self):
        # floats enter at their exact binary value and the solve stays exact
        U = [[1.0, 2.0, 5.0]]
        A = SignPattern(["0"])
        assert solve_zero_columns(U, A, 0, free_values=[3.0]) == (Fraction(-11),)
        (v,) = solve_zero_columns(np.array([[1.0, 0.1, 0.3]]), A, 0, free_values=[np.float64(0.7)])
        assert v == -(Fraction(0.3) + Fraction(0.1) * Fraction(0.7))

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(83)

        def entry(integer):
            if integer:
                return int(rng.integers(-4, 5))
            return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))

        singular = 0
        for trial in range(160):
            s = int(rng.integers(1, 5))
            r = s + 1 + int(rng.integers(0, 3))
            m = s + int(rng.integers(0, 3))
            integer = trial % 2 == 0
            U = [[entry(integer) for _ in range(r)] for _ in range(m)]
            zero_rows = sorted(int(i) for i in rng.choice(m, s, replace=False))
            if trial % 3 == 0:
                # plant a singular system: the last zero row's leading s
                # entries become a combination of the other zero rows' (zero
                # when s = 1)
                last = zero_rows[-1]
                coeffs = [entry(integer) for _ in zero_rows[:-1]]
                U[last][:s] = [
                    sum((c * U[i][k] for c, i in zip(coeffs, zero_rows)), Fraction(0))
                    for k in range(s)
                ]
            A = SignPattern([[0 if i in zero_rows else 1] for i in range(m)])
            free = [entry(integer) for _ in range(r - 1 - s)]
            M = sympy.Matrix([[sympy.Rational(U[i][k]) for k in range(s)] for i in zero_rows])
            if M.det() == 0:
                singular += 1
                with pytest.raises(SingularSystem):
                    solve_zero_columns(U, A, 0, free)
                continue
            sol = solve_zero_columns(U, A, 0, free)
            assert all(type(v) is Fraction for v in sol)
            column = list(sol) + free + [1]
            for i in zero_rows:
                assert sum(U[i][k] * column[k] for k in range(r)) == 0
        assert 50 <= singular < 160

    def test_overdetermined_column(self):
        U = [[1, 1], [1, 2], [1, 3]]
        A = SignPattern(["0", "0", "0"])
        with pytest.raises(Overdetermined):
            solve_zero_columns(U, A, 0)


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

    def test_thread_count_does_not_change_result(self):
        r1 = search_realization(A0_PATTERN, 3, SearchParams(seed=3, threads=1))
        r2 = search_realization(A0_PATTERN, 3, SearchParams(seed=3, threads=4))
        assert np.array_equal(r1.U, r2.U) and np.array_equal(r1.V, r2.V)

    def test_rank_below_one_rejected(self):
        with pytest.raises(DomainError):
            search_realization(A1_PATTERN, 0)

    def test_normal_form_guaranteed(self):
        real = search_realization(A2_PATTERN, 2, SearchParams(seed=9))
        assert np.all(real.U[:, 0] == 1.0)
        assert np.all(real.V[-1, :] == 1.0)


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
        import signrank.realize

        calls = []
        original = signrank.realize.rational_rank
        monkeypatch.setattr(
            signrank.realize, "rational_rank", lambda M: calls.append(M) or original(M)
        )
        real = search_realization(FIG21_PATTERN, 3, SearchParams(seed=4))
        cert = rationalize(FIG21_PATTERN, real)
        assert len(calls) == 1
        assert cert.verify() and len(calls) == 2

    def test_a0_overdetermined(self):
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
        # most one, so the row-wise variant goes through the transpose
        P = SignPattern(["0+++", "0-++", "0+-+", "++++"])
        assert condense(P).condensed == P
        assert max(P.col(j).count(0) for j in range(P.n)) > 2
        real = search_realization(P, 3, SearchParams(seed=8))
        assert real is not None
        with pytest.raises(Overdetermined):
            rationalize(P, real)
        cert_t = rationalize(P.transpose(), transpose_realization(real))
        assert cert_t.verify()
        transposed = tuple(zip(*cert_t.matrix))
        signs = SignPattern([[(v > 0) - (v < 0) for v in row] for row in transposed])
        assert signs == P
        assert rational_rank(transposed) == cert_t.rank <= 3


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
