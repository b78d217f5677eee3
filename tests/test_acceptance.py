"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live)."""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from signrank import kernels
from signrank.errors import Overdetermined
from signrank.fixtures import (
    A0_KNOWN_MIN_RANK,
    A0_KNOWN_RATIONAL_MIN_RANK,
    derive_perles_check,
    fixture,
)
from signrank.exactnum import rationalize
from signrank.geometry import (
    Configuration,
    encode_configuration,
    from_factorization,
    side,
    stack,
)
from signrank.pattern import (
    MrBoundsOptions,
    SignPattern,
    condense,
    has_direct_representation,
    is_equivalent,
    is_mr2,
    is_sns,
    max_sns_submatrix,
    mr_bounds,
    term_rank,
)
from signrank.realize import SearchParams, search_realization

from conftest import (
    factorial_term_rank,
    permutation_sns,
    random_origin_avoiding_config,
    random_pattern,
    random_planar_config,
    random_witness,
    rank_one_signs,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS: {title}", flush=True)


def test_criterion_1_a0_end_to_end():
    with criterion(1, "A0 end-to-end: condensed, SNS block, bounds (3,3), refusal"):
        A0 = fixture("A0").payload
        assert condense(A0).condensed == A0

        assert is_sns(A0.submatrix((3, 4, 5), (6, 7, 8)))

        size, rows, cols = max_sns_submatrix(A0, cap=4)
        assert size == 3

        start = time.perf_counter()
        real = search_realization(A0, 3, SearchParams(seed=0, restarts=64))
        elapsed = time.perf_counter() - start
        assert real is not None, "no rank-3 realization found"
        assert elapsed < 60.0, f"search took {elapsed:.1f}s"

        bounds = mr_bounds(A0, MrBoundsOptions(try_rank=3, seed=0))
        assert (bounds.lower, bounds.upper) == (
            A0_KNOWN_MIN_RANK,
            A0_KNOWN_MIN_RANK,
        )

        with pytest.raises(Overdetermined) as exc:
            rationalize(A0, real)
        assert exc.value.column == 0 and exc.value.count == 4
        assert "column 1" in str(exc.value) and "4 zeros" in str(exc.value)


def test_criterion_2_perles_fixture():
    with criterion(2, "Perles fixture: exact Q(sqrt5) incidences + equivalence to A0"):
        start = time.perf_counter()
        report = derive_perles_check()
        elapsed = time.perf_counter() - start
        A0 = fixture("A0").payload
        encoded = encode_configuration(fixture("perles_config").payload)
        assert encoded.zero_set() == A0.zero_set()
        assert encoded.count_zeros() == A0.count_zeros()
        assert report.witness is not None
        assert report.witness.apply(encoded) == A0
        assert elapsed < 120.0, f"check took {elapsed:.1f}s"


def test_criterion_3_mr2_characterization():
    with criterion(3, "rank-2 recognition agrees with the tiny-instance oracle on all 512 zero-free 3x3"):
        assert is_mr2(fixture("A1").payload).value
        assert is_mr2(fixture("A2").payload).value
        assert not is_mr2(fixture("A0").payload).value
        assert not is_mr2(SignPattern(["+"])).value

        checked = 0
        for signs in itertools.product((1, -1), repeat=9):
            P = SignPattern([signs[0:3], signs[3:6], signs[6:9]])
            # oracle for zero-free 3x3: mr=1 iff rank-one sign structure;
            # else mr=3 iff sign-nonsingular (no singular member); else mr=2
            if rank_one_signs(P):
                oracle_mr = 1
            elif permutation_sns(P):
                oracle_mr = 3
            else:
                oracle_mr = 2
            assert is_mr2(P).value == (oracle_mr == 2), P.to_text()
            checked += 1
        assert checked == 512


def test_criterion_4_direct_representation():
    with criterion(4, "direct representation: A1 yes, A2 no"):
        assert has_direct_representation(fixture("A1").payload, 2).status == "yes"
        assert has_direct_representation(fixture("A2").payload, 2).status == "no"


def _direct_mr2_config(offset=0):
    # two points and two parallel horizontal lines, shifted by ``offset``:
    # a direct presentation whose pattern has minimum rank exactly 2
    return Configuration(
        2,
        [(offset, 1), (offset + 1, 3)],
        [[-2, 0, 1], [Fraction(offset), 0, 1]][:1] + [[0, 0, 1]],
    )


def test_criterion_5_stacking():
    with criterion(5, "stacking direct rank-2 blocks keeps minimum rank 2"):
        C1 = Configuration(2, [(0, 1), (1, 3)], [[-2, 0, 1], [0, 0, 1]])
        C2 = Configuration(2, [(0, 3), (1, 1)], [[-2, 0, 1], [0, 0, 1]])
        for cfg in (C1, C2):
            P = encode_configuration(cfg)
            assert is_mr2(P).value
            assert has_direct_representation(P, 2).status == "yes"

        double = stack(C1, C2)
        Pd = encode_configuration(double)
        A1b = encode_configuration(C1)
        A2b = encode_configuration(C2)
        assert Pd.submatrix((0, 1), (0, 1)) == A1b
        assert Pd.submatrix((2, 3), (2, 3)) == A2b
        assert all(Pd.entries[i][j] == 1 for i in (0, 1) for j in (2, 3))
        assert all(Pd.entries[i][j] == -1 for i in (2, 3) for j in (0, 1))
        assert is_mr2(Pd).value

        triple = stack(double, C1)
        Pt = encode_configuration(triple)
        assert Pt.m == 6 and Pt.n == 6
        for bi in range(3):
            for bj in range(3):
                if bi == bj:
                    continue
                expected = 1 if bi < bj else -1
                assert all(
                    Pt.entries[i][j] == expected
                    for i in (2 * bi, 2 * bi + 1)
                    for j in (2 * bj, 2 * bj + 1)
                )
        assert is_mr2(Pt).value


def test_criterion_6_certificates():
    with criterion(6, "exact certificates: fig 2.1 at r=3, A1 at r=2, 95/100 random 5x7"):
        fig = fixture("fig21_pattern").payload
        real = search_realization(fig, 3, SearchParams(seed=1))
        cert = rationalize(fig, real)
        assert cert.verify() and cert.rank <= 3

        A1 = fixture("A1").payload
        real = search_realization(A1, 2, SearchParams(seed=1))
        cert = rationalize(A1, real)
        assert cert.verify() and cert.rank <= 2

        rng = np.random.default_rng(2024)
        successes = 0
        worst_verify = 0.0
        for trial in range(100):
            C = random_planar_config(rng, n_points=5, n_lines=7, max_incidence=2)
            P = encode_configuration(C)
            real = search_realization(P, 3, SearchParams(seed=trial, restarts=64))
            if real is None:
                continue
            try:
                cert = rationalize(P, real)
            except Exception:
                continue
            t0 = time.perf_counter()
            ok = cert.verify()
            dt = time.perf_counter() - t0
            worst_verify = max(worst_verify, dt)
            if ok and cert.rank <= 3:
                successes += 1
        assert successes >= 95, f"only {successes}/100 certificates"
        assert worst_verify < 1.0, f"slowest verification {worst_verify:.3f}s"


def test_criterion_7_property_suites():
    with criterion(7, "property suites: round-trip, dual law, invariance, gradients, term rank"):
        rng = np.random.default_rng(7001)

        # encode(from_factorization(U, V)) = sgn(UV) on 500 normal-form pairs
        for _ in range(500):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            r = int(rng.integers(2, 5))
            U = [
                [Fraction(1)]
                + [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(r - 1)]
                for _ in range(m)
            ]
            V = [
                [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(n)]
                for _ in range(r - 1)
            ] + [[Fraction(1)] * n]
            C = from_factorization(U, V)
            expected = SignPattern(
                [
                    [
                        (lambda v: (v > 0) - (v < 0))(sum(U[i][k] * V[k][j] for k in range(r)))
                        for j in range(n)
                    ]
                    for i in range(m)
                ]
            )
            assert encode_configuration(C) == expected

        # dual-transpose law on 100 origin-avoiding configurations
        for _ in range(100):
            C = random_origin_avoiding_config(rng)
            from signrank.geometry import dualize

            result = dualize(C)
            original = SignPattern([[side(p, h) for h in C.hyperplanes] for p in C.points])
            dualled = SignPattern(
                [
                    [side(p, h) for h in result.configuration.hyperplanes]
                    for p in result.configuration.points
                ]
            )
            flips = [-1 if j in result.hyperplane_flips else 1 for j in range(original.n)]
            adjusted = SignPattern(
                [[flips[j] * original.entries[i][j] for j in range(original.n)] for i in range(original.m)]
            )
            assert dualled == adjusted.transpose()

        # equivalence-invariance of every rank statistic under 200 transforms
        for _ in range(200):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            A = random_pattern(rng, m, n, 0.25)
            B = random_witness(rng, m, n).apply(A)
            assert is_mr2(A).value == is_mr2(B).value
            assert term_rank(A) == term_rank(B)
            assert max_sns_submatrix(A, 3)[0] == max_sns_submatrix(B, 3)[0]
            ba = mr_bounds(A, MrBoundsOptions(sns_cap=3))
            bb = mr_bounds(B, MrBoundsOptions(sns_cap=3))
            assert (ba.lower, ba.upper) == (bb.lower, bb.upper)

        # analytic penalty gradient vs central differences on 50 instances
        for _ in range(50):
            m, n, r = int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
            U = rng.standard_normal((m, r))
            V = rng.standard_normal((r, n))
            S = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(m, n))
            _, gU, gV = kernels.penalty_grad(U, V, S, 0.5, 4.0)
            h = 1e-6
            for _ in range(6):
                arr, grad = (U, gU) if rng.integers(0, 2) == 0 else (V, gV)
                idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                up = kernels.penalty_grad(U, V, S, 0.5, 4.0)[0]
                arr[idx] = orig - h
                down = kernels.penalty_grad(U, V, S, 0.5, 4.0)[0]
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(grad[idx]))

        # term rank vs factorial enumeration on a 1000-pattern sample, n <= 5
        for _ in range(1000):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            P = random_pattern(rng, m, n, 0.4)
            assert term_rank(P) == factorial_term_rank(P)


def test_criterion_8_explicit_non_claims():
    with criterion(8, "refusal on A0 plus documented, unverified rational rank metadata"):
        A0 = fixture("A0").payload
        real = search_realization(A0, 3, SearchParams(seed=0))
        with pytest.raises(Overdetermined):
            rationalize(A0, real)
        # the reported rational minimum rank is carried as documentation
        # only; nothing in this package verifies it
        assert A0_KNOWN_RATIONAL_MIN_RANK == 4
        assert A0_KNOWN_MIN_RANK == 3
        assert "not machine-verified" in fixture("A0").note
