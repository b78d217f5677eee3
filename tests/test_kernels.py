from collections import Counter

import numpy as np
import pytest

from signrank import kernels


def _instance(seed, m=6, n=7, r=3, zero_prob=0.25):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((m, r))
    V = rng.standard_normal((r, n))
    S = rng.choice(
        np.array([-1, 0, 1], dtype=np.int8),
        size=(m, n),
        p=[(1 - zero_prob) / 2, zero_prob, (1 - zero_prob) / 2],
    )
    return U, V, S


def _dependent_for(S, r):
    deps = []
    for j in range(S.shape[1]):
        zr = [i for i in range(S.shape[0]) if S[i, j] == 0]
        if 1 <= len(zr) <= r - 1:
            deps.append((j, zr))
    return deps


class TestPenaltyGrad:
    def test_zero_penalty_when_satisfied(self):
        U = np.array([[1.0, 1.0]])
        V = np.array([[1.0, -1.0], [1.0, 1.0]])
        S = np.array([[1, 0]], dtype=np.int8)
        pen, gU, gV = kernels.penalty_grad(U, V, S, 1e-2, 4.0)
        assert pen == 0.0
        assert not gU.any() and not gV.any()

    def test_gradients_match_central_differences(self):
        for seed in range(6):
            U, V, S = _instance(seed)
            pen, gU, gV = kernels.penalty_grad(U, V, S, 0.3, 4.0)
            h = 1e-6
            for arr, grad in ((U, gU), (V, gV)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = kernels.penalty_grad(U, V, S, 0.3, 4.0)[0]
                    arr[idx] = orig - h
                    down = kernels.penalty_grad(U, V, S, 0.3, 4.0)[0]
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(grad[idx]))


class TestSolveDependent:
    def test_zeros_become_exact(self):
        U, V, S = _instance(3, zero_prob=0.3)
        deps = _dependent_for(S, 3)
        assert deps
        kernels.solve_dependent(U, V, deps)
        B = U @ V
        for j, rows in deps:
            for i in rows:
                assert abs(B[i, j]) < 1e-12


class TestDescent:
    @staticmethod
    def _satisfiable():
        # the signs of a random rank-3 product, without zeros
        rng = np.random.default_rng(0)
        S = np.sign(rng.standard_normal((7, 3)) @ rng.standard_normal((3, 8))).astype(np.int8)
        return rng.standard_normal((7, 3)), rng.standard_normal((3, 8)), S

    @staticmethod
    def _unreachable():
        # a 3x3 SNS pattern has minimum rank 3, so no rank-2 product fits it
        rng = np.random.default_rng(4)
        S = np.array([[-1, 1, 0], [-1, -1, 1], [-1, -1, -1]], dtype=np.int8)
        return rng.standard_normal((3, 2)), rng.standard_normal((2, 3)), S

    @staticmethod
    def _descend(U, V, S, iters):
        free_u, free_v = np.ones_like(U), np.ones_like(V)
        return kernels.descent(U.copy(), V.copy(), S, iters, free_u, free_v)

    @pytest.mark.parametrize("case", ["_satisfiable", "_unreachable"])
    def test_early_stop_ignores_budget(self, case):
        # the descent stops on cleared signs or on a stall inside the
        # smaller budget, so ten times the budget gives the same bytes
        U, V, S = getattr(self, case)()
        U1, V1, p1 = self._descend(U, V, S, 4000)
        U2, V2, p2 = self._descend(U, V, S, 40000)
        assert U1.tobytes() == U2.tobytes() and V1.tobytes() == V2.tobytes() and p1 == p2

    def test_cleared_stop_leaves_hinges_within_limit(self):
        U0, V0, S = self._satisfiable()
        U, V, _ = self._descend(U0, V0, S, 4000)
        B = U @ V
        t = kernels.TARGET_MARGIN
        limit = kernels.CLEARED * t
        assert (t - B[S > 0] <= limit).all() and (B[S < 0] + t <= limit).all()

    def test_unreachable_target_stalls(self):
        U0, V0, S = self._unreachable()
        U, V, pen = self._descend(U0, V0, S, 4000)
        assert pen > 0.0 and not _reference_cleared(U, V, S, kernels.TARGET_MARGIN)

    def test_penalty_decreases(self):
        U, V, S = _instance(7)
        free_u, free_v = np.ones_like(U), np.ones_like(V)
        p0 = kernels.penalty_grad(U, V, S, kernels.TARGET_MARGIN, kernels.ZERO_WEIGHT)[0]
        _, _, p1 = kernels.descent(U.copy(), V.copy(), S, 500, free_u, free_v)
        assert p1 <= p0

    def test_deterministic(self):
        U, V, S = _instance(8)
        free_u, free_v = np.ones_like(U), np.ones_like(V)
        run = lambda: kernels.descent(U.copy(), V.copy(), S, 300, free_u, free_v)
        U1, V1, p1 = run()
        U2, V2, p2 = run()
        assert np.array_equal(U1, U2) and np.array_equal(V1, V2) and p1 == p2

    def test_pins_respected(self):
        U, V, S = _instance(9)
        U[:, 0] = 1.0
        V[-1, :] = 1.0
        free_u, free_v = np.ones_like(U), np.ones_like(V)
        free_u[:, 0] = 0.0
        free_v[-1, :] = 0.0
        U2, V2, _ = kernels.descent(U.copy(), V.copy(), S, 200, free_u, free_v)
        assert np.all(U2[:, 0] == 1.0)
        assert np.all(V2[-1, :] == 1.0)


def _reference_penalty_grad(U, V, S, margin, zero_weight):
    """The penalty as first written: boolean masks rebuilt on every call,
    ``np.where`` residuals and ``np.sum`` reductions."""
    B = U @ V
    pos = S > 0
    neg = S < 0
    zer = S == 0
    rp = np.where(pos, np.maximum(0.0, margin - B), 0.0)
    rn = np.where(neg, np.maximum(0.0, B + margin), 0.0)
    rz = np.where(zer, B, 0.0)
    pen = float(np.sum(rp * rp) + np.sum(rn * rn) + zero_weight * np.sum(rz * rz))
    gB = -2.0 * rp + 2.0 * rn + (2.0 * zero_weight) * rz
    return pen, gB @ V.T, U.T @ gB


def _reference_cleared(U, V, S, margin):
    """Every hinge residual within ``CLEARED * margin`` and every zero
    residual below ``HANDOFF``, read off boolean-indexed entries."""
    B = U @ V
    limit = kernels.CLEARED * margin
    return bool(
        (np.maximum(0.0, margin - B[S > 0]) <= limit).all()
        and (np.maximum(0.0, B[S < 0] + margin) <= limit).all()
        and (np.abs(B[S == 0]) < kernels.HANDOFF).all()
    )


def _reference_descent(U, V, S, margin, zero_weight, iters, lr0, free_u, free_v):
    """The descent loop over ``_reference_penalty_grad``; also names the
    rule that stopped it."""
    lr = lr0
    pen, gU, gV = _reference_penalty_grad(U, V, S, margin, zero_weight)
    checked = pen
    for step in range(iters):
        if _reference_cleared(U, V, S, margin):
            return U, V, pen, "cleared"
        if step and step % kernels.STALL_WINDOW == 0:
            if pen > (1.0 - kernels.STALL_DROP) * checked:
                return U, V, pen, "stalled"
            checked = pen
        U2 = U - lr * gU * free_u
        V2 = V - lr * gV * free_v
        pen2, gU2, gV2 = _reference_penalty_grad(U2, V2, S, margin, zero_weight)
        if pen2 <= pen:
            U, V, pen, gU, gV = U2, V2, pen2, gU2, gV2
            lr *= 1.05
        else:
            lr *= 0.5
    return U, V, pen, "iters"


class TestBitIdentity:
    """``kernels.descent`` must take every accept/reject decision and stop
    at every step the reference takes, so its factors and penalty equal it
    bit for bit."""

    @staticmethod
    def _cases():
        for seed in range(38):
            if seed < 10:  # zero targets, mostly still descending at 300 steps
                U, V, S = _instance(seed, m=5 + seed % 3, n=6 + seed % 4)
                iters = 300
            elif seed < 20:  # zero-free, mostly satisfiable: the signs clear
                U, V, S = _instance(seed, m=4 + seed % 3, n=5, zero_prob=0.0)
                iters = 4000
            elif seed < 30:  # a badly scaled start: lr halves, then the penalty stalls or crawls
                U, V, S = _instance(seed, zero_prob=0.25 + 0.05 * (seed % 3))
                U, V = U * 1e8, V * 1e8
                iters = 4000
            else:  # past 128 cells, where numpy's pairwise sums add blocks of 128
                m, n = ((16, 16), (25, 24), (40, 40), (23, 25))[(seed - 30) // 2]
                U, V, S = _instance(seed, m=m, n=n, zero_prob=0.1 * (seed % 2))
                iters = 300
            free_u, free_v = np.ones_like(U), np.ones_like(V)
            if seed % 3 == 0:  # the direct mode's normal-form pins
                U[:, 0] = V[-1, :] = 1.0
                free_u[:, 0] = free_v[-1, :] = 0.0
            yield U, V, S, (iters, free_u, free_v)

    def test_descent_equals_reference(self):
        stops = Counter()
        for U, V, S, (iters, free_u, free_v) in self._cases():
            Ur, Vr, pr, stop = _reference_descent(
                U.copy(), V.copy(), S, kernels.TARGET_MARGIN, kernels.ZERO_WEIGHT, iters,
                kernels.LR0, free_u, free_v,
            )
            Uk, Vk, pk = kernels.descent(U.copy(), V.copy(), S, iters, free_u, free_v)
            assert np.array_equal(Uk, Ur) and np.array_equal(Vk, Vr)
            assert pk == pr
            stops[stop] += 1
        assert set(stops) == {"cleared", "stalled", "iters"}, stops

    def test_penalty_grad_equals_reference(self):
        margin, zero_weight = kernels.TARGET_MARGIN, kernels.ZERO_WEIGHT
        for U, V, S, _ in self._cases():
            pen, gU, gV = kernels.penalty_grad(U, V, S, margin, zero_weight)
            pr, gUr, gVr = _reference_penalty_grad(U, V, S, margin, zero_weight)
            assert pen == pr and np.array_equal(gU, gUr) and np.array_equal(gV, gVr)
