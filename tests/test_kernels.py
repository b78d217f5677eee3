import numpy as np

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
    def test_penalty_decreases(self):
        U, V, S = _instance(7)
        free_u, free_v = np.ones_like(U), np.ones_like(V)
        p0 = kernels.penalty_grad(U, V, S, 1e-2, 4.0)[0]
        _, _, p1 = kernels.descent(
            U.copy(), V.copy(), S, 1e-2, 4.0, 500, 0.05, [], free_u, free_v
        )
        assert p1 <= p0

    def test_deterministic(self):
        U, V, S = _instance(8)
        free_u, free_v = np.ones_like(U), np.ones_like(V)
        run = lambda: kernels.descent(
            U.copy(), V.copy(), S, 1e-2, 4.0, 300, 0.05, [], free_u, free_v
        )
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
        U2, V2, _ = kernels.descent(
            U.copy(), V.copy(), S, 1e-2, 4.0, 200, 0.05, [], free_u, free_v
        )
        assert np.all(U2[:, 0] == 1.0)
        assert np.all(V2[-1, :] == 1.0)
