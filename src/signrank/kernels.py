"""Hot numeric kernels for the realization search (numpy).

``penalty_grad`` evaluates the sign-fitting penalty and its analytic
gradients; ``descent`` runs the adaptive gradient loop over the entries that
``free_u`` and ``free_v`` leave free.  Zero targets are only penalized here:
the search polishes them afterwards and ``rationalize`` makes them exact.
``solve_dependent`` has no caller in the package; it stays because the
benchmark's tracer looks the name up.

The penalty for target signs S over B = U @ V with margin t and zero weight w:

    sum_{S=+} max(0, t - b)^2 + sum_{S=-} max(0, b + t)^2 + w * sum_{S=0} b^2
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def penalty_grad(U, V, S, margin, zero_weight):
    B = U @ V
    pos = S > 0
    neg = S < 0
    zer = S == 0
    rp = np.where(pos, np.maximum(0.0, margin - B), 0.0)
    rn = np.where(neg, np.maximum(0.0, B + margin), 0.0)
    rz = np.where(zer, B, 0.0)
    pen = float(np.sum(rp * rp) + np.sum(rn * rn) + zero_weight * np.sum(rz * rz))
    gB = -2.0 * rp + 2.0 * rn + (2.0 * zero_weight) * rz
    gU = gB @ V.T
    gV = U.T @ gB
    return pen, gU, gV


def solve_dependent(U, V, deps):
    """Solve V[:s, j] so the zero-target rows of column j vanish exactly.
    Returns the number of columns skipped for singularity.  Unused by the
    search; kept only because ``perfbench/tracing.py`` traces this name."""
    skipped = 0
    for j, rows in deps:
        s = len(rows)
        M = U[rows][:, :s]
        rhs = -(U[rows][:, s:] @ V[s:, j])
        det_scale = np.max(np.abs(M)) + 1e-300
        if abs(np.linalg.det(M)) < 1e-12 * det_scale**s:
            skipped += 1
            continue
        V[:s, j] = np.linalg.solve(M, rhs)
    return skipped


def descent(U, V, S, margin, zero_weight, iters, lr0, free_u, free_v):
    lr = lr0
    pen, gU, gV = penalty_grad(U, V, S, margin, zero_weight)
    for _ in range(iters):
        if pen < 1e-22 or lr < 1e-14:
            break
        U2 = U - lr * gU * free_u
        V2 = V - lr * gV * free_v
        pen2, gU2, gV2 = penalty_grad(U2, V2, S, margin, zero_weight)
        if pen2 <= pen:
            U, V, pen, gU, gV = U2, V2, pen2, gU2, gV2
            lr *= 1.05
        else:
            lr *= 0.5
    return U, V, pen
