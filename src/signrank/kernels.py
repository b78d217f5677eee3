"""Hot numeric kernels for the realization search (numpy).

``penalty_grad`` evaluates the sign-fitting penalty and its analytic
gradients; ``descent`` runs the adaptive gradient loop over the entries that
``free_u`` and ``free_v`` leave free.  Both evaluate ``_penalty`` on float
sign masks, which ``descent`` builds once per call, not once per step.  Zero
targets are only penalized here: the search polishes them afterwards and
``rationalize`` makes them exact.  ``solve_dependent`` has no caller in the
package; it stays because the benchmark's tracer looks the name up.

The penalty for target signs S over B = U @ V with margin t and zero weight
w, its three sums reduced separately and added in this order:

    sum_{S=+} max(0, t - b)^2 + sum_{S=-} max(0, b + t)^2 + w * sum_{S=0} b^2

``iters`` caps the steps of one descent; it stops earlier for one of two
reasons.  *Cleared*: every hinge residual is at most ``CLEARED * t`` and
every zero residual is below ``HANDOFF``, which is all the zero polish that
follows needs.  *Stalled*: every ``STALL_WINDOW`` steps the penalty is
compared with the previous check, and a fall of less than ``STALL_DROP``
(relative) ends the descent.  The third reason is the cap itself.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

CLEARED = 0.5
HANDOFF = 1e-2
STALL_WINDOW = 100
STALL_DROP = 0.005


def _masks(S):
    return (S > 0).astype(float), (S < 0).astype(float), (S == 0).astype(float)


def _penalty(U, V, masks, margin, zero_weight):
    pos, neg, zer = masks
    B = U @ V
    rp = np.maximum(margin - B, 0.0) * pos
    rn = np.maximum(B + margin, 0.0) * neg
    rz = B * zer
    pen = float((rp * rp).sum() + (rn * rn).sum() + zero_weight * (rz * rz).sum())
    gB = -2.0 * rp + 2.0 * rn + (2.0 * zero_weight) * rz
    limit = CLEARED * margin
    cleared = bool(rp.max() <= limit and rn.max() <= limit and np.abs(rz).max() < HANDOFF)
    return pen, gB @ V.T, U.T @ gB, cleared


def penalty_grad(U, V, S, margin, zero_weight):
    return _penalty(U, V, _masks(S), margin, zero_weight)[:3]


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
    """(U, V, penalty) after the descent.  ``free_u``/``free_v`` are 0/1
    masks of the entries that move; None frees every entry."""
    masks = _masks(S)
    lr = lr0
    pen, gU, gV, cleared = _penalty(U, V, masks, margin, zero_weight)
    checked = pen
    for step in range(iters):
        if cleared:
            break
        if step and step % STALL_WINDOW == 0:
            if pen > (1.0 - STALL_DROP) * checked:
                break
            checked = pen
        U2 = U - (lr * gU if free_u is None else lr * gU * free_u)
        V2 = V - (lr * gV if free_v is None else lr * gV * free_v)
        pen2, gU2, gV2, cleared2 = _penalty(U2, V2, masks, margin, zero_weight)
        if pen2 <= pen:
            U, V, pen, gU, gV, cleared = U2, V2, pen2, gU2, gV2, cleared2
            lr *= 1.05
        else:
            lr *= 0.5
    return U, V, pen
