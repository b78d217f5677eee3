"""Hot numeric kernels for the realization search (numpy).

``penalty_grad`` evaluates the sign-fitting penalty and its analytic
gradients; ``descent`` runs the adaptive gradient loop over the entries that
the 0/1 masks ``free_u`` and ``free_v`` leave free (the search's zero polish
reads the same masks).  Both evaluate ``_penalty`` on the target's signs and
masks, which ``descent`` builds once per call, not once per step.  Zero
targets are only penalized here: the search polishes them afterwards and
``rationalize`` makes them exact.  ``solve_dependent`` has no caller in the
package; it stays because the benchmark's tracer looks the name up.

The penalty for target signs S over B = U @ V with margin t and zero weight
w is one signed hinge h = max(0, t - S b) plus the zero term, its three
sums reduced separately and added in this order:

    sum_{S=+} h^2 + sum_{S=-} h^2 + w * sum_{S=0} b^2

``descent`` fits t = ``TARGET_MARGIN`` and w = ``ZERO_WEIGHT``, from step
size ``LR0``.  ``iters`` caps its steps; it stops earlier for one of two
reasons.  *Cleared*: every hinge residual is at most ``CLEARED * t`` and
every zero residual is below ``HANDOFF``, which is all the zero polish that
follows needs.  *Stalled*: every ``STALL_WINDOW`` steps the penalty is
compared with the previous check, and a fall of less than ``STALL_DROP``
(relative) ends the descent.  The third reason is the cap itself.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# amplified, so the hinges keep real gradient pressure; the search accepts at a smaller margin
TARGET_MARGIN = 0.25
ZERO_WEIGHT = 4.0
LR0 = 0.05
CLEARED = 0.5  # of the margin
HANDOFF = 1e-2
STALL_WINDOW = 100
STALL_DROP = 0.005


def _masks(S):
    return S, np.stack((S > 0, S < 0)).astype(float), (S == 0).astype(float)


def _penalty(U, V, masks, margin, zero_weight):
    signs, sided, zer = masks
    B = U @ V
    h = np.maximum(margin - signs * B, 0.0)
    hinges = h * sided
    rz = B * zer
    hp, hn = np.add.reduce(hinges * hinges, axis=(1, 2))
    pen = float(hp + hn + zero_weight * (rz * rz).sum())
    gB = -2.0 * signs * h + (2.0 * zero_weight) * rz
    cleared = bool(hinges.max() <= CLEARED * margin and np.abs(rz).max() < HANDOFF)
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


def descent(U, V, S, iters, free_u, free_v):
    """(U, V, penalty) after the descent.  ``free_u``/``free_v`` are 0/1
    masks of the entries that move; None frees every entry."""
    masks = _masks(S)
    lr = LR0
    pen, gU, gV, cleared = _penalty(U, V, masks, TARGET_MARGIN, ZERO_WEIGHT)
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
        pen2, gU2, gV2, cleared2 = _penalty(U2, V2, masks, TARGET_MARGIN, ZERO_WEIGHT)
        if pen2 <= pen:
            U, V, pen, gU, gV, cleared = U2, V2, pen2, gU2, gV2, cleared2
            lr *= 1.05
        else:
            lr *= 0.5
    return U, V, pen
