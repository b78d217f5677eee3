"""Floating-point sign realizations: the numeric search for a normal-form
factor pair at rank r >= 3.

A realization of a condensed sign pattern at rank r is a normal-form factor
pair: U is m x r with first column exactly ones, V is r x n with last row
exactly ones, and sgn(U V) matches the pattern up to row/column signatures
(which this module recovers rather than stores -- the product's own signs
carry them).  ``exactnum.rationalize`` upgrades one to an exact rational
certificate.  The answer is an ``exactnum.Realization``, whose factors are
tuples of float rows: the search works on numpy arrays and hands them over
once, and the CLI reads a realization file into the same class and
rationalizes it without loading numpy or this module.

The entry point is ``pattern.search_realization``, re-exported here with
``SearchParams``: it checks the budget and the rank, condenses, decides
ranks 1 and 2 exactly without numpy, and imports this module only for
r >= 3, to run ``_search``.  There each restart's ``kernels.descent`` and
zero polish move the entries that one pair of 0/1 masks leaves free (in
direct mode, all but the normal form's ones), and None is inconclusive.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import kernels
from .errors import NumericalDegeneracy
from .exactnum import (
    DEFAULT_ZERO_TOL,
    RationalCertificate,
    Realization,
    load_realization,
    rational_rank,
    rationalize,
    save_certificate,
    solve_zero_columns,
)
from .pattern import SearchParams, SignPattern, search_realization

# names that the benchmark looks up here (tracing.TRACED, workloads): the
# entry point of the search, its budget and exactnum's certificate layer
__all__ = ["RationalCertificate", "SearchParams", "load_realization", "rational_rank",
           "rationalize", "save_certificate", "search_realization", "solve_zero_columns"]

DEFAULT_MARGIN = 1e-2


# ---------------------------------------------------------------------------
# Ones-bordered normal form


def _normalize_factors(U0: np.ndarray, V0: np.ndarray, rng: np.random.Generator) -> tuple:
    """Rotate the inner factor space so U's leading column and V's trailing
    row are bounded away from zero, then scale rows/columns to exact ones.
    Returns (U, V, row_signs, col_signs): U V is U0 V0 with its rows and
    columns scaled, and the signs (+-1.0) are those of the scales.

    The rotation is the best of 64 candidates Q = R_{r-1} ... R_1, each R_k
    turning inner coordinates 0 and k by an angle uniform on [0, 2 pi).  A
    candidate's quality is the least |U[i, 0]| / |U0[i, :]| or |V[-1, j]| /
    |V0[:, j]| it gives: the first above 0.05 wins, else the first best, and
    a best below 1e-10 raises NumericalDegeneracy.  All 64 are scored in one
    pass, which picks what trying them one by one (and stopping at the first
    above 0.05) picked, bit for bit; the generator moves on by all 64 draws."""
    r = U0.shape[1]
    row_norm = np.linalg.norm(U0, axis=1)
    col_norm = np.linalg.norm(V0, axis=0)
    if not (row_norm.all() and col_norm.all()):
        raise NumericalDegeneracy("zero row of U or zero column of V cannot be normalized")

    theta = rng.uniform(0.0, 2.0 * math.pi, size=(64, r - 1)).T
    cos, sin = np.cos(theta), np.sin(theta)
    Q = np.eye(r)
    for k in range(1, r):
        # candidate t's rotation in the plane (0, k), one plane at a time
        Rk = np.empty((64, r, r))
        Rk[:] = np.eye(r)
        Rk[:, 0, 0] = Rk[:, k, k] = cos[k - 1]
        Rk[:, 0, k] = -sin[k - 1]
        Rk[:, k, 0] = sin[k - 1]
        Q = Rk @ Q
    quality = np.minimum(
        (np.abs(U0 @ Q[:, 0].T) / row_norm[:, None]).min(axis=0),
        (np.abs(Q[:, -1] @ V0) / col_norm).min(axis=1),
    )
    passing = np.flatnonzero(quality > 0.05)
    best = passing[0] if passing.size else np.argmax(quality)
    if not quality[best] >= 1e-10:  # NaN factors fail here too
        raise NumericalDegeneracy(
            f"rotations failed to clear leading entries (best quality {quality[best]:.2e})"
        )
    U = U0 @ Q[best].T
    V = Q[best] @ V0
    row_scales = 1.0 / U[:, 0]
    col_scales = 1.0 / V[-1, :]
    U = U * row_scales[:, None]
    V = V * col_scales[None, :]
    U[:, 0] = 1.0
    V[-1, :] = 1.0
    return U, V, np.sign(row_scales), np.sign(col_scales)


# ---------------------------------------------------------------------------
# Numerical search


def _gauss_newton_zero_polish(U, V, S, free_u, free_v, max_iter=30):
    """Drive the products at the zero targets of S to ~1e-13 by damped
    Gauss-Newton over the entries of their U rows, then V columns, that the
    descent's masks ``free_u``/``free_v`` leave free (None frees all)."""
    cj, ci = np.nonzero(S.T == 0)  # column by column: J's row order
    if not ci.size:
        return U, V
    # sorted lines, not np.unique, whose first call imports numpy.ma
    rows, cols = (np.array(sorted(set(line.tolist()))) for line in (ci, cj))
    a, ub = np.nonzero(np.ones_like(U[rows]) if free_u is None else free_u[rows])
    b, vk = np.nonzero(np.ones_like(V[:, cols].T) if free_v is None else free_v[:, cols].T)
    ua, vj, nu = rows[a], cols[b], len(a)
    # d(UV)[i, j]/dU[i, k] = V[k, j] and d(UV)[i, j]/dV[k, j] = U[i, k]
    hit_u = ci[:, None] == ua[None, :]
    hit_v = cj[:, None] == vj[None, :]
    J = np.zeros((len(ci), nu + len(b)))
    res = (U @ V)[ci, cj]
    if not np.isfinite(res).all():
        # no step can mend it (lstsq would raise); the sign check fails it
        return U, V
    for _ in range(max_iter):
        if np.max(np.abs(res)) < 1e-13:
            break
        J[:, :nu] = np.where(hit_u, V[ub[None, :], cj[:, None]], 0.0)
        J[:, nu:] = np.where(hit_v, U[ci[:, None], vk[None, :]], 0.0)
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        scale = 1.0
        base = np.linalg.norm(res)
        for _ in range(20):
            U2, V2 = U.copy(), V.copy()
            U2[ua, ub] += scale * step[:nu]
            V2[vk, vj] += scale * step[nu:]
            new = (U2 @ V2)[ci, cj]
            if np.linalg.norm(new) < base:
                U, V, res = U2, V2, new
                break
            scale *= 0.5
        else:
            break
    return U, V


def _check_signs(B: np.ndarray, S: np.ndarray, margin: float, zero_tol: float) -> bool:
    """True when b >= margin/2 where S > 0, b <= -margin/2 where S < 0 and
    |b| <= zero_tol where S == 0; a NaN b fails everywhere.  The margin is
    positive, so s b >= margin/2 fails on every zero target."""
    return bool(((S * B >= margin / 2) | ((S == 0) & (np.abs(B) <= zero_tol))).all())


def _restart(S: np.ndarray, r: int, params: SearchParams, k: int, free_u, free_v):
    rng = np.random.default_rng(params.seed ^ k)
    m, n = S.shape
    if params.direct:
        U = rng.standard_normal((m, r))
        V = rng.standard_normal((r, n))
        U[:, 0] = 1.0
        V[-1, :] = 1.0
    else:
        # start from the best rank-r approximation of a random matrix that
        # already carries the target signs: descent then only repairs the
        # truncation damage and the exact zeros
        B0 = S * rng.uniform(0.5, 1.5, size=(m, n))
        Us, svals, Vt = np.linalg.svd(B0, full_matrices=False)
        width = min(r, len(svals))
        root = np.sqrt(np.maximum(svals[:width], 1e-12))
        U = np.empty((m, r))
        V = np.empty((r, n))
        U[:, :width] = Us[:, :width] * root[None, :]
        V[:width, :] = root[:, None] * Vt[:width]
        if width < r:
            U[:, width:] = 0.1 * rng.standard_normal((m, r - width))
            V[width:, :] = 0.1 * rng.standard_normal((r - width, n))

    U, V, _ = kernels.descent(U, V, S, params.iters, free_u, free_v)
    U, V = _gauss_newton_zero_polish(U, V, S, free_u, free_v)
    if not _check_signs(U @ V, S, DEFAULT_MARGIN, DEFAULT_ZERO_TOL):
        return None

    if params.direct:
        return Realization(r, U, V)

    # fold the implicit signatures away: rotate/scale into normal form
    try:
        U, V, row_signs, col_signs = _normalize_factors(U, V, rng)
    except NumericalDegeneracy:
        return None
    target = S * np.outer(row_signs, col_signs)
    if not _check_signs(U @ V, target, 4 * DEFAULT_ZERO_TOL, DEFAULT_ZERO_TOL):
        return None
    return Realization(r, U, V)


def _search(C: SignPattern, r: int, params: SearchParams) -> Optional[Realization]:
    """The restarts of ``pattern.search_realization`` at r >= 3 on the
    condensed pattern C, which has rows, under the checked ``params``."""
    # what every restart shares; none of it draws from a restart's generator
    S = np.array(C.entries, dtype=float)  # the one form of the target
    m, n = S.shape
    free_u = free_v = None  # all free, unless direct mode pins the normal form
    if params.direct:
        free_u, free_v = np.ones((m, r)), np.ones((r, n))
        free_u[:, 0] = 0.0
        free_v[-1, :] = 0.0
    # an overflowed descent gives an infinite product, whose 0 * inf at a
    # zero target is NaN in the penalty and the sign checks: the check
    # fails it, so numpy's warning would only reach stderr
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(params.restarts):
            found = _restart(S, r, params, k, free_u, free_v)
            if found is not None:
                return found
    return None
