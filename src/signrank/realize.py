"""Floating-point sign realizations: the numeric search for a normal-form
factor pair.

A realization of a condensed sign pattern at rank r is a normal-form factor
pair: U is m x r with first column exactly ones, V is r x n with last row
exactly ones, and sgn(U V) matches the pattern up to row/column signatures
(which this module recovers rather than stores -- the product's own signs
carry them).  ``search_realization`` looks for one numerically;
``exactnum.rationalize`` upgrades it to an exact rational certificate.

Ranks 1 and 2 are decided exactly, so there ``search_realization`` builds
its answer from the condensation and the monotone arrangement of
``pattern.is_mr2`` and runs no descent: None proves that no rank-r
realization exists.  The randomized search, and its budget of restarts and
iterations, serves r >= 3 only, where None is inconclusive.  There each
restart's ``kernels.descent`` and zero polish move the entries that one pair
of 0/1 masks leaves free (in direct mode, all but the normal form's ones).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import DomainError, NumericalDegeneracy
from .exactnum import (
    RationalCertificate,
    parse_integer,
    rational_rank,
    rationalize,
    save_certificate,
    solve_zero_columns,
)
from .pattern import SignPattern, _monotone_arrangement, check_search_budget, condense, is_mr2

# exactnum's names that the benchmark looks up here: tracing.TRACED, workloads.Certify
__all__ = ["RationalCertificate", "rational_rank", "rationalize", "save_certificate",
           "solve_zero_columns"]

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_MARGIN = 1e-2


@dataclass
class SearchParams:
    """Search budget: restarts and the seed (>= 0) they derive from;
    ``direct`` pins identity signatures.  ``iters`` caps the one descent
    that each restart runs (0 means no descent) before it polishes the zeros
    once and checks the signs once.  The descent stops before the cap once
    its signs are cleared or its penalty stalls (``kernels.descent``), so
    raising ``iters`` changes only restarts that reach the cap.  A result is
    accepted at the fixed thresholds ``DEFAULT_MARGIN`` and
    ``DEFAULT_ZERO_TOL``.

    ``threads`` is ignored: restarts run one after another.  It is kept only
    so that existing callers that pass it keep working."""

    restarts: int = 64
    iters: int = 5000
    seed: int = 0
    threads: int = 1
    direct: bool = False


@dataclass(frozen=True)
class Realization:
    """Normal-form factor pair witnessing a rank-r sign realization."""

    r: int
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != self.r or V.shape[0] != self.r:
            raise DomainError("realization factors have inconsistent shapes")
        if not (np.isfinite(U).all() and np.isfinite(V).all()):
            raise DomainError("realization factors must be finite")
        if U.shape[0] and not np.all(U[:, 0] == 1.0):
            raise DomainError("realization violates normal form: U's first column must be ones")
        if V.shape[1] and not np.all(V[-1, :] == 1.0):
            raise DomainError("realization violates normal form: V's last row must be ones")

    @property
    def product(self) -> np.ndarray:
        return self.U @ self.V

    def signed_pattern(self) -> SignPattern:
        B = self.product
        entries = tuple(
            tuple([0 if abs(b) <= DEFAULT_ZERO_TOL else (1 if b > 0 else -1) for b in row])
            for row in B.tolist()
        )
        return SignPattern._trusted(entries, *B.shape)

    def margin(self) -> float:
        B = np.abs(self.product)
        nz = B[B > DEFAULT_ZERO_TOL]
        return float(nz.min()) if nz.size else math.inf

    def transpose(self) -> "Realization":
        """Realization of the transposed pattern: swaps the roles of U and V
        while restoring the ones-bordered normal form by permuting the inner
        coordinates (last inner coordinate becomes first)."""
        r = self.r
        idx = [r - 1] + list(range(1, r - 1)) + [0] if r >= 2 else [0]
        U2 = self.V.T[:, idx].copy()
        V2 = self.U.T[idx, :].copy()
        U2[:, 0] = 1.0
        V2[-1, :] = 1.0
        return Realization(r, U2, V2)

    def to_dict(self) -> dict:
        return {"r": self.r, "U": self.U.tolist(), "V": self.V.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Realization":
        try:
            r = parse_integer(doc["r"], "'r'")
            # an empty condensation has no rows of U, which JSON cannot shape
            U = np.empty((0, r)) if doc["U"] == [] else np.array(doc["U"], dtype=float)
            return cls(r, U, np.array(doc["V"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed realization document: {exc}") from None


def load_realization(path) -> Realization:
    with open(path, "r", encoding="utf-8") as fh:
        return Realization.from_dict(json.load(fh))


def save_realization(real: Realization, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(real.to_dict(), fh)
        fh.write("\n")


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
    if r < 2:
        raise DomainError("normal form needs rank >= 2")
    row_norm = np.linalg.norm(U0, axis=1)
    col_norm = np.linalg.norm(V0, axis=0)
    if not (row_norm.all() and col_norm.all()):
        raise NumericalDegeneracy("zero row of U or zero column of V cannot be normalized")

    theta = rng.uniform(0.0, 2.0 * math.pi, size=(64, r - 1)).T
    cos, sin = np.cos(theta), np.sin(theta)
    # R[k - 1, t] is candidate t's rotation in the plane (0, k)
    k = np.arange(1, r)
    R = np.empty((r - 1, 64, r, r))
    R[:] = np.eye(r)
    R[k - 1, :, 0, 0] = R[k - 1, :, k, k] = cos
    R[k - 1, :, 0, k] = -sin
    R[k - 1, :, k, 0] = sin
    Q = np.eye(r)
    for Rk in R:
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


def _gauss_newton_zero_polish(U, V, zero_cells, free_u, free_v, max_iter=30):
    """Drive the zero-target products to ~1e-13 by damped Gauss-Newton over
    the entries of their U rows, then V columns, that the descent's masks
    ``free_u``/``free_v`` leave free (None frees all)."""
    if not zero_cells:
        return U, V
    ci, cj = np.array(zero_cells).T
    # sorted lines, not np.unique, whose first call imports numpy.ma
    rows, cols = (np.array(sorted(set(line))) for line in zip(*zero_cells))
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
    |b| <= zero_tol where S == 0; a NaN b fails everywhere."""
    return bool(np.where(S > 0, B >= margin / 2,
                         np.where(S < 0, B <= -margin / 2, np.abs(B) <= zero_tol)).all())


def _restart(S: np.ndarray, r: int, params: SearchParams, k: int, free_u, free_v, zero_cells):
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
        B0 = S.astype(float) * rng.uniform(0.5, 1.5, size=(m, n))
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
    U, V = _gauss_newton_zero_polish(U, V, zero_cells, free_u, free_v)
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


def search_realization(
    A: SignPattern, r: int, params: Optional[SearchParams] = None
) -> Optional[Realization]:
    """A rank-r sign realization of the condensed pattern of A, or None.

    r = 1 and r = 2 are decided exactly (``_exact_low_rank``): None proves
    that no realization exists (in direct mode: none with identity
    signatures), and ``restarts``, ``iters`` and ``seed`` are not used.  For
    r >= 3 a randomized penalty search runs its restarts in order: restart
    k draws its generator from seed XOR k, and the first one that succeeds
    is returned, so a fixed seed gives a bit-identical result.  Failure
    there returns None and is always inconclusive (it never certifies that
    no realization exists).
    """
    params = params or SearchParams()
    check_search_budget(params.restarts, params.iters, params.seed)
    if r < 1:
        raise DomainError(f"rank must be >= 1, got {r}")
    if r <= 2:
        return _exact_low_rank(A, r, params.direct)
    C = condense(A).condensed
    if C.m == 0:
        return Realization(r, np.ones((0, r)), np.ones((r, 0)))
    # what every restart shares; none of it draws from a restart's generator
    S = C.to_array()
    m, n = S.shape
    free_u = free_v = None  # all free, unless direct mode pins the normal form
    if params.direct:
        free_u, free_v = np.ones((m, r)), np.ones((r, n))
        free_u[:, 0] = 0.0
        free_v[-1, :] = 0.0
    zero_cells = [(i, j) for j in range(n) for i in range(m) if C.entries[i][j] == 0]
    for k in range(params.restarts):
        found = _restart(S, r, params, k, free_u, free_v, zero_cells)
        if found is not None:
            return found
    return None


def _exact_low_rank(A: SignPattern, r: int, direct: bool) -> Optional[Realization]:
    """``search_realization`` at r = 1 or 2, from the exact deciders, with
    one condensation.

    A 1x1 condensed pattern [s] (mr = 1) has the closed forms U = V = [[1]]
    at r = 1, whose product + matches s only up to signature (so direct
    mode needs s = +), and U = [[1, s - 1]], V = [[1], [1]] at r = 2, whose
    product is s.  At r = 2 a pattern with mr = 2 is realized from the
    monotone arrangement of ``is_mr2``, or in direct mode from the
    identity-signed one, which may not exist.  Every other pattern has
    mr > r."""
    mr2 = is_mr2(A) if r == 2 else None
    C = (condense(A) if mr2 is None else mr2.condensation).condensed
    if C.m == 0:
        return Realization(r, np.ones((0, r)), np.ones((r, 0)))
    if C.m == 1 and C.n == 1:
        s = C.entries[0][0]
        if r == 2:
            return Realization(2, np.array([[1.0, s - 1.0]]), np.ones((2, 1)))
        return None if direct and s < 0 else Realization(1, np.ones((1, 1)), np.ones((1, 1)))
    if mr2 is None or not mr2.value:
        return None
    witness = _monotone_arrangement(C, identity_only=True) if direct else mr2.witness
    return None if witness is None else _realization_from_arrangement(C, witness)


# ---------------------------------------------------------------------------
# Direct representations


@dataclass(frozen=True)
class DirectRepresentation:
    status: str  # "yes", "no", "unknown"
    witness: Optional[Realization]


def has_direct_representation(A: SignPattern, r: int) -> DirectRepresentation:
    """Can the minimum-rank normal form be reached without signatures?

    The search runs with the normal form held (``SearchParams(direct=True)``,
    its default budget).  r = 1 and r = 2 are exact, as the search is there:
    no realization means no, and so does one with fewer than r condensed
    rows or columns, since then mr < r.  At r = 2 the witness is built from
    the identity-signed monotone arrangement of the condensed pattern.  For
    r >= 3 success means yes and exhaustion means unknown (never a proof of
    no).
    """
    found = search_realization(A, r, SearchParams(direct=True))
    if found is not None and (r >= 3 or min(found.U.shape[0], found.V.shape[1]) >= r):
        return DirectRepresentation("yes", found)
    return DirectRepresentation("no" if r <= 2 else "unknown", None)


def _realization_from_arrangement(C: SignPattern, witness) -> Realization:
    """Exact rank-2 realization from a monotone arrangement of C (an
    ``is_mr2`` witness, or an identity-signed one for direct mode).

    The witness's row signs d and column signs c turn C into S = d C c,
    whose rows are nondecreasing in the witness's column order.  The column
    at arranged position q gets v = q + 1.  A row with k minus entries and
    z zeros (0 or 1) crosses at k + 1 if z = 1, else between k and k + 1,
    so u = -(k + (1 + z) / 2), exact in float, and the products v_j + u_i
    realize S.  Like every search result, the product's own signs carry
    the signature."""
    d = dict(zip(witness.row_perm, witness.row_signs))
    c = dict(zip(witness.col_perm, witness.col_signs))
    S = SignPattern._trusted(
        tuple(tuple([d[i] * C.entries[i][j] * c[j] for j in range(C.n)]) for i in range(C.m)),
        C.m, C.n,
    )
    v = [0.0] * C.n
    for pos, j in enumerate(witness.col_perm):
        v[j] = pos + 1.0
    U = np.array([[1.0, -(row.count(-1) + (1 + row.count(0)) / 2)] for row in S.entries])
    real = Realization(2, U, np.array([v, [1.0] * C.n]))
    if real.signed_pattern() != S:
        raise AssertionError("internal error: rank-2 witness failed validation")
    return real
