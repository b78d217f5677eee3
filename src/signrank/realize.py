"""Floating-point sign realizations and their exact rational upgrades.

A realization of a condensed sign pattern at rank r is a normal-form factor
pair: U is m x r with first column exactly ones, V is r x n with last row
exactly ones, and sgn(U V) matches the pattern up to row/column signatures
(which this module recovers rather than stores -- the product's own signs
carry them).  ``search_realization`` looks for one numerically;
``rationalize`` upgrades it to an exact rational matrix certificate by
rounding the free entries and solving the zero constraints exactly, with a
doubling denominator schedule.
"""

from __future__ import annotations

import json
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import (
    DomainError,
    NumericalDegeneracy,
    Overdetermined,
    PrecisionExhausted,
    RankMismatch,
    SingularSystem,
)
from .exactnum import rational_round
from .pattern import CondensationReport, SignPattern, condense

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_MARGIN = 1e-2


@dataclass
class SearchParams:
    margin: float = DEFAULT_MARGIN
    restarts: int = 64
    iters: int = 5000
    seed: int = 0
    threads: int = 1
    direct: bool = False
    zero_tol: float = DEFAULT_ZERO_TOL


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

    def signed_pattern(self, zero_tol: float = DEFAULT_ZERO_TOL) -> SignPattern:
        B = self.product
        return SignPattern(
            [[0 if abs(b) <= zero_tol else (1 if b > 0 else -1) for b in row] for row in B]
        )

    def margin(self, zero_tol: float = DEFAULT_ZERO_TOL) -> float:
        B = np.abs(self.product)
        nz = B[B > zero_tol]
        return float(nz.min()) if nz.size else math.inf

    def to_dict(self) -> dict:
        return {"r": self.r, "U": self.U.tolist(), "V": self.V.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Realization":
        try:
            return cls(int(doc["r"]), np.array(doc["U"], dtype=float), np.array(doc["V"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed realization document: {exc}") from None


def load_realization(path) -> Realization:
    with open(path, "r", encoding="utf-8") as fh:
        return Realization.from_dict(json.load(fh))


def save_realization(real: Realization, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(real.to_dict(), fh)
        fh.write("\n")


def signature_between(P: SignPattern, Q: SignPattern):
    """Signs (d1, d2) with Q = d1 * P * d2 entry-wise, or None.

    Requires equal shapes and equal zero sets; the signs are recovered by
    propagation over the nonzero cells and verified everywhere.
    """
    if P.m != Q.m or P.n != Q.n:
        return None
    m, n = P.m, P.n
    ratio = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            a, b = P.entries[i][j], Q.entries[i][j]
            if (a == 0) != (b == 0):
                return None
            if a != 0:
                ratio[i][j] = a * b
    d1 = [0] * m
    d2 = [0] * n
    for i in range(m):
        if d1[i]:
            continue
        d1[i] = 1
        stack = [("row", i)]
        while stack:
            kind, idx = stack.pop()
            if kind == "row":
                for j in range(n):
                    if ratio[idx][j]:
                        need = ratio[idx][j] * d1[idx]
                        if d2[j] == 0:
                            d2[j] = need
                            stack.append(("col", j))
                        elif d2[j] != need:
                            return None
            else:
                for k in range(m):
                    if ratio[k][idx]:
                        need = ratio[k][idx] * d2[idx]
                        if d1[k] == 0:
                            d1[k] = need
                            stack.append(("row", k))
                        elif d1[k] != need:
                            return None
    d2 = [v if v else 1 for v in d2]
    d1 = [v if v else 1 for v in d1]
    for i in range(m):
        for j in range(n):
            if Q.entries[i][j] != d1[i] * P.entries[i][j] * d2[j]:
                return None
    return tuple(d1), tuple(d2)


# ---------------------------------------------------------------------------
# Ones-bordered normal form


@dataclass(frozen=True)
class NormalizedFactorization:
    row_signs: tuple
    U: np.ndarray
    V: np.ndarray
    col_signs: tuple
    row_scales: np.ndarray  # signed: U V == diag(row_scales) B diag(col_scales)
    col_scales: np.ndarray

    def __iter__(self):
        return iter((self.row_signs, self.U, self.V, self.col_signs))


def _plane_rotation(r: int, k: int, theta: float) -> np.ndarray:
    R = np.eye(r)
    c, s = math.cos(theta), math.sin(theta)
    R[0, 0] = c
    R[0, k] = -s
    R[k, 0] = s
    R[k, k] = c
    return R


def _normalize_factors(U0: np.ndarray, V0: np.ndarray, rng: np.random.Generator,
                       attempts: int = 64) -> NormalizedFactorization:
    """Rotate the inner factor space so U's leading column and V's trailing
    row are bounded away from zero, then scale rows/columns to exact ones."""
    r = U0.shape[1]
    if r < 2:
        raise DomainError("normal form needs rank >= 2")
    row_norm = np.linalg.norm(U0, axis=1)
    col_norm = np.linalg.norm(V0, axis=0)
    if np.any(row_norm == 0) or np.any(col_norm == 0):
        raise NumericalDegeneracy("zero row of U or zero column of V cannot be normalized")

    best = None
    best_quality = -1.0
    for _ in range(attempts):
        Q = np.eye(r)
        for k in range(1, r):
            Q = _plane_rotation(r, k, rng.uniform(0.0, 2.0 * math.pi)) @ Q
        U = U0 @ Q.T
        V = Q @ V0
        quality = min(
            float(np.min(np.abs(U[:, 0]) / row_norm)),
            float(np.min(np.abs(V[-1, :]) / col_norm)),
        )
        if quality > best_quality:
            best_quality = quality
            best = (U, V)
        if quality > 0.05:
            break
    if best is None or best_quality < 1e-10:
        raise NumericalDegeneracy(
            f"rotations failed to clear leading entries (best quality {best_quality:.2e})"
        )
    U, V = best
    row_scales = 1.0 / U[:, 0]
    col_scales = 1.0 / V[-1, :]
    U = U * row_scales[:, None]
    V = V * col_scales[None, :]
    U[:, 0] = 1.0
    V[-1, :] = 1.0
    return NormalizedFactorization(
        row_signs=tuple(int(np.sign(s)) for s in row_scales),
        U=U,
        V=V,
        col_signs=tuple(int(np.sign(s)) for s in col_scales),
        row_scales=row_scales,
        col_scales=col_scales,
    )


def normalize_factorization(B, r: int, seed: int = 0,
                            rank_tol: float = 1e-8) -> NormalizedFactorization:
    """Factor a numerically rank-r matrix into the ones-bordered normal form.

    U V approximates diag(row_scales) B diag(col_scales); the returned sign
    vectors are the signs of those diagonals, so sgn(U V) equals the
    signature-adjusted sign pattern of B.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise DomainError("expected a 2-d matrix")
    if r < 2:
        raise DomainError(f"normal form needs rank >= 2, got {r}")
    Usvd, svals, Vt = np.linalg.svd(B, full_matrices=False)
    if r > len(svals) or svals[r - 1] <= rank_tol * (svals[0] if svals.size else 1.0):
        raise RankMismatch(f"matrix has numerical rank < requested {r}")
    if r < len(svals) and svals[r] > math.sqrt(rank_tol) * svals[0]:
        raise RankMismatch(
            f"matrix has numerical rank > requested {r} "
            f"(sigma_{r + 1}/sigma_1 = {svals[r] / svals[0]:.2e})"
        )
    root = np.sqrt(svals[:r])
    U0 = Usvd[:, :r] * root[None, :]
    V0 = root[:, None] * Vt[:r]
    rng = np.random.default_rng(seed)
    return _normalize_factors(U0, V0, rng)


# ---------------------------------------------------------------------------
# Exact zero-column solves (used by rationalize)


def _zero_rows_by_column(A: SignPattern):
    return [tuple(i for i in range(A.m) if A.entries[i][j] == 0) for j in range(A.n)]


def solve_zero_columns(U, A: SignPattern, j: int, free_values: Sequence = ()):
    """Dependent entries (v_1j, ..., v_sj) making the zero rows of column j
    vanish exactly, given the free entries (v_{s+1,j}, ..., v_{r-1,j}) and
    the normal-form convention v_rj = 1.

    Exact: every entry is read as ``Fraction(x)`` (a float at its exact
    binary value) and the solution is a tuple of Fractions.  The s x s
    coefficient matrix is built from columns 1..s of the zero rows of U; if
    it is singular the caller is expected to re-perturb the free entries of
    U and retry.
    """
    rows = [[Fraction(x) for x in U[i]] for i in range(A.m) if A.entries[i][j] == 0]
    s = len(rows)
    if s == 0:
        return ()
    r = len(rows[0])
    if s > r - 1:
        raise Overdetermined(j, s, r - 1)
    if len(free_values) != r - 1 - s:
        raise DomainError(
            f"column {j + 1} needs {r - 1 - s} free values, got {len(free_values)}"
        )
    free = [Fraction(x) for x in free_values]
    system = []
    for row in rows:
        rhs = row[r - 1] + sum(row[k] * free[k - s] for k in range(s, r - 1))
        system.append(row[:s] + [-rhs])
    echelon, pivots = _bareiss_echelon(system)
    if pivots != list(range(s)):
        raise SingularSystem(f"coefficient matrix of column {j + 1} is singular")
    sol = [Fraction(0)] * s
    for k in range(s - 1, -1, -1):
        row = echelon[k]
        sol[k] = Fraction(row[s] - sum(row[l] * sol[l] for l in range(k + 1, s)), row[k])
    return tuple(sol)


# ---------------------------------------------------------------------------
# Numerical search


def _gauss_newton_zero_polish(U, V, zero_cells, var_index, max_iter=30):
    """Drive the listed zero-target products to ~1e-13 by damped
    Gauss-Newton over the selected free entries: ``var_index`` lists
    (0, i, k) for U[i, k] and (1, k, j) for V[k, j]."""
    if not zero_cells:
        return U, V
    ci, cj = np.array(zero_cells).T
    kind, va, vb = np.array(var_index).T
    on_u = kind == 0
    ua, ub, vk, vj = va[on_u], vb[on_u], va[~on_u], vb[~on_u]
    # d(UV)[i, j]/dU[i, k] = V[k, j] and d(UV)[i, j]/dV[k, j] = U[i, k]
    hit_u = ci[:, None] == ua[None, :]
    hit_v = cj[:, None] == vj[None, :]
    J = np.zeros((len(ci), len(kind)))
    res = (U @ V)[ci, cj]
    for _ in range(max_iter):
        if np.max(np.abs(res)) < 1e-13:
            break
        J[:, on_u] = np.where(hit_u, V[ub[None, :], cj[:, None]], 0.0)
        J[:, ~on_u] = np.where(hit_v, U[ci[:, None], vk[None, :]], 0.0)
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        scale = 1.0
        base = np.linalg.norm(res)
        for _ in range(20):
            U2, V2 = U.copy(), V.copy()
            U2[ua, ub] += scale * step[on_u]
            V2[vk, vj] += scale * step[~on_u]
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
    |b| <= zero_tol where S == 0."""
    wrong = (
        ((S > 0) & (B < margin / 2))
        | ((S < 0) & (B > -margin / 2))
        | ((S == 0) & (np.abs(B) > zero_tol))
    )
    return not wrong.any()


def _restart(C: SignPattern, r: int, params: SearchParams, k: int):
    rng = np.random.default_rng(params.seed ^ k)
    m, n = C.m, C.n
    S = C.to_array()
    if params.direct:
        U = rng.standard_normal((m, r))
        V = rng.standard_normal((r, n))
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
    free_u = np.ones((m, r))
    free_v = np.ones((r, n))
    if params.direct:
        U[:, 0] = 1.0
        V[-1, :] = 1.0
        free_u[:, 0] = 0.0
        free_v[-1, :] = 0.0
    zero_cells = [(i, j) for j in range(n) for i in range(m) if C.entries[i][j] == 0]
    # the polish moves the zero cells' U rows and V columns, minus the pins
    pinned = int(params.direct)
    var_index = [(0, i, k) for i in sorted({i for i, _ in zero_cells}) for k in range(pinned, r)]
    var_index += [(1, k, j) for j in sorted({j for _, j in zero_cells}) for k in range(r - pinned)]

    # optimize against an amplified margin so the hinge terms keep real
    # gradient pressure; acceptance is still judged at params.margin
    margin_opt = max(params.margin, 0.25)
    for attempt in range(3):
        U, V, pen = kernels.descent(
            U, V, S, margin_opt, 4.0,
            params.iters if attempt == 0 else max(500, params.iters // 10),
            0.05, free_u, free_v,
        )
        U, V = _gauss_newton_zero_polish(U, V, zero_cells, var_index)
        if _check_signs(U @ V, S, params.margin, params.zero_tol):
            break
    else:
        return None

    if params.direct:
        return Realization(r, U, V)

    # fold the implicit signatures away: rotate/scale into normal form
    try:
        normalized = _normalize_factors(U, V, rng)
    except NumericalDegeneracy:
        return None
    Un, Vn = normalized.U, normalized.V
    target = S * np.outer(normalized.row_signs, normalized.col_signs)
    if not _check_signs(Un @ Vn, target, 4 * params.zero_tol, params.zero_tol):
        return None
    return Realization(r, Un, Vn)


def search_realization(
    A: SignPattern, r: int, params: Optional[SearchParams] = None
) -> Optional[Realization]:
    """Randomized penalty search for a rank-r sign realization.

    The pattern is condensed first.  Restart k draws its generator from
    seed XOR k, so results are bit-identical for a fixed seed regardless of
    the thread count: restarts are evaluated in fixed-size chunks and the
    successful restart of smallest index wins.  Failure returns None and is
    always inconclusive (it never certifies that no realization exists).
    """
    params = params or SearchParams()
    if params.restarts < 0 or params.iters < 0:
        raise DomainError(
            f"restarts and iters must be >= 0, got {params.restarts} and {params.iters}"
        )
    C = condense(A).condensed
    if r < 1:
        raise DomainError(f"rank must be >= 1, got {r}")
    if C.m == 0:
        return Realization(max(r, 1), np.ones((0, max(r, 1))), np.ones((max(r, 1), 0)))
    if r == 1:
        if C.m == 1 and C.n == 1:
            return Realization(1, np.ones((1, 1)), np.ones((1, 1)))
        return None

    workers = max(1, int(params.threads))
    indices = range(params.restarts)
    if workers == 1:
        for k in indices:
            found = _restart(C, r, params, k)
            if found is not None:
                return found
        return None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk_start in range(0, params.restarts, workers):
            chunk = list(range(chunk_start, min(chunk_start + workers, params.restarts)))
            results = list(pool.map(lambda k: _restart(C, r, params, k), chunk))
            for res in results:
                if res is not None:
                    return res
    return None


def transpose_realization(real: Realization) -> Realization:
    """Realization of the transposed pattern: swaps the roles of U and V
    while restoring the ones-bordered normal form by permuting the inner
    coordinates (last inner coordinate becomes first)."""
    r = real.r
    idx = [r - 1] + list(range(1, r - 1)) + [0] if r >= 2 else [0]
    U2 = real.V.T[:, idx].copy()
    V2 = real.U.T[idx, :].copy()
    U2[:, 0] = 1.0
    V2[-1, :] = 1.0
    return Realization(r, U2, V2)


# ---------------------------------------------------------------------------
# Exact rational certificates


@dataclass(frozen=True)
class RationalCertificate:
    """Exact rational matrix whose signs equal the target pattern, plus its
    exact rank: a machine-checkable witness that the rational minimum rank
    is at most that rank.

    ``factors`` = (U, V) are exact rational factors with U V == matrix; the
    rank is then proven from them (``_factored_rank``).  A certificate
    without them, as files written before they were stored are, is checked
    by eliminating the matrix itself."""

    matrix: tuple  # tuple of tuples of Fraction
    rank: int
    target: SignPattern
    factors: Optional[tuple] = None  # (U, V), tuples of tuples of Fraction

    def __post_init__(self):
        if self.factors is None:
            return
        U, V = self.factors
        if (len(U) != len(self.matrix) or any(len(row) != len(V) for row in U)
                or any(len(row) != self.target.n for row in V)):
            raise DomainError("certificate factors have inconsistent shapes")

    def verify(self) -> bool:
        if _sign_pattern(self.matrix) != self.target:
            return False
        if self.factors is None:
            return rational_rank(self.matrix) == self.rank
        U, V = self.factors
        return (_exact_product(U, V) == self.matrix
                and _factored_rank(U, V, self.matrix) == self.rank)

    def to_dict(self) -> dict:
        from .exactnum import format_rational

        def text(M):
            return [[format_rational(v) for v in row] for row in M]

        doc = {
            "rank": self.rank,
            "target": self.target.to_text().splitlines(),
            "matrix": text(self.matrix),
        }
        if self.factors is not None:
            doc["U"], doc["V"] = (text(F) for F in self.factors)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RationalCertificate":
        from .exactnum import parse_rational

        def exact(M):
            return tuple(tuple(parse_rational(v) for v in row) for row in M)

        try:
            factors = None
            if "U" in doc or "V" in doc:
                factors = (exact(doc["U"]), exact(doc["V"]))
            target = SignPattern(doc["target"])
            return cls(exact(doc["matrix"]), int(doc["rank"]), target, factors)
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed certificate document: {exc}") from None


def load_certificate(path) -> RationalCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        return RationalCertificate.from_dict(json.load(fh))


def save_certificate(cert: RationalCertificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert.to_dict(), fh, indent=1)
        fh.write("\n")


def _bareiss_echelon(M):
    """Fraction-free row echelon form (Bareiss, Math. Comp. 22, 1968).

    Each row is first scaled to integers; the returned integer rows are
    linear combinations of the input rows with the same row space, so an
    augmented system keeps its solutions.  ``pivots`` holds the pivot column
    of each leading row; pivoting scans for any nonzero entry, so degenerate
    inputs are handled exactly."""
    work = []
    for row in M:
        fracs = [Fraction(x) for x in row]
        lcm = math.lcm(*(f.denominator for f in fracs))
        work.append([int(f * lcm) for f in fracs])
    m = len(work)
    n = len(work[0]) if work else 0
    pivots = []
    prev = 1
    for pc in range(n):
        pr = len(pivots)
        if pr == m:
            break
        piv = next((i for i in range(pr, m) if work[i][pc] != 0), None)
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        top = work[pr]
        p = top[pc]
        for i in range(pr + 1, m):
            row = work[i]
            a = row[pc]
            row[pc + 1:] = [(p * x - a * y) // prev for x, y in zip(row[pc + 1:], top[pc + 1:])]
            row[pc] = 0
        prev = p
        pivots.append(pc)
    return work, pivots


def rational_rank(M) -> int:
    """Exact rank: the pivot count of the fraction-free echelon form."""
    return len(_bareiss_echelon(M)[1])


def _factored_rank(U, V, matrix) -> int:
    """Exact rank of ``matrix`` == U V, with r = len(V) inner dimensions.

    The shapes give rank <= r and Sylvester's inequality gives rank(U V) >=
    rank U + rank V - r, so factors both of rank r prove rank r with two
    eliminations of the small factors.  Only a rank-deficient factor falls
    back to eliminating the matrix."""
    r = len(V)
    if rational_rank(U) == r and rational_rank(V) == r:
        return r
    return rational_rank(matrix)


def _exact_product(U, V) -> tuple:
    """U V over Q as a tuple of tuples of Fraction.  Each row of U and each
    column of V is scaled to integers by the lcm of its denominators, so the
    sums run in int and each entry builds one Fraction."""
    def integral(lines):
        out = []
        for line in lines:
            lcm = math.lcm(*(x.denominator for x in line))
            out.append(([x.numerator * (lcm // x.denominator) for x in line], lcm))
        return out

    cols = integral(zip(*V))
    return tuple(
        tuple(Fraction(sum(map(operator.mul, u, v)), lu * lv) for v, lv in cols)
        for u, lu in integral(U)
    )


def _sign_pattern(matrix) -> SignPattern:
    return SignPattern([[(v > 0) - (v < 0) for v in row] for row in matrix])


def _round_matrix(M: np.ndarray, cap: int, fixed_first_col=False, fixed_last_row=False):
    m, n = M.shape
    out = [[Fraction(0)] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if fixed_first_col and j == 0:
                out[i][j] = Fraction(1)
            elif fixed_last_row and i == m - 1:
                out[i][j] = Fraction(1)
            else:
                out[i][j] = rational_round(float(M[i, j]), cap)
    return out


def rationalize(A: SignPattern, real: Realization) -> RationalCertificate:
    """Upgrade a floating realization to an exact rational certificate.

    Works on the condensed pattern; every column there must carry at most
    r-1 zeros (otherwise Overdetermined names the first offending column of
    the original pattern).  Free entries are rounded with denominator cap
    2^t (t = 16, doubling to 64); dependent entries of each zero-carrying
    column are solved exactly; singular coefficient matrices trigger exact
    re-perturbation of the relevant U entries.  The exact factors are
    expanded back to the shape of the original pattern; the certificate
    stores them with their product and its exact rank, proven from them.
    """
    report = condense(A)
    C = report.condensed
    r = real.r
    if real.U.shape[0] != C.m or real.V.shape[1] != C.n:
        raise DomainError(
            f"realization is {real.U.shape[0]}x{real.V.shape[1]}, "
            f"but the condensed pattern is {C.m}x{C.n}"
        )
    zero_rows = _zero_rows_by_column(C)
    for j, zr in enumerate(zero_rows):
        if len(zr) > r - 1:
            raise Overdetermined(report.kept_cols[j], len(zr), r - 1)

    signed = real.signed_pattern()
    signs = signature_between(C, signed)
    if signs is None:
        raise DomainError(
            "realization does not realize the pattern (no signature carries "
            "its product signs onto the target)"
        )
    d1, d2 = signs

    rng = np.random.default_rng(0x5EED)
    t = 16
    while t <= 64:
        cap = 1 << t
        base_U = _round_matrix(real.U, cap, fixed_first_col=True)
        base_V = _round_matrix(real.V, cap, fixed_last_row=True)
        solved_pair = None
        for attempt in range(32):
            Ur = [row[:] for row in base_U]
            Vr = [row[:] for row in base_V]
            if attempt:
                # a singular system means the rounded U landed on a measure-
                # zero set: re-perturb the feeding entries by <= 2^-t
                for zr in zero_rows:
                    for i in zr:
                        for k in range(1, r):
                            Ur[i][k] += Fraction(int(rng.integers(-cap, cap + 1)), cap * cap)
            try:
                for j, zr in enumerate(zero_rows):
                    s = len(zr)
                    if s == 0:
                        continue
                    free_vals = [Vr[k][j] for k in range(s, r - 1)]
                    solved = solve_zero_columns(Ur, signed, j, free_vals)
                    for k, value in enumerate(solved):
                        Vr[k][j] = value
            except SingularSystem:
                continue
            solved_pair = (Ur, Vr)
            break
        if solved_pair is not None:
            Ur, Vr = solved_pair
            U = _expand_lines(Ur, d1, report, "row", r)
            V = tuple(zip(*_expand_lines(tuple(zip(*Vr)), d2, report, "col", r)))
            full = _exact_product(U, V)
            if _sign_pattern(full) == A:
                # the certificate's one exact rank; verify() stays the
                # independent check that callers run
                return RationalCertificate(full, _factored_rank(U, V, full), A, (U, V))
        t *= 2
    raise PrecisionExhausted(
        "denominator schedule exhausted at 2^64 without an exact sign match"
    )


def _expand_lines(lines, signs, report: CondensationReport, axis: str, width: int) -> tuple:
    """A factor's lines for every original row (axis "row") or column
    ("col") from its condensed lines: kept line p becomes signs[p] *
    lines[p], a deleted duplicate copies its survivor, an opposite negates
    it, and a zero line is zero.  Survivors are always earlier lines, so
    one pass in index order follows every chain in the deletion log."""
    kept = report.kept_rows if axis == "row" else report.kept_cols
    position = {orig: pos for pos, orig in enumerate(kept)}
    deleted = {e.index: e for e in report.log if e.axis == axis}
    out = []
    for idx in range(len(kept) + len(deleted)):
        if idx in position:
            p = position[idx]
            line, negate = lines[p], signs[p] < 0
        else:
            event = deleted[idx]
            if event.kind == "zero":
                line, negate = (Fraction(0),) * width, False
            else:
                line, negate = out[event.survivor], event.kind == "opposite"
        out.append(tuple(-x for x in line) if negate else tuple(line))
    return tuple(out)


# ---------------------------------------------------------------------------
# Direct representations


@dataclass(frozen=True)
class DirectRepresentation:
    status: str  # "yes", "no", "unknown"
    witness: Optional[Realization]

    def __bool__(self):
        return self.status == "yes"


def has_direct_representation(
    A: SignPattern, r: int, params: Optional[SearchParams] = None
) -> DirectRepresentation:
    """Can the minimum-rank normal form be reached without signatures?

    r = 2 is decided exactly: the pattern must have minimum rank 2 and its
    condensed form must admit permutations alone (identity signatures)
    making every row and column nondecreasing; an exact witness realization
    is built from that arrangement.  For r >= 3 the numerical search runs
    with the normal form pinned; success means yes, exhaustion means
    unknown (never a proof of no).
    """
    from .pattern import _monotone_arrangement, is_mr2

    if r == 1:
        C = condense(A).condensed
        if C.m == 1 and C.n == 1 and C.entries[0][0] == 1:
            return DirectRepresentation("yes", Realization(1, np.ones((1, 1)), np.ones((1, 1))))
        return DirectRepresentation("no", None)
    if r == 2:
        mr2 = is_mr2(A)
        if not mr2.value:
            return DirectRepresentation("no", None)
        C = mr2.condensation.condensed
        witness = _monotone_arrangement(C, identity_only=True)
        if witness is None:
            return DirectRepresentation("no", None)
        return DirectRepresentation("yes", _realization_from_arrangement(C, witness))
    params = params or SearchParams()
    params = replace(params, direct=True)
    found = search_realization(A, r, params)
    if found is not None:
        return DirectRepresentation("yes", found)
    return DirectRepresentation("unknown", None)


def _realization_from_arrangement(C: SignPattern, witness) -> Realization:
    """Exact rank-2 witness from a nondecreasing identity arrangement:
    column at arranged position q gets value q+1 and each row crosses from
    - to + at its zero (or between its last - and first +), so the products
    v_j + u_i realize every sign."""
    n = C.n
    v_by_col = {}
    for pos, j in enumerate(witness.col_perm):
        v_by_col[j] = Fraction(pos + 1)
    u_by_row = {}
    for i in range(C.m):
        arranged = [(v_by_col[j], C.entries[i][j]) for j in witness.col_perm]
        zero_at = next((v for v, s in arranged if s == 0), None)
        if zero_at is not None:
            u_by_row[i] = -zero_at
        else:
            last_minus = max((v for v, s in arranged if s < 0), default=Fraction(0))
            u_by_row[i] = -(last_minus + Fraction(1, 2))
    U = np.array([[1.0, float(u_by_row[i])] for i in range(C.m)])
    V = np.array([[float(v_by_col[j]) for j in range(n)], [1.0] * n])
    real = Realization(2, U, V)
    if real.signed_pattern() != C:
        raise AssertionError("internal error: direct witness failed validation")
    return real
