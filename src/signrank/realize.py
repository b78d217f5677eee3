"""Floating-point sign realizations and their exact rational upgrades.

A realization of a condensed sign pattern at rank r is a normal-form factor
pair: U is m x r with first column exactly ones, V is r x n with last row
exactly ones, and sgn(U V) matches the pattern up to row/column signatures
(which this module recovers rather than stores -- the product's own signs
carry them).  ``search_realization`` looks for one numerically;
``rationalize`` upgrades it to an exact rational matrix certificate by
rounding the factors and solving the zero constraints exactly, with a
doubling denominator schedule.

Ranks 1 and 2 are decided exactly, so there ``search_realization`` builds
its answer from the condensation and the monotone arrangement of
``pattern.is_mr2`` and runs no descent: None proves that no rank-r
realization exists.  The randomized search, and its budget of restarts and
iterations, serves r >= 3 only, where None is inconclusive.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
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
from .exactnum import parse_integer, rational_round
from .pattern import CondensationReport, SignPattern, _monotone_arrangement, condense, is_mr2

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_MARGIN = 1e-2


@dataclass
class SearchParams:
    """Search budget: restarts and the seed (>= 0) they derive from;
    ``direct`` pins identity signatures.  ``iters`` is the whole descent
    budget of one restart: it runs one descent of ``iters`` steps (0 means
    no descent), polishes the zeros once and checks the signs once.  A
    result is accepted at the fixed thresholds ``DEFAULT_MARGIN`` and
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
        return SignPattern(
            [[0 if abs(b) <= DEFAULT_ZERO_TOL else (1 if b > 0 else -1) for b in row] for row in B]
        )

    def margin(self) -> float:
        B = np.abs(self.product)
        nz = B[B > DEFAULT_ZERO_TOL]
        return float(nz.min()) if nz.size else math.inf

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


def _plane_rotation(r: int, k: int, theta: float) -> np.ndarray:
    R = np.eye(r)
    c, s = math.cos(theta), math.sin(theta)
    R[0, 0] = c
    R[0, k] = -s
    R[k, 0] = s
    R[k, k] = c
    return R


def _normalize_factors(U0: np.ndarray, V0: np.ndarray,
                       rng: np.random.Generator) -> NormalizedFactorization:
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
    for _ in range(64):
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


def normalize_factorization(B, r: int) -> NormalizedFactorization:
    """Factor a numerically rank-r matrix into the ones-bordered normal form.

    U V approximates diag(row_scales) B diag(col_scales); the returned sign
    vectors are the signs of those diagonals, so sgn(U V) equals the
    signature-adjusted sign pattern of B.  B has rank r when sigma_r exceeds
    1e-8 sigma_1 and sigma_(r+1) stays below 1e-4 sigma_1; the rotations
    draw from seed 0.
    """
    rank_tol = 1e-8
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
    return _normalize_factors(U0, V0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Exact zero-column solves (used by rationalize)


def solve_zero_columns(U, A: SignPattern, j: int, column: Sequence) -> tuple:
    """Column j of V, given as its r entries (v_1j, ..., v_rj), with the
    entries that make the zero rows of column j vanish solved exactly.

    The zero rows of U are brought to fraction-free echelon form
    (``_bareiss_echelon``); the coordinates among the first r-1 that it
    pivots on are solved, and every other entry, v_rj included, is kept as
    given.  With the leading s x s block of the zero rows nonsingular, the
    solved entries are v_1j, ..., v_sj.  SingularSystem means that no column
    with this v_rj passes through the zero rows: a pivot lands on the last
    coordinate.  More than r-1 zero rows raise Overdetermined.

    Exact: every entry is read as ``Fraction(x)`` (a float at its exact
    binary value) and the result is a tuple of r Fractions.
    """
    column = [Fraction(x) for x in column]
    rows = [U[i] for i in range(A.m) if A.entries[i][j] == 0]
    if not rows:
        return tuple(column)
    r = len(column)
    if len(rows) > r - 1:
        raise Overdetermined(j, len(rows), r - 1)
    echelon, pivots = _bareiss_echelon(rows)
    if pivots and pivots[-1] == r - 1:
        raise SingularSystem(f"no column {j + 1} passes through its zero rows")
    for row, p in reversed(list(zip(echelon, pivots))):
        column[p] = Fraction(-sum(row[k] * column[k] for k in range(p + 1, r)), row[p])
    return tuple(column)


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
    # gradient pressure; acceptance is still judged at DEFAULT_MARGIN
    U, V, _ = kernels.descent(U, V, S, 0.25, 4.0, params.iters, 0.05, free_u, free_v)
    U, V = _gauss_newton_zero_polish(U, V, zero_cells, var_index)
    if not _check_signs(U @ V, S, DEFAULT_MARGIN, DEFAULT_ZERO_TOL):
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
    if not _check_signs(Un @ Vn, target, 4 * DEFAULT_ZERO_TOL, DEFAULT_ZERO_TOL):
        return None
    return Realization(r, Un, Vn)


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
    if params.restarts < 0 or params.iters < 0:
        raise DomainError(
            f"restarts and iters must be >= 0, got {params.restarts} and {params.iters}"
        )
    if params.seed < 0:
        raise DomainError(f"seed must be >= 0, got {params.seed}")
    if r < 1:
        raise DomainError(f"rank must be >= 1, got {r}")
    if r <= 2:
        return _exact_low_rank(A, r, params.direct)
    C = condense(A).condensed
    if C.m == 0:
        return Realization(r, np.ones((0, r)), np.ones((r, 0)))
    for k in range(params.restarts):
        found = _restart(C, r, params, k)
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
        return (_product_equals(U, V, self.matrix)
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
            rank = parse_integer(doc["rank"], "'rank'")
            return cls(exact(doc["matrix"]), rank, target, factors)
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


def _integral(lines) -> list:
    """Each line of rationals as (integers, lcm): the line scaled to
    integers by the lcm of its denominators."""
    out = []
    for line in lines:
        lcm = math.lcm(*(x.denominator for x in line))
        out.append(([x.numerator * (lcm // x.denominator) for x in line], lcm))
    return out


def _exact_product(U, V) -> tuple:
    """U V over Q as a tuple of tuples of Fraction.  Each row of U and each
    column of V is scaled to integers (``_integral``), so the sums run in
    int and each entry builds one Fraction."""
    cols = _integral(zip(*V))
    return tuple(
        tuple(Fraction(sum(map(operator.mul, u, v)), lu * lv) for v, lv in cols)
        for u, lu in _integral(U)
    )


def _product_equals(U, V, matrix) -> bool:
    """U V == matrix over Q, with no Fraction built: entry (i, j) of U V is
    the integer dot product over lu * lv (``_integral``), so it equals p/q
    exactly when dot * q == p * lu * lv."""
    rows, cols = _integral(U), _integral(zip(*V))
    return [len(line) for line in matrix] == [len(cols)] * len(rows) and all(
        sum(map(operator.mul, u, v)) * x.denominator == x.numerator * lu * lv
        for (u, lu), line in zip(rows, matrix)
        for (v, lv), x in zip(cols, line)
    )


def _sign_pattern(matrix) -> SignPattern:
    return SignPattern([[(v > 0) - (v < 0) for v in row] for row in matrix])


def _round_matrix(M: np.ndarray, cap: int):
    """Each entry rounded to denominator <= cap.  A normal form's pinned
    ones stay exact: ``rational_round(1.0, cap)`` is Fraction(1)."""
    return [[rational_round(float(x), cap) for x in row] for row in M]


def rationalize(A: SignPattern, real: Realization) -> RationalCertificate:
    """Upgrade a floating realization to an exact rational certificate.

    Works on the condensed pattern, where every column must carry at most
    r-1 zeros.  If some column carries more but every row carries at most
    r-1, the rows are used instead, since mr(A) = mr(A^T): A^T is certified
    from ``transpose_realization(real)`` and the certificate is transposed
    back.  If neither fits, Overdetermined names the first over-full column
    of the original pattern.

    Every entry of U and V is rounded to denominator cap 2^t (t = 16,
    doubling to 64), and U is kept as rounded: no point is moved.  Each
    column that carries zeros is then solved exactly through its zero rows
    (``solve_zero_columns``): the coordinates its echelon form pivots on are
    solved, the others keep their rounded values.  A cap at which some
    column cannot pass through its rounded zero rows (SingularSystem), or
    whose exact product has the wrong signs, gives way to the next cap;
    PrecisionExhausted follows 2^64.  No random numbers are drawn.  The
    exact factors are expanded back to the shape of the original pattern;
    the certificate stores them with their product and its exact rank,
    proven from them.
    """
    report = condense(A)
    C = report.condensed
    r = real.r
    if real.U.shape[0] != C.m or real.V.shape[1] != C.n:
        raise DomainError(
            f"realization is {real.U.shape[0]}x{real.V.shape[1]}, "
            f"but the condensed pattern is {C.m}x{C.n}"
        )
    zeros = [col.count(0) for col in zip(*C.entries)]
    over = next((j for j, s in enumerate(zeros) if s > r - 1), None)
    if over is not None:
        if any(row.count(0) > r - 1 for row in C.entries):
            raise Overdetermined(report.kept_cols[over], zeros[over], r - 1)
        cert = rationalize(A.transpose(), transpose_realization(real))
        U, V = cert.factors
        return RationalCertificate(
            tuple(zip(*cert.matrix)), cert.rank, A, (tuple(zip(*V)), tuple(zip(*U)))
        )

    signs = signature_between(C, real.signed_pattern())
    if signs is None:
        raise DomainError(
            "realization does not realize the pattern (no signature carries "
            "its product signs onto the target)"
        )
    d1, d2 = signs

    for t in (16, 32, 64):
        cap = 1 << t
        Ur = _round_matrix(real.U, cap)
        columns = list(zip(*_round_matrix(real.V, cap)))
        try:
            for j, s in enumerate(zeros):
                if s:
                    columns[j] = solve_zero_columns(Ur, C, j, columns[j])
        except SingularSystem:
            continue
        U = _expand_lines(Ur, d1, report, "row", r)
        V = tuple(zip(*_expand_lines(columns, d2, report, "col", r)))
        full = _exact_product(U, V)
        if _sign_pattern(full) == A:
            # the certificate's one exact rank; verify() stays the
            # independent check that callers run
            return RationalCertificate(full, _factored_rank(U, V, full), A, (U, V))
    raise PrecisionExhausted(
        "denominator schedule exhausted at 2^64 without exact zeros and signs"
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


def has_direct_representation(A: SignPattern, r: int) -> DirectRepresentation:
    """Can the minimum-rank normal form be reached without signatures?

    r = 2 is decided exactly: the pattern must have minimum rank 2 and its
    condensed form must admit permutations alone (identity signatures)
    making every row and column nondecreasing; an exact witness realization
    is built from that arrangement.  For r >= 3 the numerical search runs
    with the normal form pinned; success means yes, exhaustion means
    unknown (never a proof of no).  The search runs with the default
    ``SearchParams`` budget.
    """
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
    found = search_realization(A, r, SearchParams(direct=True))
    if found is not None:
        return DirectRepresentation("yes", found)
    return DirectRepresentation("unknown", None)


def _realization_from_arrangement(C: SignPattern, witness) -> Realization:
    """Exact rank-2 realization from a monotone arrangement of C (an
    ``is_mr2`` witness, or an identity-signed one for direct mode).

    The witness's row signs d and column signs c turn C into S = d C c,
    whose rows are nondecreasing in the witness's column order: the column
    at arranged position q gets value q+1 and each row crosses from - to +
    at its zero (or between its last - and first +), so the products
    v_j + u_i realize S.  Like every search result, the product's own
    signs carry the signature."""
    d = dict(zip(witness.row_perm, witness.row_signs))
    c = dict(zip(witness.col_perm, witness.col_signs))
    S = SignPattern([[d[i] * C.entries[i][j] * c[j] for j in range(C.n)] for i in range(C.m)])
    n = C.n
    v_by_col = {}
    for pos, j in enumerate(witness.col_perm):
        v_by_col[j] = Fraction(pos + 1)
    u_by_row = {}
    for i in range(C.m):
        arranged = [(v_by_col[j], S.entries[i][j]) for j in witness.col_perm]
        zero_at = next((v for v, s in arranged if s == 0), None)
        if zero_at is not None:
            u_by_row[i] = -zero_at
        else:
            last_minus = max((v for v, s in arranged if s < 0), default=Fraction(0))
            u_by_row[i] = -(last_minus + Fraction(1, 2))
    U = np.array([[1.0, float(u_by_row[i])] for i in range(C.m)])
    V = np.array([[float(v_by_col[j]) for j in range(n)], [1.0] * n])
    real = Realization(2, U, V)
    if real.signed_pattern() != S:
        raise AssertionError("internal error: rank-2 witness failed validation")
    return real
