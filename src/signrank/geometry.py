"""Exact point-hyperplane configurations and their sign-pattern encodings.

A configuration lives in dimension d with coordinates in Q(sqrt(field_d)).
Each QuadElem carries its own radical, so field_d is read off the scalars
(1 when all are rational); two different radicals raise DomainError.
Hyperplanes are oriented: the coefficient vector (c0, c1, ..., cd) denotes
{x : c0 + c1 x1 + ... + cd xd = 0} with the positive side where the
evaluation is positive.  Coefficient vectors differing by a positive scalar
denote the same oriented hyperplane, so construction canonicalizes by a
positive scale making |cd| = 1 when cd != 0 (cd = +1 is the rightward
presentation: the positive side is then "above" in the xd sense).  Reversing
an orientation negates the corresponding column of the encoded pattern.

Every oriented hyperplane, vertical ones (cd = 0) included, encodes: the
side of a point is the exact sign of c0 + c1 x1 + ... + cd xd.  Only the
factor normal form (``from_factorization``, whose columns end in 1) and
``stack`` need every hyperplane rightward.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import SignPattern, _check_integer, _Record, condense
from .errors import DomainError, VerticalHyperplane
from .scalars import (
    QuadElem,
    _integral,
    check_radical,
    format_scalar,
    parse_integer,
    parse_scalar,
    root_sign,
)


def _lift_all(values) -> tuple:
    return tuple(QuadElem.lift(v) for v in values)


class OrientedHyperplane(_Record):
    """Oriented hyperplane with d+1 exact coefficients (c0, c1, ..., cd)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        coeffs = _lift_all(coeffs)
        if len(coeffs) < 2:
            raise DomainError("a hyperplane needs at least two coefficients")
        if all(c.is_zero() for c in coeffs[1:]):
            raise DomainError("degenerate hyperplane: all direction coefficients are zero")
        # canonical positive scaling: |last nonzero of c1..cd| becomes 1,
        # preferring cd itself so non-vertical hyperplanes end with cd = +-1
        scale_ref = coeffs[-1]
        if scale_ref.is_zero():
            scale_ref = next(c for c in reversed(coeffs[1:]) if not c.is_zero())
        scale = scale_ref if scale_ref.sign() > 0 else -scale_ref
        if scale.s or scale.r != 1:  # a rightward hyperplane's scale is 1: nothing to divide
            coeffs = tuple(c / scale for c in coeffs)
        self._set(coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    def is_vertical(self) -> bool:
        return self.coeffs[-1].is_zero()

    def is_rightward(self) -> bool:
        return self.coeffs[-1].sign() > 0

    def evaluate(self, point: Sequence) -> QuadElem:
        if len(point) != self.dim:
            raise DomainError(
                f"point of dimension {len(point)} against hyperplane of dimension {self.dim}"
            )
        acc = self.coeffs[0]
        for c, x in zip(self.coeffs[1:], point):
            acc = acc + c * x
        return acc

    def reversed_orientation(self) -> "OrientedHyperplane":
        return OrientedHyperplane([-c for c in self.coeffs])

    def __repr__(self):
        return f"OrientedHyperplane({[str(float(c)) for c in self.coeffs]})"


class Configuration(_Record):
    """Labeled points and oriented hyperplanes over the one field of their scalars."""

    __slots__ = ("dim", "field_d", "points", "hyperplanes")

    def __init__(self, dim: int, points: Iterable, hyperplanes: Iterable):
        dim = _check_integer(dim, "configuration dimension", 1)
        pts = tuple(_lift_all(p) for p in points)
        for p in pts:
            if len(p) != dim:
                raise DomainError(f"point {p} does not have dimension {dim}")
        hyps = []
        for h in hyperplanes:
            if not isinstance(h, OrientedHyperplane):
                h = OrientedHyperplane(h)
            if h.dim != dim:
                raise DomainError(f"hyperplane of dimension {h.dim}, expected {dim}")
            hyps.append(h)
        field_d = _field([x for p in pts for x in p] + [c for h in hyps for c in h.coeffs])
        self._set(dim, field_d, pts, tuple(hyps))

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_hyperplanes(self) -> int:
        return len(self.hyperplanes)

    def __repr__(self):
        return (
            f"Configuration(dim={self.dim}, {self.num_points} points, "
            f"{self.num_hyperplanes} hyperplanes, sqrt {self.field_d})"
        )


def _field(scalars) -> int:
    """The radical d that the scalars' radical parts share, 1 when all are
    rational; two different radicals raise DomainError."""
    radicals = {x.d for x in scalars}
    radicals.discard(1)
    if len(radicals) > 1:
        raise DomainError(f"cannot mix sqrt({min(radicals)}) and sqrt({max(radicals)}) scalars")
    return max(radicals, default=1)


def _scaled(vectors) -> list:
    """Each vector of exact scalars as (a, b, q): integer lists a, b and an
    integer q > 0 with vector = (a + b sqrt(d)) / q, q the lcm of all the
    vector's denominators (``scalars._integral``)."""
    out = []
    for v in vectors:
        [(ints, q)] = _integral([[x.r for x in v] + [x.s for x in v]])
        out.append((ints[:len(v)], ints[len(v):], q))
    return out


def _evaluations(points, hyperplanes, d: int) -> list:
    """The exact product U V of the paper's factorization: U's rows are the
    homogeneous points (1, p_i), V's columns the hyperplanes' coefficients,
    so entry (i, j) is hyperplane j evaluated at point i.  Each vector is
    scaled to integers once (``_scaled``), so entry (i, j) is an integer
    triple (a, b, q) standing for (a + b sqrt(d)) / q with q > 0; over Q
    (d = 1) b is 0 and only one dot product is taken."""
    one = QuadElem(1)
    us = _scaled([(one, *p) for p in points])
    vs = _scaled([h.coeffs for h in hyperplanes])

    def dot(x, y):
        return sum(map(operator.mul, x, y))

    if d == 1:
        return [[(dot(ua, va), 0, uq * vq) for va, _, vq in vs] for ua, _, uq in us]
    return [[(dot(ua, va) + d * dot(ub, vb), dot(ua, vb) + dot(ub, va), uq * vq)
              for va, vb, vq in vs] for ua, ub, uq in us]


def _signs(points, hyperplanes, d: int) -> list:
    """sgn(U V) of ``_evaluations``: the side of each point relative to each
    hyperplane, read off integers (q > 0 carries no sign)."""
    rows = _evaluations(points, hyperplanes, d)
    if d == 1:
        return [[(a > 0) - (a < 0) for a, _, _ in row] for row in rows]
    return [[root_sign(a, b, d) for a, b, _ in row] for row in rows]


def side(point: Sequence, hyperplane: OrientedHyperplane) -> int:
    """Exact side of the point relative to the oriented hyperplane: +1 on
    the positive side (above, for rightward hyperplanes), 0 on it, -1 below."""
    point = _lift_all(point)
    if len(point) != hyperplane.dim:
        raise DomainError(
            f"point of dimension {len(point)} against hyperplane of dimension {hyperplane.dim}"
        )
    return _signs([point], [hyperplane], _field(point + hyperplane.coeffs))[0][0]


def encode_configuration(C: Configuration) -> SignPattern:
    """Sign pattern of the configuration: entry (i, j) is the side of point
    i relative to hyperplane j, the sign of entry (i, j) of the exact
    product U V (``_signs``).  The result has minimum rank <= dim + 1.

    Any oriented hyperplane encodes, a vertical one too.  The pattern is
    num_points x num_hyperplanes, so a configuration without points keeps
    its width.
    """
    entries = tuple(map(tuple, _signs(C.points, C.hyperplanes, C.field_d)))
    return SignPattern._trusted(entries, C.num_points, C.num_hyperplanes)


def from_factorization(U, V) -> Configuration:
    """Configuration of a normal-form factor pair: row i of U = (1, u_i2,
    ..., u_ir) becomes the point (u_i2, ..., u_ir); column j of V =
    (v_1j, ..., v_{r-1,j}, 1) becomes the hyperplane with those coefficients.
    The encoded pattern of the result equals sgn(UV) entry-wise.
    """
    U = [_lift_all(row) for row in U]
    V = [_lift_all(row) for row in V]
    if not U or not V:
        raise DomainError("factors must be nonempty")
    r = len(U[0])
    if any(len(row) != r for row in U) or len(V) != r:
        raise DomainError("inner dimensions of U and V do not match")
    if r < 2:
        raise DomainError(f"normal form needs rank >= 2, got r = {r}")
    n = len(V[0])
    if any(len(row) != n for row in V):
        raise DomainError("ragged V")
    for i, row in enumerate(U):
        if row[0] != 1:
            raise DomainError(f"U row {i + 1} does not start with an exact 1")
    for j in range(n):
        if V[r - 1][j] != 1:
            raise DomainError(f"V column {j + 1} does not end with an exact 1")
    points = [row[1:] for row in U]
    hyperplanes = [[V[k][j] for k in range(r)] for j in range(n)]
    return Configuration(r - 1, points, hyperplanes)


class SimplicityViolation(NamedTuple):
    condition: int  # 1..4
    indices: tuple

    def describe(self) -> str:
        kinds = {
            1: "points with identical or opposite positions",
            2: "hyperplanes with identical or opposite positions",
            3: "point lying on every hyperplane",
            4: "hyperplane through every point",
        }
        ones = tuple(i + 1 for i in self.indices)
        return f"condition {self.condition}: {kinds[self.condition]} at {ones}"


def is_simple(C: Configuration):
    """A configuration is simple iff its encoded pattern is condensed.
    Returns (bool, violations): one violation per line that ``condense``
    deletes, rows (points) first.  A zero line fails condition 3 or 4; a
    duplicate or opposite line fails condition 1 or 2 with the pair
    (survivor, index), so each deleted line is named once, against the
    earliest line it matches."""
    violations = []
    for e in condense(encode_configuration(C)).log:
        row = e.axis == "row"
        if e.kind == "zero":
            violations.append(SimplicityViolation(3 if row else 4, (e.index,)))
        else:
            violations.append(SimplicityViolation(1 if row else 2, (e.survivor, e.index)))
    return (not violations, tuple(violations))


def translate(C: Configuration, v: Sequence) -> Configuration:
    """Shift points by v and adjust c0 so every evaluation is unchanged."""
    v = _lift_all(v)
    if len(v) != C.dim:
        raise DomainError(f"translation vector of dimension {len(v)}, expected {C.dim}")
    pts = [tuple(x + dx for x, dx in zip(p, v)) for p in C.points]
    hyps = []
    for h in C.hyperplanes:
        shift = h.coeffs[0]
        for c, dx in zip(h.coeffs[1:], v):
            shift = shift - c * dx
        hyps.append((shift,) + h.coeffs[1:])
    return Configuration(C.dim, pts, hyps)


class DualizationResult(NamedTuple):
    configuration: Configuration
    hyperplane_flips: tuple  # hyperplanes re-oriented before taking poles


def dualize(C: Configuration) -> DualizationResult:
    """Incidence- and orientation-preserving dual transform.

    Each point a becomes the hyperplane <a, x> = 1 oriented with the origin
    on the negative side; each hyperplane (re-oriented, if needed, so the
    origin lies on its negative side, with the flip recorded) becomes its
    pole point.  The encoded pattern of the dual equals the transpose of the
    original pattern after negating the flipped columns.
    """
    one = QuadElem(1)
    new_hyps = []
    for i, p in enumerate(C.points):
        if all(x.is_zero() for x in p):
            raise DomainError(
                f"point {i + 1} is the origin; translate the configuration first"
            )
        new_hyps.append((-one,) + tuple(p))
    new_pts = []
    flips = []
    for j, h in enumerate(C.hyperplanes):
        c0 = h.coeffs[0]
        if c0.is_zero():
            raise DomainError(
                f"hyperplane {j + 1} passes through the origin; translate the configuration first"
            )
        if c0.sign() > 0:
            h = h.reversed_orientation()
            flips.append(j)
            c0 = h.coeffs[0]
        new_pts.append(tuple(-c / c0 for c in h.coeffs[1:]))
    return DualizationResult(
        Configuration(C.dim, new_pts, new_hyps), tuple(flips)
    )


def _pad_dimension(C: Configuration, target_dim: int) -> Configuration:
    """Embed into a higher dimension by inserting zero coordinates right
    after the leading factor column: new leading point coordinates are zero
    and hyperplanes get matching zero coefficients after c0."""
    delta = target_dim - C.dim
    if delta == 0:
        return C
    zero = QuadElem(0)
    pts = [(zero,) * delta + p for p in C.points]
    hyps = [(h.coeffs[0],) + (zero,) * delta + h.coeffs[1:] for h in C.hyperplanes]
    return Configuration(target_dim, pts, hyps)


def stack(C1: Configuration, C2: Configuration) -> Configuration:
    """Block composition: equalize dimensions, then translate C1 far enough
    up that every C1 point is above every C2 hyperplane and every C2 point
    below every C1 hyperplane.  The encoded pattern of the result is the
    block pattern [[A1, +], [-, A2]].

    Both inputs must encode condensed patterns, share their radical unless
    one is rational, and present every hyperplane rightward (cd = +1); the
    "far above" offset is computed exactly from the crossing requirements.
    """
    if C1.field_d != C2.field_d and 1 not in (C1.field_d, C2.field_d):
        raise DomainError(
            f"cannot stack sqrt({C1.field_d}) and sqrt({C2.field_d}) configurations"
        )
    for name, cfg in (("first", C1), ("second", C2)):
        for j, h in enumerate(cfg.hyperplanes):
            if h.is_vertical():
                raise VerticalHyperplane(j, name)
            if not h.is_rightward():
                raise DomainError(
                    f"hyperplane {j + 1} of the {name} configuration points leftward; "
                    "stacking needs the rightward presentation"
                )
        simple, violations = is_simple(cfg)
        if not simple:
            raise DomainError(
                f"the {name} configuration does not encode a condensed pattern: "
                + "; ".join(v.describe() for v in violations)
            )

    dim = max(C1.dim, C2.dim)
    top = _pad_dimension(C1, dim)
    bottom = _pad_dimension(C2, dim)

    # every rightward hyperplane gains exactly +delta at a point shifted up
    # by delta, and its own shift lowers evaluations of fixed points by delta,
    # so delta must exceed -eval (top points, bottom hyperplanes) and eval
    # (bottom points, top hyperplanes).  The largest of these and 0 is found
    # on integers: (a2 + b2 sqrt d) / q2 > (a + b sqrt d) / q exactly when
    # (a2 q - a q2) + (b2 q - b q2) sqrt d > 0, as q, q2 > 0
    d = max(C1.field_d, C2.field_d)
    requirements = [(-a, -b, q) for row in _evaluations(top.points, bottom.hyperplanes, d)
                    for a, b, q in row]
    requirements += [e for row in _evaluations(bottom.points, top.hyperplanes, d) for e in row]
    a, b, q = 0, 0, 1
    for a2, b2, q2 in requirements:
        if root_sign(a2 * q - a * q2, b2 * q - b * q2, d) > 0:
            a, b, q = a2, b2, q2
    delta = QuadElem(Fraction(a, q), Fraction(b, q), d) + 1

    lifted = translate(top, (0,) * (dim - 1) + (delta,))
    return Configuration(
        dim,
        lifted.points + bottom.points,
        lifted.hyperplanes + bottom.hyperplanes,
    )


class IncidenceStructure(NamedTuple):
    point_members: tuple  # per point: frozenset of incident hyperplane indices
    hyperplane_members: tuple  # per hyperplane: frozenset of incident point indices


def incidence_structure(A: SignPattern) -> IncidenceStructure:
    """Read the zero set of a pattern as a point/hyperplane incidence
    relation: point i lies on hyperplane j iff entry (i, j) is zero."""
    point_members = tuple(
        frozenset(j for j in range(A.n) if A.entries[i][j] == 0) for i in range(A.m)
    )
    hyperplane_members = tuple(
        frozenset(i for i in range(A.m) if A.entries[i][j] == 0) for j in range(A.n)
    )
    return IncidenceStructure(point_members, hyperplane_members)


# Configuration file format (JSON): {"dim": 2, "sqrt": 5, "points": [...],
# "hyperplanes": [...]} with scalars in the shared textual syntax; "sqrt"
# names the radical of the {"r", "s"} scalars and is written only when some
# scalar has a radical part.


def configuration_to_dict(C: Configuration) -> dict:
    doc = {
        "dim": C.dim,
        "points": [[format_scalar(x) for x in p] for p in C.points],
        "hyperplanes": [[format_scalar(c) for c in h.coeffs] for h in C.hyperplanes],
    }
    if C.field_d != 1:
        doc["sqrt"] = C.field_d
    return doc


def _list_entry(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(item, list) for item in value):
        raise DomainError(f"configuration {key!r} must be a list of coordinate lists, got {value!r}")
    return value


def configuration_from_dict(doc: dict) -> Configuration:
    if not isinstance(doc, dict):
        raise DomainError("configuration document must be a JSON object")
    missing = {"dim", "points", "hyperplanes"} - set(doc)
    if missing:
        raise DomainError(f"configuration document missing keys {sorted(missing)}")
    field_d = check_radical(parse_integer(doc.get("sqrt", 1), "configuration 'sqrt'", 1))
    dim = parse_integer(doc.get("dim"), "configuration 'dim'", 1)
    points = [[parse_scalar(x, field_d) for x in p] for p in _list_entry(doc, "points")]
    hyperplanes = [
        [parse_scalar(c, field_d) for c in h] for h in _list_entry(doc, "hyperplanes")
    ]
    return Configuration(dim, points, hyperplanes)


def load_configuration(path) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return configuration_from_dict(json.load(fh))


def save_configuration(C: Configuration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(configuration_to_dict(C), fh, indent=2)
        fh.write("\n")
