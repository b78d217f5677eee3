"""Static SVG rendering of planar configurations: points as labeled dots,
oriented lines clipped to a bounding box with mid-segment arrowheads.
``render_svg`` checks a given bounding box for every caller."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import DomainError
from .geometry import Configuration

_CANVAS = 640.0
_PAD = 0.15


def _floats(values, what: str) -> tuple:
    """Float coordinates for drawing; an exact entry beyond the float range
    raises DomainError naming it rather than drawing at infinity."""
    out = []
    for k, v in enumerate(values, 1):
        try:
            f = float(v)
        except OverflowError:
            f = math.inf
        if not math.isfinite(f):
            raise DomainError(f"{what} {k} is too large to draw as a float")
        out.append(f)
    return tuple(out)


def _auto_bbox(points):
    xs = [x for x, _ in points] or [0.0]
    ys = [y for _, y in points] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1.0)
    pad = _PAD * span + 0.5
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _clip_line(c0: float, c1: float, c2: float, bbox):
    """Intersections of c0 + c1 x + c2 y = 0 with the bbox edges."""
    x0, y0, x1, y1 = bbox
    hits = []
    if abs(c2) > 1e-300:
        for x in (x0, x1):
            y = -(c0 + c1 * x) / c2
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                hits.append((x, y))
    if abs(c1) > 1e-300:
        for y in (y0, y1):
            x = -(c0 + c2 * y) / c1
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                hits.append((x, y))
    hits.sort()
    unique = []
    for p in hits:
        if not unique or abs(p[0] - unique[-1][0]) + abs(p[1] - unique[-1][1]) > 1e-9:
            unique.append(p)
    if len(unique) < 2:
        return None
    return unique[0], unique[-1]


def render_svg(C: Configuration, bbox: Optional[Sequence] = None) -> str:
    """SVG 1.1 document for a planar configuration.  ``bbox`` is x0, y0, x1,
    y1, each a number or its text (``"1.5"``); None fits the points.  A bbox
    that is not 4 numbers, not finite or degenerate raises DomainError."""
    if C.dim != 2:
        raise DomainError("SVG rendering supports planar configurations only")
    points = [_floats(p, f"point {i + 1} coordinate") for i, p in enumerate(C.points)]
    lines = [
        _floats(h.coeffs, f"hyperplane {j + 1} coefficient")
        for j, h in enumerate(C.hyperplanes)
    ]
    try:
        box = tuple(float(v) for v in bbox) if bbox is not None else _auto_bbox(points)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"malformed bbox {bbox!r}; expected x0,y0,x1,y1") from None
    if len(box) != 4:
        raise DomainError(f"bbox needs 4 numbers, got {len(box)}")
    if not all(math.isfinite(v) for v in box):
        raise DomainError(f"bounding box must be finite, got {box}")
    x0, y0, x1, y1 = box
    if x1 <= x0 or y1 <= y0:
        raise DomainError(f"degenerate bounding box {box}")
    scale = _CANVAS / max(x1 - x0, y1 - y0)
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    def to_px(x, y):
        return ((x - x0) * scale, (y1 - y) * scale)  # flip y for screen coords

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for j, (c0, c1, c2) in enumerate(lines):
        seg = _clip_line(c0, c1, c2, box)
        if seg is None:
            continue
        (ax, ay), (bx, by) = seg
        px_a, px_b = to_px(ax, ay), to_px(bx, by)
        parts.append(
            f'<line x1="{px_a[0]:.2f}" y1="{px_a[1]:.2f}" '
            f'x2="{px_b[0]:.2f}" y2="{px_b[1]:.2f}" stroke="#3465a4" stroke-width="1.5"/>'
        )
        # travel direction (c2, -c1) keeps the positive side on the left
        dx, dy = c2, -c1
        norm = math.hypot(dx, dy)
        if norm > 0:
            dx, dy = dx / norm, dy / norm
            mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
            tip = to_px(mx + dx * 8 / scale, my + dy * 8 / scale)
            left = to_px(mx - dy * 3 / scale, my + dx * 3 / scale)
            right = to_px(mx + dy * 3 / scale, my - dx * 3 / scale)
            parts.append(
                f'<polygon points="{tip[0]:.2f},{tip[1]:.2f} {left[0]:.2f},{left[1]:.2f} '
                f'{right[0]:.2f},{right[1]:.2f}" fill="#3465a4"/>'
            )
        lx, ly = to_px(ax, ay)
        parts.append(
            f'<text x="{lx + 4:.2f}" y="{ly - 4:.2f}" font-size="13" '
            f'fill="#3465a4">l{j + 1}</text>'
        )

    for i, (x, y) in enumerate(points):
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.5" fill="#cc0000"/>')
        parts.append(
            f'<text x="{px + 5:.2f}" y="{py - 5:.2f}" font-size="13" '
            f'fill="#cc0000">p{i + 1}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
