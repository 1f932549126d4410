"""Static SVG renderings of planar scenes.

The drawing pipeline is exact until the final coordinate formatting:
sets are clipped to the viewport box with rational arithmetic, vertices
are ordered with an exact angular comparator, and only the last step of
printing a coordinate converts to a fixed four-decimal float. For a
fixed scene the emitted bytes are identical on every run.

Unbounded sets appear as their viewport clip; the artificial edges that
lie on the box boundary are drawn dashed to mark where the set keeps
going.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import InputError
from .linalg import Vec, frac, linf_norm, vadd, vec, vscale, vsub
from .sets import ConvexSet, ball_inf

CANVAS = 512
PAD = 16
DEFAULT_HALF_WIDTH = Fraction(4)

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
AXIS_COLOR = "#cccccc"
SEPARATOR_COLOR = "#444444"

ARROW_LENGTH = Fraction(9, 10)
HEAD_SIZE = 7.0
HEAD_ANGLE = 0.45


class _Projection:
    """Exact world box [-R, R]^2 to the pixel canvas, y axis flipped."""

    def __init__(self, half_width: Fraction):
        self.half_width = half_width
        self.scale = Fraction(CANVAS - 2 * PAD, 1) / (2 * half_width)

    def to_pixels(self, p) -> tuple[float, float]:
        x = PAD + (frac(p[0]) + self.half_width) * self.scale
        y = PAD + (self.half_width - frac(p[1])) * self.scale
        return float(x), float(y)


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    # avoid the two spellings of zero
    return "0.0000" if out == "-0.0000" else out


def _pt(proj: _Projection, p) -> str:
    x, y = proj.to_pixels(p)
    return f"{_fmt(x)},{_fmt(y)}"


def _angular_order(vertices: list[Vec]) -> list[Vec]:
    """Counterclockwise order around the exact vertex centroid.

    Comparisons use the quadrant of the offset and exact cross products,
    so the order never depends on floating point.
    """
    n = len(vertices)
    center = tuple(sum(v[i] for v in vertices) / n for i in range(2))

    def quadrant(d) -> int:
        if d[1] >= 0:
            return 0 if d[0] > 0 else 1
        return 2 if d[0] < 0 else 3

    def compare(u, v):
        du, dv = vsub(u, center), vsub(v, center)
        qu, qv = quadrant(du), quadrant(dv)
        if qu != qv:
            return -1 if qu < qv else 1
        cross = du[0] * dv[1] - du[1] * dv[0]
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return sorted(vertices, key=functools.cmp_to_key(compare))


def _clip_to_viewport(s: ConvexSet, half_width: Fraction) -> list[Vec]:
    box = ball_inf((0, 0), half_width)
    clipped = box.intersect(s)
    if clipped.is_empty():
        return []
    return _angular_order(list(clipped.vrep().vertices))


def _on_same_wall(u: Vec, v: Vec, half_width: Fraction) -> bool:
    for i in range(2):
        for side in (half_width, -half_width):
            if u[i] == side and v[i] == side:
                return True
    return False


def _polygon_elements(name: str, verts: list[Vec], color: str,
                      proj: _Projection) -> list[str]:
    hw = proj.half_width
    out = []
    if len(verts) == 1:
        x, y = proj.to_pixels(verts[0])
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.0000" '
                   f'fill="{color}"><title>{name}</title></circle>')
        return out
    points = " ".join(_pt(proj, v) for v in verts)
    if len(verts) == 2:
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="2.5" stroke-linecap="round">'
                   f'<title>{name}</title></polyline>')
        return out
    out.append(f'<polygon points="{points}" fill="{color}" fill-opacity="0.30" '
               f'stroke="none"><title>{name}</title></polygon>')
    # solid strokes on true edges, dashed where the viewport cut the set
    for i, u in enumerate(verts):
        v = verts[(i + 1) % len(verts)]
        ux, uy = proj.to_pixels(u)
        vx, vy = proj.to_pixels(v)
        dash = ' stroke-dasharray="5 4"' if _on_same_wall(u, v, hw) else ""
        out.append(f'<line x1="{_fmt(ux)}" y1="{_fmt(uy)}" x2="{_fmt(vx)}" '
                   f'y2="{_fmt(vy)}" stroke="{color}" stroke-width="1.8"{dash}/>')
    return out


def _arrow_elements(base: Vec, direction: Vec, color: str,
                    proj: _Projection) -> list[str]:
    tip = vadd(base, vscale(ARROW_LENGTH / linf_norm(direction), direction))
    bx, by = proj.to_pixels(base)
    tx, ty = proj.to_pixels(tip)
    out = [f'<line x1="{_fmt(bx)}" y1="{_fmt(by)}" x2="{_fmt(tx)}" y2="{_fmt(ty)}" '
           f'stroke="{color}" stroke-width="1.6"/>']
    angle = math.atan2(ty - by, tx - bx)
    for turn in (HEAD_ANGLE, -HEAD_ANGLE):
        hx = tx - HEAD_SIZE * math.cos(angle + turn)
        hy = ty - HEAD_SIZE * math.sin(angle + turn)
        out.append(f'<line x1="{_fmt(tx)}" y1="{_fmt(ty)}" x2="{_fmt(hx)}" '
                   f'y2="{_fmt(hy)}" stroke="{color}" stroke-width="1.6"/>')
    return out


def _line_through_viewport(g: Vec, gamma: Fraction,
                           half_width: Fraction) -> list[Vec]:
    """Both intersection points of g.x = gamma with the viewport box."""
    hits = []
    hw = half_width
    for i in range(2):
        j = 1 - i
        for side in (-hw, hw):
            if g[j] == 0:
                continue
            other = (gamma - g[i] * side) / g[j]
            if -hw <= other <= hw:
                p = [Fraction(0), Fraction(0)]
                p[i], p[j] = side, other
                hits.append(vec(p))
    unique = sorted(set(hits))
    return unique[:2] if len(unique) >= 2 else []


def render_scene(sets, points=(), cone_fans=(), separator=None,
                 half_width=DEFAULT_HALF_WIDTH) -> str:
    """Compose the SVG document for one planar scene.

    sets: iterable of (name, ConvexSet) drawn in palette order.
    points: iterable of (name, point) drawn as labeled dots.
    cone_fans: iterable of (base_point, directions, set_index) where the
        directions are drawn as arrows from the base in the color of the
        indexed set.
    separator: optional (functional, level) drawn as a dashed line.
    """
    hw = frac(half_width)
    if hw <= 0:
        raise InputError("viewport half-width must be positive")
    proj = _Projection(hw)
    named = list(sets)
    for name, s in named:
        if s.dim != 2:
            raise InputError(f"set {name!r} is {s.dim}-dimensional, plots are planar")

    body = []
    origin_px = proj.to_pixels((0, 0))
    lo, hi = float(PAD), float(CANVAS - PAD)
    body.append(f'<rect x="{_fmt(lo)}" y="{_fmt(lo)}" width="{_fmt(hi - lo)}" '
                f'height="{_fmt(hi - lo)}" fill="none" stroke="#999999" '
                f'stroke-width="1.0"/>')
    body.append(f'<line x1="{_fmt(lo)}" y1="{_fmt(origin_px[1])}" x2="{_fmt(hi)}" '
                f'y2="{_fmt(origin_px[1])}" stroke="{AXIS_COLOR}" stroke-width="1.0"/>')
    body.append(f'<line x1="{_fmt(origin_px[0])}" y1="{_fmt(lo)}" '
                f'x2="{_fmt(origin_px[0])}" y2="{_fmt(hi)}" '
                f'stroke="{AXIS_COLOR}" stroke-width="1.0"/>')

    for index, (name, s) in enumerate(named):
        color = PALETTE[index % len(PALETTE)]
        verts = _clip_to_viewport(s, hw)
        if verts:
            body.extend(_polygon_elements(name, verts, color, proj))
        label_y = 30.0 + 14.0 * index
        body.append(f'<text x="20.0000" y="{_fmt(label_y)}" '
                    f'font-family="monospace" font-size="12" '
                    f'fill="{color}">{name}</text>')

    if separator is not None:
        g, gamma = vec(separator[0]), frac(separator[1])
        ends = _line_through_viewport(g, gamma, hw)
        if len(ends) == 2:
            a, b = proj.to_pixels(ends[0]), proj.to_pixels(ends[1])
            body.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                        f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                        f'stroke="{SEPARATOR_COLOR}" stroke-width="1.8" '
                        f'stroke-dasharray="7 5"/>')

    for base, directions, set_index in cone_fans:
        color = PALETTE[set_index % len(PALETTE)]
        for direction in directions:
            body.extend(_arrow_elements(vec(base), vec(direction), color, proj))

    for name, p in points:
        x, y = proj.to_pixels(p)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0000" '
                    f'fill="#000000"/>')
        body.append(f'<text x="{_fmt(x + 6.0)}" y="{_fmt(y - 6.0)}" '
                    f'font-family="monospace" font-size="11" '
                    f'fill="#000000">{name}</text>')

    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{CANVAS}" height="{CANVAS}" '
            f'viewBox="0 0 {CANVAS} {CANVAS}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"
