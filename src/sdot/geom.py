"""Planar geometry kernel.

Convex polygons are lists of ``(x, y)`` tuples in counter-clockwise order;
the empty list is the empty polygon.  A half-plane ``(a, b, c)`` is the set
``{(x, y) : a*x + b*y <= c}`` with ``(a, b) != (0, 0)``.

All predicates are plain floating point with explicit tolerances.  Callers
pass ``merge_tol``, an absolute length below which consecutive vertices are
considered coincident; it should be scaled from the domain bounding-box
diameter (``MERGE_REL * diameter`` is the convention used elsewhere).

Integration routines are exact (up to roundoff) for their stated integrand
degree: trapezoid on segments for affine integrands, fan triangulation with
the vertex-mean rule for affine integrands on polygons, and a 4-point
degree-3 triangle rule for the quadratic-cost integrals.
"""

from __future__ import annotations

import math

Point = tuple[float, float]
HalfPlane = tuple[float, float, float]
Polygon = list[Point]

# Relative vertex-merge tolerance (fraction of the domain bbox diameter).
MERGE_REL = 1e-12

# Degree-3 symmetric triangle rule: centroid plus the three (3/5,1/5,1/5)
# barycentric points.  Exact for total degree <= 3.
_W0 = -27.0 / 48.0
_W1 = 25.0 / 48.0


def clip(poly: Polygon, h: HalfPlane, merge_tol: float = 0.0) -> Polygon:
    """Intersect a convex CCW polygon with a half-plane.

    Returns a new polygon (possibly empty).  Vertices within ``merge_tol``
    of the boundary line count as inside, which keeps shared boundaries
    stable under repeated clipping.  This is :func:`clip_labeled` with the
    edge labels dropped.
    """
    return clip_labeled(poly, [0] * len(poly), h, 0, merge_tol)[0]


def clip_labeled(
    poly: Polygon,
    labels: list[int],
    h: HalfPlane,
    label: int,
    merge_tol: float = 0.0,
) -> tuple[Polygon, list[int]]:
    """Half-plane clip that tracks which cut produced each edge.

    ``labels[i]`` names the source of the edge ``poly[i] -> poly[i+1]``;
    edges created by this cut get ``label``.  Used by the diagram builder
    to recover interface segments without a geometric search.
    """
    n = len(poly)
    if n == 0:
        return [], []
    a, b, c = h
    band = merge_tol * math.hypot(a, b)
    f = [a * px + b * py - c for px, py in poly]
    out: Polygon = []
    lout: list[int] = []
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        fi = f[i]
        fj = f[j]
        if fi <= band:
            out.append(poly[i])
            lout.append(labels[i])
            if fj > band:
                # clamp against band-induced extrapolation on near-parallel edges
                t = min(max(fi / (fi - fj), 0.0), 1.0)
                pi = poly[i]
                pj = poly[j]
                out.append((pi[0] + t * (pj[0] - pi[0]), pi[1] + t * (pj[1] - pi[1])))
                lout.append(label)  # the new edge runs along the cut line
        elif fj <= band:
            # re-entering: the remainder of the cut edge keeps its label
            t = min(max(fi / (fi - fj), 0.0), 1.0)
            pi = poly[i]
            pj = poly[j]
            out.append((pi[0] + t * (pj[0] - pi[0]), pi[1] + t * (pj[1] - pi[1])))
            lout.append(labels[i])
    return _merged(out, lout, merge_tol)


def _merged(
    poly: Polygon, labels: list[int], merge_tol: float
) -> tuple[Polygon, list[int]]:
    if len(poly) < 3:
        return [], []
    if merge_tol <= 0.0:
        return poly, labels
    t2 = merge_tol * merge_tol
    out: Polygon = []
    lout: list[int] = []
    for p, l in zip(poly, labels):
        if out:
            q = out[-1]
            dx = p[0] - q[0]
            dy = p[1] - q[1]
            if dx * dx + dy * dy < t2:
                # degenerate edge collapses; the newer cut continues from here
                lout[-1] = l
                continue
        out.append(p)
        lout.append(l)
    if len(out) >= 2:
        p = out[0]
        q = out[-1]
        dx = p[0] - q[0]
        dy = p[1] - q[1]
        if dx * dx + dy * dy < t2:
            out.pop()
            lout.pop()
    if len(out) < 3:
        return [], []
    return out, lout


def area(poly: Polygon) -> float:
    """Shoelace area; nonnegative for CCW input, zero below 3 vertices."""
    n = len(poly)
    if n < 3:
        return 0.0
    s = 0.0
    xn, yn = poly[n - 1]
    for x, y in poly:
        s += xn * y - x * yn
        xn, yn = x, y
    return 0.5 * s


def integrate_affine(poly: Polygon, gx: float, gy: float, g0: float) -> float:
    """Integral of ``gx*x + gy*y + g0`` over the polygon.

    Fan triangulation from vertex 0; each triangle contributes its area
    times the mean of the three vertex values, which is exact for affine
    integrands.
    """
    n = len(poly)
    if n < 3:
        return 0.0
    x0, y0 = poly[0]
    f0 = gx * x0 + gy * y0 + g0
    total = 0.0
    x1, y1 = poly[1]
    f1 = gx * x1 + gy * y1 + g0
    for i in range(2, n):
        x2, y2 = poly[i]
        f2 = gx * x2 + gy * y2 + g0
        tri_area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        total += tri_area * (f0 + f1 + f2) / 3.0
        x1, y1, f1 = x2, y2, f2
    return total


def integrate_affine_segment(
    p: Point, q: Point, gx: float, gy: float, g0: float
) -> float:
    """Line integral of an affine function along segment ``p -> q``.

    Trapezoid rule, exact for affine integrands; zero for a degenerate
    segment.
    """
    length = math.hypot(q[0] - p[0], q[1] - p[1])
    if length == 0.0:
        return 0.0
    fp = gx * p[0] + gy * p[1] + g0
    fq = gx * q[0] + gy * q[1] + g0
    return length * 0.5 * (fp + fq)


def integrate_quadratic(
    poly: Polygon, center: Point, gx: float, gy: float, g0: float
) -> float:
    """Integral of ``|x - center|^2 * (gx*x + gy*y + g0)`` over the polygon.

    The integrand has total degree 3, so the 4-point degree-3 triangle rule
    applied to a fan triangulation is exact up to roundoff.
    """
    n = len(poly)
    if n < 3:
        return 0.0
    cx, cy = center
    x0, y0 = poly[0]
    total = 0.0
    x1, y1 = poly[1]
    for i in range(2, n):
        x2, y2 = poly[i]
        tri_area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if tri_area != 0.0:
            gxc = (x0 + x1 + x2) / 3.0
            gyc = (y0 + y1 + y2) / 3.0
            acc = _W0 * _quad_point(gxc, gyc, cx, cy, gx, gy, g0)
            acc += _W1 * _quad_point(
                0.6 * x0 + 0.2 * x1 + 0.2 * x2, 0.6 * y0 + 0.2 * y1 + 0.2 * y2,
                cx, cy, gx, gy, g0,
            )
            acc += _W1 * _quad_point(
                0.2 * x0 + 0.6 * x1 + 0.2 * x2, 0.2 * y0 + 0.6 * y1 + 0.2 * y2,
                cx, cy, gx, gy, g0,
            )
            acc += _W1 * _quad_point(
                0.2 * x0 + 0.2 * x1 + 0.6 * x2, 0.2 * y0 + 0.2 * y1 + 0.6 * y2,
                cx, cy, gx, gy, g0,
            )
            total += tri_area * acc
        x1, y1 = x2, y2
    return total


def _quad_point(
    px: float, py: float, cx: float, cy: float, gx: float, gy: float, g0: float
) -> float:
    dx = px - cx
    dy = py - cy
    return (dx * dx + dy * dy) * (gx * px + gy * py + g0)


def integrate_deg3(poly: Polygon, f) -> float:
    """Integral of a callable ``f(x, y)`` over the polygon.

    Exact for polynomial integrands of total degree <= 3 (same rule as
    :func:`integrate_quadratic`); used for cell moments.
    """
    n = len(poly)
    if n < 3:
        return 0.0
    x0, y0 = poly[0]
    total = 0.0
    x1, y1 = poly[1]
    for i in range(2, n):
        x2, y2 = poly[i]
        tri_area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if tri_area != 0.0:
            acc = _W0 * f((x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0)
            acc += _W1 * f(0.6 * x0 + 0.2 * x1 + 0.2 * x2, 0.6 * y0 + 0.2 * y1 + 0.2 * y2)
            acc += _W1 * f(0.2 * x0 + 0.6 * x1 + 0.2 * x2, 0.2 * y0 + 0.6 * y1 + 0.2 * y2)
            acc += _W1 * f(0.2 * x0 + 0.2 * x1 + 0.6 * x2, 0.2 * y0 + 0.2 * y1 + 0.6 * y2)
            total += tri_area * acc
        x1, y1 = x2, y2
    return total


def polygon_contains(poly: Polygon, p: Point, tol: float = 0.0) -> bool:
    """Point-in-convex-polygon test (CCW polygon, boundary counts inside)."""
    n = len(poly)
    if n < 3:
        return False
    px, py = p
    xn, yn = poly[n - 1]
    for x, y in poly:
        if (x - xn) * (py - yn) - (y - yn) * (px - xn) < -tol:
            return False
        xn, yn = x, y
    return True
