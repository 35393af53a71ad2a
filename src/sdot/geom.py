"""Planar geometry kernel.

Convex polygons are lists of ``(x, y)`` tuples in counter-clockwise order;
the empty list is the empty polygon.  A half-plane ``(a, b, c)`` is the set
``{(x, y) : a*x + b*y <= c}`` with ``(a, b) != (0, 0)``.

All predicates are plain floating point with explicit tolerances.  Callers
pass ``merge_tol``, an absolute length below which consecutive vertices are
considered coincident; it should be scaled from the domain bounding-box
diameter (``MERGE_REL * diameter`` is the convention used elsewhere).

Integrals over a polygon are sums over its edges: each edge ``p -> q``
contributes the signed integral over the triangle from a fixed origin to
``p`` and ``q``, so a whole diagram of polygons, stored as flat vertex
arrays, is integrated by one vectorised call of :func:`fan_integrals`
(the moment calculus of Steger 1996, *On the calculation of arbitrary
moments of polygons*, with a quadrature in place of closed-form moments).
A built diagram keeps polygon lists only in ``LaguerreDiagram.fragments`` and
``.interfaces``, views of its arrays kept for the tests and the traced benchmark.
"""

from __future__ import annotations

import math

import numpy as np

Point = tuple[float, float]
HalfPlane = tuple[float, float, float]
Polygon = list[Point]

# Relative vertex-merge tolerance (fraction of the domain bbox diameter).
MERGE_REL = 1e-12

# Degree-3 symmetric triangle rule: centroid plus the three (3/5,1/5,1/5)
# barycentric points.  Exact for total degree <= 3.
_W0 = -27.0 / 48.0
_W1 = 25.0 / 48.0


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


def fan_integrals(o: np.ndarray, p: np.ndarray, q: np.ndarray, f) -> np.ndarray:
    """Integral of ``f`` over each triangle ``(o[e], p[e], q[e])``, signed.

    ``o``, ``p`` and ``q`` are ``(E, 2)`` vertex arrays and ``f(x, y)`` maps
    coordinate arrays of shape ``(E,)`` to values of the same shape.  The
    4-point degree-3 rule makes each integral exact up to roundoff for
    polynomials of total degree <= 3.  The sign is that of the orientation, so summing the
    triangles from any origin to the edges of a CCW polygon gives the
    polygon's integral, and a triangle of zero area contributes zero.
    """
    ox, oy = o.T
    px, py = p.T
    qx, qy = q.T
    tri_area = 0.5 * ((px - ox) * (qy - oy) - (py - oy) * (qx - ox))
    acc = _W0 * f((ox + px + qx) / 3.0, (oy + py + qy) / 3.0)
    acc = acc + _W1 * f(0.6 * ox + 0.2 * px + 0.2 * qx, 0.6 * oy + 0.2 * py + 0.2 * qy)
    acc = acc + _W1 * f(0.2 * ox + 0.6 * px + 0.2 * qx, 0.2 * oy + 0.6 * py + 0.2 * qy)
    acc = acc + _W1 * f(0.2 * ox + 0.2 * px + 0.6 * qx, 0.2 * oy + 0.2 * py + 0.6 * qy)
    return tri_area * acc
