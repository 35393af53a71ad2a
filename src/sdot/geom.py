"""Planar geometry kernel.

Convex polygons are lists of ``(x, y)`` tuples in counter-clockwise order;
the empty list is the empty polygon.  A half-plane ``(a, b, c)`` is the set
``{(x, y) : a*x + b*y <= c}`` with ``(a, b) != (0, 0)``.

All predicates are plain floating point with explicit tolerances.  Callers
pass ``merge_tol``, an absolute length below which consecutive vertices are
considered coincident; it should be scaled from the domain bounding-box
diameter (``MERGE_REL * diameter`` is the convention used elsewhere).
:func:`clip_labeled` is Sutherland-Hodgman clipping (Sutherland and Hodgman
1974, *Reentrant polygon clipping*) in one pass: it merges each vertex it
emits into the last one kept, so every polygon it returns has consecutive
vertices at least ``merge_tol`` apart, save possibly the closing edge.

Integrals over a polygon are sums over its edges: each edge ``p -> q``
contributes the signed integral over the triangle from a fixed origin to
``p`` and ``q``, so a whole diagram of polygons, stored as flat vertex
arrays, is integrated by one vectorised call of :func:`fan_integrals`
(the moment calculus of Steger 1996, *On the calculation of arbitrary
moments of polygons*, with a quadrature in place of closed-form moments).
Polygon lists exist only while ``laguerre.build`` clips each cell against
its competitors; the restriction to the mesh and the diagram use arrays.
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

    One pass walks the edges ``p -> q``, emits ``p`` if kept and then the
    crossing of the cut line, and compares each with the last vertex kept:
    closer than ``merge_tol``, the degenerate edge collapses and the newer
    label carries on.  Fewer than three vertices left make the empty polygon.
    """
    a, b, c = h
    band = merge_tol * math.hypot(a, b)
    t2 = merge_tol * merge_tol
    out: Polygon = []
    lout: list[int] = []
    if not poly:
        return out, lout
    lx = ly = math.inf  # the last vertex kept
    px, py = p = poly[0]
    lp = labels[0]
    fp = a * px + b * py - c
    for i in range(1 - len(poly), 1):  # q runs over poly[1], ..., poly[-1], poly[0]
        qx, qy = q = poly[i]
        fq = a * qx + b * qy - c
        inside = fp <= band
        if inside:
            if (px - lx) * (px - lx) + (py - ly) * (py - ly) < t2:
                lout[-1] = lp  # degenerate edge collapses; the newer cut continues from here
            else:
                out.append(p)
                lout.append(lp)
                lx, ly = px, py
        if inside != (fq <= band):
            # clamp against band-induced extrapolation on near-parallel edges
            t = min(max(fp / (fp - fq), 0.0), 1.0)
            x = px + t * (qx - px)
            y = py + t * (qy - py)
            # leaving, the new edge runs along the cut line; re-entering, the
            # remainder of the cut edge keeps its label
            k = label if inside else lp
            if (x - lx) * (x - lx) + (y - ly) * (y - ly) < t2:
                lout[-1] = k
            else:
                out.append((x, y))
                lout.append(k)
                lx, ly = x, y
        p, px, py, fp, lp = q, qx, qy, fq, labels[i]
    if out and (out[0][0] - lx) * (out[0][0] - lx) + (out[0][1] - ly) * (out[0][1] - ly) < t2:
        del out[-1], lout[-1]
    if len(out) < 3:
        return [], []
    return out, lout


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
