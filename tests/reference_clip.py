"""Reference half-plane clip for cross-checking ``sdot.geom.clip_labeled``.

Kept in the test tree on purpose, like ``lp_oracle``: it is the earlier
three-pass kernel (signs, Sutherland-Hodgman cut, then a separate pass that
collapses near-coincident vertices), frozen so that the brute-force cells
of ``test_laguerre`` and the differential test of ``test_geom`` do not clip
with the kernel they check.  Same signature and conventions as
``sdot.geom.clip_labeled``; it accepts any polygon, with no precondition on
its edge lengths.
"""

from __future__ import annotations

import math


def clip_labeled(
    poly: list,
    labels: list[int],
    h: tuple,
    label: int,
    merge_tol: float = 0.0,
) -> tuple[list, list[int]]:
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
    out: list = []
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
    poly: list, labels: list[int], merge_tol: float
) -> tuple[list, list[int]]:
    if len(poly) < 3:
        return [], []
    t2 = merge_tol * merge_tol
    out: list = []
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
