"""Laguerre (power) diagrams of weighted sites restricted to a mesh.

The cell of site ``j`` with weight ``psi_j`` is
``{x : |x - y_j|^2 - psi_j <= |x - y_k|^2 - psi_k for all k}``; with equal
weights this is the Voronoi diagram.  Lifting each site to
``(y_j, |y_j|^2 - psi_j)`` turns cells into facets of the lower convex hull
(Aurenhammer 1987, *Power diagrams*): two cells can share an edge only if
their lifted sites share an edge of that hull, and a site that is not a
vertex of any lower facet has an empty cell.  Each build computes the hull
once (Qhull via ``scipy.spatial.ConvexHull``) and clips the mesh bounding
box of every cell against the power bisectors of its hull neighbours only,
about six per cell.  When the sites are collinear the lifted set is flat and
Qhull has no hull; the cells are then slabs whose neighbours come from the
one-dimensional lower hull over the sites' line.  With fewer than 4 sites,
or another flat lifted set (such as 4 cocircular sites at equal weights),
every other site is clipped against instead.  Each cell is then
intersected with the mesh triangles to produce fragments carrying the
local affine density.

Edges created by a bisector cut keep the competitor's index as a label,
which is how interface segments (the support of the dual Hessian) are
collected without any geometric search.  Each interface is recorded from
the lower-indexed side only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .domain import Mesh, SiteSet
from .errors import ValidationError
from .geom import (
    MERGE_REL,
    HalfPlane,
    Point,
    Polygon,
    area,
    clip_labeled,
    integrate_affine,
    integrate_affine_segment,
)

# fragments smaller than this fraction of the bbox area are dropped
AREA_DROP_REL = 1e-14

# edge label meaning "mesh/triangle boundary, not a bisector"
BOUNDARY = -1

Segment = tuple[Point, Point, tuple[float, float, float]]


@dataclass(frozen=True)
class CellFragment:
    site: int
    triangle: int
    polygon: Polygon
    density: tuple[float, float, float]  # affine (gx, gy, g0) on this triangle


@dataclass(frozen=True)
class LaguerreDiagram:
    mesh: Mesh
    sites: SiteSet
    psi: np.ndarray
    fragments: list[CellFragment]
    interfaces: dict[tuple[int, int], list[Segment]] = field(repr=False)
    masses: np.ndarray = field(repr=False)

    @property
    def site_count(self) -> int:
        return len(self.sites)


def bisector(y_i: Point, psi_i: float, y_j: Point, psi_j: float) -> HalfPlane:
    """Half-plane of points power-closer to site ``i`` than to site ``j``.

    Expanding ``|x - y_i|^2 - psi_i <= |x - y_j|^2 - psi_j`` gives
    ``2 (y_j - y_i) . x <= |y_j|^2 - |y_i|^2 - psi_j + psi_i``.
    """
    a = 2.0 * (y_j[0] - y_i[0])
    b = 2.0 * (y_j[1] - y_i[1])
    if a == 0.0 and b == 0.0:
        raise ValidationError(f"coincident sites at ({y_i[0]:g}, {y_i[1]:g})")
    c = (
        y_j[0] * y_j[0]
        + y_j[1] * y_j[1]
        - y_i[0] * y_i[0]
        - y_i[1] * y_i[1]
        - psi_j
        + psi_i
    )
    return (a, b, c)


def _checked_psi(psi, n: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n,):
        raise ValidationError(f"psi must have {n} entries, got shape {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValidationError("non-finite weight")
    return psi


def build(mesh: Mesh, sites: SiteSet, psi) -> LaguerreDiagram:
    """Construct the Laguerre diagram of ``(sites, psi)`` restricted to the mesh."""
    n = len(sites)
    psi = _checked_psi(psi, n)

    x0, y0, x1, y1 = mesh.bbox
    bbox_rect: Polygon = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    merge_tol = MERGE_REL * mesh.bbox_diameter
    area_drop = AREA_DROP_REL * max((x1 - x0) * (y1 - y0), merge_tol**2)
    neighbors = _power_neighbors(sites.positions, psi)
    tri_bb = mesh.tri_bboxes
    # native floats: the clipping loops box numpy scalars otherwise
    pos = [tuple(p) for p in sites.positions.tolist()]
    psi_l = psi.tolist()
    tri_pts = mesh.vertices[mesh.triangles].tolist()
    tri_rho = [tuple(r) for r in mesh.tri_density.tolist()]

    fragments: list[CellFragment] = []
    interfaces: dict[tuple[int, int], list[Segment]] = {}
    masses = np.zeros(n)

    for j in range(n):
        if neighbors[j] is None:  # hidden above the lower hull: empty cell
            continue
        cell, labels, applied = _clip_cell(
            bbox_rect, pos[j], psi_l[j], psi_l, pos, neighbors[j], merge_tol
        )
        if not cell:
            continue

        cx = [p[0] for p in cell]
        cy = [p[1] for p in cell]
        # triangles whose bbox overlaps the cell bbox (cheap reject)
        cand = np.nonzero(
            (tri_bb[:, 0] <= max(cx) + merge_tol)
            & (tri_bb[:, 2] >= min(cx) - merge_tol)
            & (tri_bb[:, 1] <= max(cy) + merge_tol)
            & (tri_bb[:, 3] >= min(cy) - merge_tol)
        )[0]

        cuts = None  # the applied bisectors, built once a fragment needs them
        for t in cand.tolist():
            corners = tri_pts[t]
            poly, lab = cell, labels
            for e in range(3):
                ax, ay = corners[e]
                bx, by = corners[e - 2]
                h = (by - ay, ax - bx, (by - ay) * ax + (ax - bx) * ay)
                poly, lab = clip_labeled(poly, lab, h, BOUNDARY, merge_tol)
                if not poly:
                    break
            if not poly or area(poly) < area_drop:
                continue
            if BOUNDARY in lab:
                if cuts is None:
                    cuts = _cuts(pos[j], psi_l[j], psi_l, pos, applied, merge_tol)
                lab = _relabel_boundary_edges(poly, lab, cuts)

            density = tri_rho[t]
            fragments.append(CellFragment(j, t, poly, density))
            masses[j] += integrate_affine(poly, *density)

            m = len(poly)
            for e in range(m):
                k = lab[e]
                if k > j:  # lower-indexed site owns the interface record
                    seg = (poly[e], poly[(e + 1) % m], density)
                    interfaces.setdefault((j, k), []).append(seg)

    diagram = LaguerreDiagram(mesh, sites, psi, fragments, interfaces, masses)
    diagram.masses.setflags(write=False)
    return diagram


def _power_neighbors(positions: np.ndarray, psi: np.ndarray) -> list[list[int] | None]:
    """Candidate power neighbours of each site, in increasing index order.

    These are the edges of the lower facets (``equations[:, 2] < 0``) of the
    convex hull of the lifted sites ``(y, |y|^2 - psi)``, a superset of the
    pairs whose cells share an edge.  ``None`` marks a site that is no
    vertex of a lower facet, whose cell is empty.  When Qhull finds the
    lifted set flat because the sites are collinear, the neighbours come
    from the lower hull of the sites lifted over their line instead (see
    :func:`_line_neighbors`).  With fewer than 4 sites, or a flat lifted set
    of sites that are not collinear, every other site is a candidate.
    """
    n = len(positions)
    hull = None
    if n >= 4:
        # centring changes the lifted set by an affine map of the plane
        # coordinates, which keeps the lower hull and improves conditioning
        p = positions - positions.mean(axis=0)
        q = psi - psi.mean()
        try:
            hull = ConvexHull(np.column_stack([p, (p * p).sum(axis=1) - q]))
        except QhullError:  # the lifted set is flat
            _, sv, axes = np.linalg.svd(p, full_matrices=False)
            if sv[1] <= 1e-12 * sv[0]:  # collinear sites
                return _line_neighbors(p @ axes[0], q)
    if hull is None:
        return [[k for k in range(n) if k != j] for j in range(n)]
    tri = hull.simplices[hull.equations[:, 2] < 0]
    i = tri.ravel()
    k = tri[:, [1, 2, 0]].ravel()
    keys = np.unique(np.concatenate([i * n + k, k * n + i]))
    starts = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    ks = (keys % n).tolist()
    return [ks[a:b] if a < b else None for a, b in zip(starts, starts[1:])]


def _line_neighbors(t: np.ndarray, q: np.ndarray) -> list[list[int] | None]:
    """Power neighbours of collinear sites at positions ``t`` on their line.

    The cells are slabs across the line, ordered as the vertices of the
    lower hull of ``(t, t^2 - q)`` (monotone chain), so each hull vertex
    has its predecessor and successor as candidates and every other site
    has an empty cell (``None``).
    """
    tl = t.tolist()
    z = (t * t - q).tolist()
    hull: list[int] = []
    for i in np.lexsort((z, t)).tolist():
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (tl[b] - tl[a]) * (z[i] - z[a]) - (z[b] - z[a]) * (tl[i] - tl[a]) > 0:
                break
            hull.pop()
        hull.append(i)
    out: list[list[int] | None] = [None] * len(tl)
    for h, j in enumerate(hull):
        out[j] = sorted(hull[max(h - 1, 0) : h] + hull[h + 1 : h + 2])
    return out


def _clip_cell(bbox_rect, yj, psi_j, psi, pos, candidates, merge_tol):
    """Clip the bbox against the bisectors of site j with its candidates.

    ``candidates`` comes from :func:`_power_neighbors`: the lower-hull
    neighbours of j, or every other site when the lifted set is flat and
    the sites are not collinear.  Either way it contains every site whose
    cell can share an edge with j's, so the result is the exact cell.
    Returns the polygon, its edge labels and the candidates clipped against,
    stopping early if the cell becomes empty.
    """
    poly: Polygon = list(bbox_rect)
    labels = [BOUNDARY] * len(poly)
    applied: list[int] = []
    for k in candidates:
        h = bisector(yj, psi_j, pos[k], psi[k])
        poly, labels = clip_labeled(poly, labels, h, k, merge_tol)
        applied.append(k)
        if not poly:
            break
    return poly, labels, applied


def _cuts(yj, psi_j, psi, pos, applied, merge_tol):
    """``(k, a, b, c, band)`` for each applied bisector of site j, in order."""
    out = []
    for k in applied:
        a, b, c = bisector(yj, psi_j, pos[k], psi[k])
        out.append((k, a, b, c, merge_tol * math.hypot(a, b)))
    return out


def _relabel_boundary_edges(poly, labels, cuts):
    """Recover interface edges that coincide with triangle boundaries.

    A bisector lying exactly on a mesh edge never cuts either neighboring
    triangle, so the shared edge keeps the BOUNDARY label; detect that case
    by checking boundary-labelled edges against the applied bisectors
    ``cuts`` (see :func:`_cuts`).
    """
    m = len(poly)
    out = list(labels)
    for e in range(m):
        if out[e] != BOUNDARY:
            continue
        px, py = poly[e]
        qx, qy = poly[(e + 1) % m]
        for k, a, b, c, band in cuts:
            if abs(a * px + b * py - c) <= band and abs(a * qx + b * qy - c) <= band:
                out[e] = k
                break
    return out


def interface_weight(diagram: LaguerreDiagram, i: int, j: int) -> float:
    """Density line integral over the (i, j) interface, over ``2 |y_i - y_j|``.

    Zero when the cells are not adjacent.  This is the magnitude of the
    off-diagonal dual Hessian entry.
    """
    if i == j:
        raise ValidationError("interface requires two distinct sites")
    pair = (min(i, j), max(i, j))
    segments = diagram.interfaces.get(pair)
    if not segments:
        return 0.0
    total = 0.0
    for p, q, (gx, gy, g0) in segments:
        total += integrate_affine_segment(p, q, gx, gy, g0)
    yi = diagram.sites.positions[pair[0]]
    yj = diagram.sites.positions[pair[1]]
    return total / (2.0 * math.hypot(yj[0] - yi[0], yj[1] - yi[1]))


def assign(
    points: np.ndarray, sites: SiteSet, psi, chunk: int | None = None
) -> np.ndarray:
    """Classify points by power-distance argmin (ties to the lower index).

    Lifting site j to ``(y_j, sqrt(max psi - psi_j))`` and a point x to
    ``(x, 0)`` makes their squared Euclidean distance the power distance
    plus ``max psi``, so the power argmin is a nearest-neighbour query
    (Aurenhammer 1987).  A ``cKDTree`` on the lifted sites gives each point
    its ``min(4, n)`` nearest candidates, whose power distances are then
    recomputed exactly as the dense argmin over all sites would.  A row
    whose k-th lifted distance is not clearly above its best candidate's
    could have its argmin outside the candidates; such rows take the dense
    argmin, so the result equals the dense one bit for bit.  Points go
    through in blocks of ``chunk`` rows, by default 2**14, so a block's
    temporaries hold about 2**17 floats (1 MB).
    """
    psi = _checked_psi(psi, len(sites))
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise ValidationError("non-finite point")
    pos = sites.positions
    n = len(pos)
    out = np.empty(len(pts), dtype=np.int64)
    if not len(pts):
        return out
    if chunk is None:
        chunk = 2**14
    k = min(4, n)
    top = float(psi.max())
    tree = cKDTree(np.column_stack([pos, np.sqrt(top - psi)]))
    corners = np.vstack([pts.min(axis=0), pts.max(axis=0), pos.min(axis=0), pos.max(axis=0)])
    diag2 = float((np.ptp(corners, axis=0) ** 2).sum())
    # far above the rounding of either distance at the scale of the spread of
    # psi, plus a few ulps of max |psi| for the rounding of |x - y|^2 - psi
    # and of best + max psi under a large gauge offset
    eps = np.finfo(float).eps
    margin = 1e-9 * (float(np.ptp(psi)) + diag2 + 1.0) + 16 * eps * float(np.abs(psi).max())
    for lo in range(0, len(pts), chunk):
        block = pts[lo : lo + chunk]
        m = len(block)
        dist, cand = tree.query(np.column_stack([block, np.zeros(m)]), k=k)
        cand = np.sort(cand.reshape(m, k), axis=1)  # ties go to the lower index
        d2 = ((block[:, None, :] - pos[cand]) ** 2).sum(axis=2) - psi[cand]
        best = np.argmin(d2, axis=1)
        rows = np.arange(m)
        got = cand[rows, best]
        if k < n:
            kth = dist.reshape(m, k)[:, -1] ** 2
            unsure = np.nonzero(kth <= d2[rows, best] + top + margin)[0]
            step = max(1, 2**16 // n)
            for a in range(0, len(unsure), step):
                r = unsure[a : a + step]
                full = ((block[r, None, :] - pos[None, :, :]) ** 2).sum(axis=2) - psi[None, :]
                got[r] = np.argmin(full, axis=1)
        out[lo : lo + m] = got
    return out
