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
about six per cell.  Three ghost sites far outside the mesh keep the lifted
set full-dimensional for any sites (few, collinear or cocircular) without
changing a cell inside the mesh bounding box.  Each cell is then
intersected with the mesh triangles to produce fragments carrying the
local affine density.

Edges created by a bisector cut keep the competitor's index as a label,
which is how interface segments (the support of the dual Hessian) are
collected without any geometric search.  A bisector along the bounding
rectangle cuts nothing, so each cell's rectangle edges are relabelled once,
before the triangle clips copy the labels into its fragments.  Each
interface is recorded from the lower-indexed side only.

The diagram is stored as flat edge arrays: every kept fragment appends its
vertices (CCW) and the labels of the edges leaving them, so an edge is a
row pointing at the row of its end vertex.  Cell integrals (masses,
transport cost, moments) are one :func:`geom.fan_integrals` call over all
edges, each edge's triangle spanned from its fragment's first vertex, and
one ``bincount`` by site; interface weights are one ``bincount`` over the
edges whose label is a higher-indexed site.  ``fragments`` and
``interfaces`` are read-only index arrays, not per-fragment objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from .domain import Mesh, SiteSet
from .errors import ValidationError
from .geom import (
    MERGE_REL,
    HalfPlane,
    Point,
    Polygon,
    area,
    clip_labeled,
    fan_integrals,
)

# fragments smaller than this fraction of the bbox area are dropped
AREA_DROP_REL = 1e-14

# edge label meaning "mesh/triangle boundary, not a bisector"
BOUNDARY = -1

ASSIGN_CHUNK = 2**14  # rows of points per block in assign


@dataclass(frozen=True)
class LaguerreDiagram:
    """Laguerre cells restricted to the mesh, as flat edge arrays.

    Fragment ``f``, the part of cell ``frag_site[f]`` in triangle
    ``frag_tri[f]``, owns a run of consecutive rows.  Row ``e`` of the
    ``(E, 2)`` array ``xy`` starts edge ``e`` of fragment ``frag[e]``, which
    ends at row ``nxt[e]`` and has the site ``label[e]`` (or ``BOUNDARY``)
    across it.  ``masses`` is computed on construction, ``fragments`` and
    ``interface_weights`` on first use.
    """

    mesh: Mesh
    sites: SiteSet
    psi: np.ndarray
    xy: np.ndarray = field(repr=False)
    nxt: np.ndarray = field(repr=False)
    label: np.ndarray = field(repr=False)
    frag: np.ndarray = field(repr=False)
    frag_site: np.ndarray = field(repr=False)
    frag_tri: np.ndarray = field(repr=False)
    masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        masses = self.cell_integrals(lambda x, y, site: 1.0)
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    def frag_bounds(self) -> np.ndarray:
        """First row of each fragment, then ``E``."""
        return np.searchsorted(self.frag, np.arange(len(self.frag_site) + 1))

    def cell_integrals(self, f) -> np.ndarray:
        """Integral of ``f(x, y, site) * rho(x, y)`` over each cell, shape (n,).

        ``f`` gets coordinate arrays and the site whose cell each point's
        triangle belongs to; it is exact for ``f`` of degree <= 2 in x, y.
        """
        site = self.frag_site[self.frag]
        gx, gy, g0 = self.mesh.tri_density[self.frag_tri[self.frag]].T
        o = self.xy[self.frag_bounds()[self.frag]]  # each fragment's first vertex
        vals = fan_integrals(
            o, self.xy, self.xy[self.nxt], lambda x, y: f(x, y, site) * (gx * x + gy * y + g0)
        )
        return np.bincount(site, vals, minlength=len(self.sites))

    @cached_property
    def fragments(self) -> np.ndarray:
        """Read-only ``(F, 2)`` ``(site, triangle)`` of each fragment, in build order."""
        out = np.column_stack([self.frag_site, self.frag_tri])
        out.setflags(write=False)
        return out

    @cached_property
    def interface_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(m, 2)`` adjacent pairs ``i < j`` and their Hessian weights.

        A weight is the density line integral over the interface (trapezoid
        rule, exact for the affine density) over ``2 |y_i - y_j|``.
        """
        n = len(self.sites)
        site = self.frag_site[self.frag]
        e = np.flatnonzero(self.label > site)  # the lower-indexed side's edges
        keys, pair_of = np.unique(site[e] * n + self.label[e], return_inverse=True)
        p = self.xy[e]
        q = self.xy[self.nxt[e]]
        gx, gy, g0 = self.mesh.tri_density[self.frag_tri[self.frag[e]]].T
        fp = gx * p[:, 0] + gy * p[:, 1] + g0
        fq = gx * q[:, 0] + gy * q[:, 1] + g0
        seg = np.hypot(q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]) * 0.5 * (fp + fq)
        pairs = np.column_stack([keys // n, keys % n])
        d = self.sites.positions[pairs[:, 1]] - self.sites.positions[pairs[:, 0]]
        weights = np.bincount(pair_of, seg, minlength=len(keys))
        pairs.setflags(write=False)
        return pairs, weights / (2.0 * np.hypot(d[:, 0], d[:, 1]))

    @property
    def interfaces(self) -> np.ndarray:
        """Read-only sorted ``(m, 2)`` adjacent pairs ``i < j``: ``interface_weights[0]``."""
        return self.interface_weights[0]


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
    psi = _checked_psi(psi, n).copy()  # the diagram's own weights, which dual.value reads
    psi.setflags(write=False)

    x0, y0, x1, y1 = mesh.bbox
    bbox_rect: Polygon = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    merge_tol = MERGE_REL * mesh.bbox_diameter
    area_drop = AREA_DROP_REL * max((x1 - x0) * (y1 - y0), merge_tol**2)
    neighbors = _power_neighbors(sites.positions, psi, mesh.bbox)
    tri_bb = mesh.tri_bboxes
    # native floats: the clipping loops box numpy scalars otherwise
    pos = [tuple(p) for p in sites.positions.tolist()]
    psi_l = psi.tolist()
    # each CCW triangle's inner half-planes, one per edge a -> b
    tri_planes = [
        [(by - ay, ax - bx, (by - ay) * ax + (ax - bx) * ay)
         for (ax, ay), (bx, by) in ((c[0], c[1]), (c[1], c[2]), (c[2], c[0]))]
        for c in mesh.vertices[mesh.triangles].tolist()
    ]

    verts: list[Point] = []  # the fragments' vertices, one fragment after another
    edge_labels: list[int] = []
    frags: list[tuple[int, int, int]] = []  # (site, triangle, vertex count)

    for j in range(n):
        if neighbors[j] is None:  # hidden above the lower hull: empty cell
            continue
        cell, labels, cuts = _clip_cell(
            bbox_rect, pos[j], psi_l[j], psi_l, pos, neighbors[j], merge_tol
        )
        if not cell:
            continue
        if BOUNDARY in labels:  # the triangle clips carry the labels into each fragment
            labels = _relabel_boundary_edges(cell, labels, cuts)

        cx = [p[0] for p in cell]
        cy = [p[1] for p in cell]
        # triangles whose bbox overlaps the cell bbox (cheap reject)
        cand = np.nonzero(
            (tri_bb[:, 0] <= max(cx) + merge_tol)
            & (tri_bb[:, 2] >= min(cx) - merge_tol)
            & (tri_bb[:, 1] <= max(cy) + merge_tol)
            & (tri_bb[:, 3] >= min(cy) - merge_tol)
        )[0]

        for t in cand.tolist():
            poly, lab = cell, labels
            for h in tri_planes[t]:
                poly, lab = clip_labeled(poly, lab, h, BOUNDARY, merge_tol)
            if area(poly) < area_drop:  # the empty polygon has area 0
                continue
            verts.extend(poly)
            edge_labels.extend(lab)
            frags.append((j, t, len(poly)))

    del tri_planes  # free it before the vertex arrays, the build's memory peak
    frag_site, frag_tri, size = np.array(frags, dtype=np.intp).reshape(-1, 3).T
    frag = np.repeat(np.arange(len(size)), size)
    nxt = np.arange(1, len(frag) + 1)
    nxt[np.cumsum(size) - 1] -= size  # the last edge closes its fragment
    xy = np.array(verts, dtype=float).reshape(-1, 2)
    label = np.array(edge_labels, dtype=np.intp)
    del verts, edge_labels, frags  # free the vertex tuples before the integrals
    return LaguerreDiagram(mesh, sites, psi, xy, nxt, label, frag, frag_site, frag_tri)


def _power_neighbors(positions: np.ndarray, psi: np.ndarray, bbox) -> list[list[int] | None]:
    """Candidate power neighbours of each site, in increasing index order.

    These are the site-to-site edges of the lower facets
    (``equations[:, 2] < 0``) of the convex hull of the lifted sites
    ``(y, |y|^2 - psi)``, a superset of the pairs whose cells share an edge
    inside ``bbox``.  ``None`` marks a site that is no vertex of a lower
    facet, whose cell is empty.

    Three ghost sites make the lifted set full-dimensional for any sites.
    With ``c`` the centre of the bounding box of the sites and ``bbox``, and
    ``R`` the largest distance from ``c`` to a site or a corner of ``bbox``,
    they sit at ``c + 4R (cos t, sin t)`` for t = 0, 120 and 240 degrees,
    with weight ``psi.max()``.  In ``bbox`` a ghost's power distance is at
    least ``9 R^2 - psi.max()`` and the heaviest site's at most
    ``4 R^2 - psi.max()``, so no ghost cell meets ``bbox``: there the cells
    and their adjacencies are those of the sites alone.  The ghosts lift to
    one horizontal plane and the heaviest site lies strictly below it, so
    Qhull never sees a flat set.  A visible site with only ghost neighbours
    is the one visible site and owns the whole box.
    """
    n = len(positions)
    x0, y0, x1, y1 = bbox
    both = np.vstack([positions, [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]])
    c = 0.5 * (both.min(axis=0) + both.max(axis=0))
    r = float(np.sqrt(((both - c) ** 2).sum(axis=1).max()))
    t = np.radians([0.0, 120.0, 240.0])
    # centring changes the lifted set by an affine map of the plane
    # coordinates, which keeps the lower hull and improves conditioning
    p = np.vstack([positions - c, 4.0 * r * np.column_stack([np.cos(t), np.sin(t)])])
    q = np.concatenate([psi, np.full(3, psi.max())]) - psi.max()
    hull = ConvexHull(np.column_stack([p, (p * p).sum(axis=1) - q]))
    tri = hull.simplices[hull.equations[:, 2] < 0].astype(np.intp)  # i * n + k overflows int32
    i = tri.ravel()
    k = tri[:, [1, 2, 0]].ravel()
    real = (i < n) & (k < n)  # drop the edges to ghosts
    i, k = i[real], k[real]
    keys = np.unique(np.concatenate([i * n + k, k * n + i]))
    starts = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    ks = (keys % n).tolist()
    seen = np.isin(np.arange(n), tri).tolist()  # vertices of a lower facet
    return [ks[a:b] if v else None for a, b, v in zip(starts, starts[1:], seen)]


def _clip_cell(bbox_rect, yj, psi_j, psi, pos, candidates, merge_tol):
    """Clip the bbox against the bisectors of site j with its candidates.

    ``candidates`` comes from :func:`_power_neighbors`: the lower-hull
    neighbours of j, which contain every site whose cell can share an edge
    with j's inside the bbox, so the result is the exact cell.
    Returns the polygon, its edge labels and a ``(k, a, b, c, band)`` per
    bisector clipped against, stopping early if the cell becomes empty.
    """
    poly: Polygon = list(bbox_rect)
    labels = [BOUNDARY] * len(poly)
    cuts = []
    for k in candidates:
        a, b, c = h = bisector(yj, psi_j, pos[k], psi[k])
        poly, labels = clip_labeled(poly, labels, h, k, merge_tol)
        cuts.append((k, a, b, c, merge_tol * math.hypot(a, b)))
        if not poly:
            break
    return poly, labels, cuts


def _relabel_boundary_edges(poly, labels, cuts):
    """Recover interface edges that lie along the bounding rectangle.

    A bisector within the merge band of a rectangle edge never cuts the
    cell there, so that cell edge keeps the BOUNDARY label; give it the
    label of the first applied bisector ``cuts`` (see :func:`_clip_cell`)
    that holds both its ends in its band.  A bisector along a triangle edge
    needs no relabelling: the cell edge it made lies within the band of the
    triangle's clip, which keeps the bisector's label.
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


def assign(points: np.ndarray, sites: SiteSet, psi) -> np.ndarray:
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
    through in blocks of ``ASSIGN_CHUNK`` rows (about 1 MB of temporaries).
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
    for lo in range(0, len(pts), ASSIGN_CHUNK):
        block = pts[lo : lo + ASSIGN_CHUNK]
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
