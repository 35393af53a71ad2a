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
changing a cell inside the mesh bounding box.

The cells are then restricted to the mesh triangles in arrays, giving
fragments that carry the local affine density.  They are packed into
padded rows, and a bounding-box overlap test, run over blocks of cells,
pairs each cell with the triangles it may meet.  Every pair goes through
three padded Sutherland-Hodgman rounds, one triangle edge each, which
follow ``clip_labeled`` vertex for vertex; the merge of close vertices
runs only on the rows that hold two candidates closer than the merge
tolerance.

Edges created by a bisector cut keep the competitor's index as a label,
which is how interface segments (the support of the dual Hessian) are
collected without any geometric search.  A bisector along the bounding
rectangle cuts nothing, so each cell's rectangle edges are relabelled once,
before the restriction copies the labels into its fragments.  Each
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
    clip_labeled,
    fan_integrals,
)

# fragments smaller than this fraction of the bbox area are dropped
AREA_DROP_REL = 1e-14

# edge label meaning "mesh/triangle boundary, not a bisector"
BOUNDARY = -1

ASSIGN_CHUNK = 2**14  # rows of points per block in assign
RESTRICT_CHUNK = 2**10  # (cell, triangle) pairs per block in the restriction


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
    # native floats: the clipping loops box numpy scalars otherwise
    pos = [tuple(p) for p in sites.positions.tolist()]
    psi_l = psi.tolist()

    cell_site: list[int] = []
    cell_xy: list[Point] = []  # the cells' vertices, one cell after another
    cell_labels: list[int] = []
    cell_size: list[int] = []
    for j in range(n):
        if neighbors[j] is None:  # hidden above the lower hull: empty cell
            continue
        cell, labels, cuts = _clip_cell(
            bbox_rect, pos[j], psi_l[j], psi_l, pos, neighbors[j], merge_tol
        )
        if not cell:
            continue
        if BOUNDARY in labels:  # the restriction carries the labels into each fragment
            labels = _relabel_boundary_edges(cell, labels, cuts)
        cell_site.append(j)
        cell_xy.extend(cell)
        cell_labels.extend(labels)
        cell_size.append(len(cell))

    size = np.array(cell_size, dtype=np.intp)
    x, y, lab = _padded(size, *np.array(cell_xy, dtype=float).reshape(-1, 2).T,
                        np.array(cell_labels, dtype=np.intp))
    del cell_xy, cell_labels  # free the vertex tuples before the restriction
    # pairs whose bounding boxes overlap (the cell's widened by merge_tol)
    lo = np.column_stack([x.min(axis=1), y.min(axis=1)]) - merge_tol
    hi = np.column_stack([x.max(axis=1), y.max(axis=1)]) + merge_tol
    cell, tri = _box_pairs(lo, hi, mesh.tri_bboxes)
    corners = mesh.vertices[mesh.triangles]
    xy, label, size = _restrict(x, y, lab, size, corners, cell, tri, merge_tol)

    xy, label, nxt, frag, kept = _drop_small(xy, label, size, area_drop)
    frag_site = np.array(cell_site, dtype=np.intp)[cell[kept]]
    frag_tri = tri[kept]
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

    Qhull gets the plane coordinates less ``c`` over ``R`` and ``psi -
    psi.max()`` over ``R^2``: this keeps the lower hull, and the lifted set
    spans about 1 on each axis whatever the scale of the input.
    """
    n = len(positions)
    x0, y0, x1, y1 = bbox
    both = np.vstack([positions, [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]])
    c = 0.5 * (both.min(axis=0) + both.max(axis=0))
    r = float(np.sqrt(((both - c) ** 2).sum(axis=1).max()))
    t = np.radians([0.0, 120.0, 240.0])
    p = np.vstack([(positions - c) / r, 4.0 * np.column_stack([np.cos(t), np.sin(t)])])
    q = (np.concatenate([psi, np.full(3, psi.max())]) - psi.max()) / r**2
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


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run and rank within the run of each entry when run ``i`` has ``counts[i]`` entries."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def _padded(size: np.ndarray, *flat: np.ndarray) -> list[np.ndarray]:
    """Rows of ``size.max()`` columns from runs of ``size`` entries of each flat array.

    Row ``i`` holds the ``i``-th run, then copies of its first entry, so a
    polygon's padding adds only zero-length edges and no new extent.
    """
    run, rank = _runs(size)
    width = int(size.max(initial=1))  # one column even without rows, for the reductions
    first = np.cumsum(size) - size
    out = []
    for values in flat:
        rows = np.repeat(values[first][:, None], width, axis=1)
        rows[run, rank] = values
        out.append(rows)
    return out


def _box_pairs(lo, hi, tri_boxes) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index pairs ``(i, t)`` of overlapping boxes ``lo[i], hi[i]`` and ``tri_boxes[t]``.

    ``tri_boxes`` rows are ``(x0, y0, x1, y1)``.  The boxes go through in
    blocks of about ``RESTRICT_CHUNK`` pairs, so no ``(boxes, triangles)``
    array is made.
    """
    step = RESTRICT_CHUNK // len(tri_boxes) + 1
    box, tri = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(lo), step):
        b0, b1 = lo[start : start + step, :, None], hi[start : start + step, :, None]
        i, t = np.nonzero(
            (tri_boxes[:, 0] <= b1[:, 0]) & (tri_boxes[:, 2] >= b0[:, 0])
            & (tri_boxes[:, 1] <= b1[:, 1]) & (tri_boxes[:, 3] >= b0[:, 1])
        )
        box.append(i + start)
        tri.append(t)
    return np.concatenate(box), np.concatenate(tri)


def _restrict(x, y, lab, size, corners, cell, tri, merge_tol):
    """Each cell ``cell[p]`` clipped by the triangle ``tri[p]``, for every pair ``p``.

    ``x``, ``y`` and ``lab`` are padded rows (see :func:`_padded`) of the
    cells' CCW vertices and edge labels, ``size`` their vertex counts, and
    ``corners`` the ``(nt, 3, 2)`` CCW triangle corners.  Every pair goes
    through three padded rounds of :func:`_clip_rows`, one triangle edge
    per round, edge ``c0 -> c1`` first, so the result is exactly what
    ``clip_labeled`` chained over the triangle's inner half-planes returns:
    ``(V, 2)`` vertices and ``(V,)`` edge labels of all pairs, one after
    another, and each pair's vertex count (0 when empty).  Pairs go through
    in blocks of ``RESTRICT_CHUNK`` rows.
    """
    # inner half-planes (a, b, c) of each triangle edge k -> k + 1, (nt, 3) each
    ax, ay = corners[:, :, 0], corners[:, :, 1]
    bx, by = np.roll(ax, -1, axis=1), np.roll(ay, -1, axis=1)
    ta, tb = by - ay, ax - bx
    tc = ta * ax + tb * ay
    tband = merge_tol * np.hypot(ta, tb)

    none = np.zeros(0, dtype=np.intp)
    xy_out, lab_out, size_out = [np.zeros((0, 2))], [none], [none]
    for lo in range(0, len(cell), RESTRICT_CHUNK):
        c, t = cell[lo : lo + RESTRICT_CHUNK], tri[lo : lo + RESTRICT_CHUNK]
        rx, ry, rl, rn = x[c], y[c], lab[c], size[c]
        for k in range(3):
            rx, ry, rl, rn = _clip_rows(
                rx, ry, rl, rn, ta[t, k], tb[t, k], tc[t, k], tband[t, k], merge_tol
            )
        on = np.arange(rx.shape[1]) < rn[:, None]
        xy_out.append(np.column_stack([rx[on], ry[on]]))
        lab_out.append(rl[on])
        size_out.append(rn)
    return np.concatenate(xy_out), np.concatenate(lab_out), np.concatenate(size_out)


def _drop_small(xy, label, size, area_drop):
    """Flat edge arrays of the polygons, runs of ``size`` rows, with area at least ``area_drop``.

    Returns the kept rows of ``xy`` and ``label``, the row that ends each
    kept edge, the fragment of each kept row and which polygons are kept.
    """
    run, rank = _runs(size)
    nxt = np.arange(len(run)) + np.where(rank + 1 == size[run], -rank, 1)  # the last edge closes
    px, py = xy.T
    qx, qy = xy[nxt].T
    kept = 0.5 * np.bincount(run, px * qy - qx * py, minlength=len(size)) >= area_drop
    rows = kept[run]  # the empty polygon has area 0
    nxt = (np.cumsum(rows) - 1)[nxt[rows]]
    return xy[rows], label[rows], nxt, (np.cumsum(kept) - 1)[run[rows]], kept


def _clip_rows(x, y, lab, n, a, b, c, band, merge_tol):
    """One ``clip_labeled`` cut by ``BOUNDARY`` half-plane ``(a[r], b[r], c[r])`` per row ``r``.

    Rows hold ``n[r]`` vertices and edge labels, with any padding after
    them.  Each edge ``p -> q`` emits ``p`` if ``f(p) <= band`` and then its
    crossing of the cut line, at ``t = clip(f(p) / (f(p) - f(q)), 0, 1)``,
    labelled ``BOUNDARY`` when leaving and with the edge's label when
    re-entering.  An emitted vertex closer than ``merge_tol`` to the last
    one kept merges into it and passes on its label; a closing edge shorter
    than ``merge_tol`` drops the last vertex; fewer than 3 make the row empty.
    Only the rows where two consecutive candidates lie closer than
    ``merge_tol`` go through the merge.
    """
    rows, width = x.shape
    col = np.arange(width)
    on = col < n[:, None]
    nxt = np.where(col + 1 < n[:, None], col + 1, 0)
    f = a[:, None] * x + b[:, None] * y - c[:, None]
    fq = np.take_along_axis(f, nxt, axis=1)
    inside = f <= band[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # only crossing edges are read
        t = np.clip(f / (f - fq), 0.0, 1.0)
    # candidates, per edge: its start if inside, then its crossing
    emit = np.stack([on & inside, on & (inside != (fq <= band[:, None]))], axis=2)
    cx = np.stack([x, x + t * (np.take_along_axis(x, nxt, axis=1) - x)], axis=2)
    cy = np.stack([y, y + t * (np.take_along_axis(y, nxt, axis=1) - y)], axis=2)
    cl = np.stack([lab, np.where(inside, BOUNDARY, lab)], axis=2)
    k, (cx, cy, cl) = _compact(emit.reshape(rows, -1), cx, cy, cl)

    # Merging against the last vertex kept.  In a row with no two consecutive
    # candidates closer than merge_tol, the last vertex kept before each
    # candidate is the one just before it, so only the other rows can merge.
    t2 = merge_tol * merge_tol
    dx, dy = np.diff(cx, axis=1), np.diff(cy, axis=1)
    close = (dx * dx + dy * dy < t2) & (np.arange(1, cx.shape[1]) < k[:, None])
    m = np.flatnonzero(close.any(axis=1))
    if len(m):
        # Each decision depends on the earlier ones only, so iterating from
        # "every vertex kept" settles after at most as many rounds as the
        # longest run of merges, plus one.
        mx, my, ml = cx[m], cy[m], cl[m]
        idx = np.arange(cx.shape[1])
        on = idx < k[m, None]
        merged = np.zeros(mx.shape, dtype=bool)
        while True:
            kept = on & ~merged
            last = np.maximum.accumulate(np.where(kept, idx, -1), axis=1)
            prev = np.concatenate([np.full((len(m), 1), -1), last[:, :-1]], axis=1)
            dx = mx - np.take_along_axis(mx, np.maximum(prev, 0), axis=1)
            dy = my - np.take_along_axis(my, np.maximum(prev, 0), axis=1)
            now = on & (prev >= 0) & (dx * dx + dy * dy < t2)
            if (now == merged).all():
                break
            merged = now
        # a kept vertex takes the label of the last vertex merged into it
        stop = np.where(kept | ~on, idx, len(idx))
        after = np.minimum.accumulate(stop[:, ::-1], axis=1)[:, ::-1]
        after = np.concatenate([after[:, 1:], np.full((len(m), 1), len(idx))], axis=1)
        ml = np.take_along_axis(ml, np.maximum(after - 1, 0), axis=1)
        k[m], packed = _compact(kept, mx, my, ml)
        for arr, new in zip((cx, cy, cl), packed):
            arr[m, : new.shape[1]] = new

    last = np.maximum(k - 1, 0)[:, None]
    dx = cx[:, :1] - np.take_along_axis(cx, last, axis=1)
    dy = cy[:, :1] - np.take_along_axis(cy, last, axis=1)
    k = k - ((k > 0) & (dx * dx + dy * dy < t2)[:, 0])
    k[k < 3] = 0
    return cx, cy, cl, k


def _compact(keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Move each row's entries where ``keep`` holds to its front, in order.

    Returns the count per row and the arrays, as wide as the largest count.
    """
    rows = keep.shape[0]
    k = keep.sum(axis=1)
    r, col = np.nonzero(keep)
    dest = np.arange(len(r)) - (np.cumsum(k) - k)[r]
    out = []
    for arr in arrays:
        arr = arr.reshape(keep.shape)
        packed = np.zeros((rows, int(k.max(initial=1))), dtype=arr.dtype)  # one column at least
        packed[r, dest] = arr[r, col]
        out.append(packed)
    return k, out


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
