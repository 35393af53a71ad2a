"""Source and target measures.

The source is a triangulated planar domain with a nonnegative density given
per vertex and interpolated linearly inside each triangle.  The target is a
finite set of weighted Dirac sites.  Both are immutable after construction;
all derived quantities (triangle masses, density planes, bounding boxes)
are cached.

File formats:

* mesh (``.dmesh``, ASCII): line 1 ``nv nt``, two nonnegative counts; then
  ``nv`` lines ``x y rho``; then ``nt`` lines ``i j k`` (0-based vertex
  indices). ``#`` starts a comment line.
* sites (CSV): header ``x,y,nu`` then one row per site.

A malformed file raises ``FormatError`` naming its path and line.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import FormatError, ValidationError
from .geom import MERGE_REL

BALANCE_RTOL = 1e-9
COINCIDENCE_REL = 1e-12


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangle mesh with per-vertex density (counter-clockwise triangles)."""

    vertices: np.ndarray  # (nv, 2) float
    densities: np.ndarray  # (nv,) float, >= 0
    triangles: np.ndarray  # (nt, 3) int

    @cached_property
    def tri_areas(self) -> np.ndarray:
        a, b, c = self._corners()
        return 0.5 * _cross2(b - a, c - a)

    @cached_property
    def tri_masses(self) -> np.ndarray:
        # vertex-mean rule, exact for the affine density
        rho = self.densities[self.triangles]
        return self.tri_areas * rho.mean(axis=1)

    @cached_property
    def total_mass(self) -> float:
        return float(self.tri_masses.sum())

    @cached_property
    def tri_density(self) -> np.ndarray:
        """Per-triangle affine density coefficients ``(gx, gy, g0)``."""
        a, b, c = self._corners()
        ra, rb, rc = (self.densities[self.triangles[:, k]] for k in range(3))
        twice_area = 2.0 * self.tri_areas
        gx = ((rb - ra) * (c[:, 1] - a[:, 1]) - (rc - ra) * (b[:, 1] - a[:, 1])) / twice_area
        gy = ((rc - ra) * (b[:, 0] - a[:, 0]) - (rb - ra) * (c[:, 0] - a[:, 0])) / twice_area
        g0 = ra - gx * a[:, 0] - gy * a[:, 1]
        return np.column_stack([gx, gy, g0])

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])

    @cached_property
    def bbox_diameter(self) -> float:
        x0, y0, x1, y1 = self.bbox
        return math.hypot(x1 - x0, y1 - y0)

    @cached_property
    def tri_bboxes(self) -> np.ndarray:
        """(nt, 4) array of per-triangle (xmin, ymin, xmax, ymax)."""
        pts = self.vertices[self.triangles]
        return np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)

    def _corners(self):
        pts = self.vertices[self.triangles]
        return pts[:, 0, :], pts[:, 1, :], pts[:, 2, :]


def make_mesh(vertices, densities, triangles) -> Mesh:
    """Validate raw arrays and build a Mesh; flips CW triangles to CCW."""
    vertices = np.asarray(vertices, dtype=float)
    densities = np.asarray(densities, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValidationError("vertices must be an (nv, 2) array")
    if densities.shape != (len(vertices),):
        raise ValidationError("densities must have one value per vertex")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValidationError("triangles must be an (nt, 3) array")
    if not np.isfinite(vertices).all():
        raise ValidationError("non-finite vertex coordinate")
    if not np.isfinite(densities).all():
        raise ValidationError("non-finite density value")
    if (densities < 0).any():
        bad = int(np.argmax(densities < 0))
        raise ValidationError(f"negative density {densities[bad]} at vertex {bad}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
        raise ValidationError("triangle vertex index out of range")

    triangles = triangles.copy()
    pts = vertices[triangles]
    signed = 0.5 * _cross2(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    flip = signed < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    signed = np.abs(signed)
    tiny = np.finfo(float).tiny  # a subnormal area has lost its precision
    if (signed < tiny).any():
        bad = int(np.argmax(signed < tiny))
        raise ValidationError(f"triangle {bad} has zero area (below {tiny:.3g})")

    mesh = Mesh(vertices, densities, triangles)
    if mesh.total_mass <= 0:
        raise ValidationError("mesh total mass must be positive")
    # laguerre.build merges vertices closer than this, so it would clip a
    # thinner triangle to nothing, or not at all
    merge_tol = MERGE_REL * mesh.bbox_diameter
    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    longest = np.max([np.hypot(*(q - p).T) for p, q in ((a, b), (b, c), (c, a))], axis=0)
    height = 2.0 * mesh.tri_areas / longest
    if (height <= merge_tol).any():
        bad = int(np.argmax(height <= merge_tol))
        raise ValidationError(
            f"triangle {bad} is {height[bad]:.3g} high, no more than the merge tolerance "
            f"{merge_tol:.3g} ({MERGE_REL:g} of the bounding-box diagonal)"
        )
    for arr in (mesh.vertices, mesh.densities, mesh.triangles):
        arr.setflags(write=False)
    return mesh


def _read_rows(path, rows, dtype, columns: str, bad: str) -> np.ndarray:
    """Parse ``(lineno, fields)`` rows of three fields into a ``(k, 3)`` array.

    A row with another field count fails as ``expected <columns>``, a field
    that is no number of the dtype's kind as ``bad``, an integer beyond its
    range as out of range; each error names the row's line.
    """
    parse = int if np.issubdtype(dtype, np.integer) else float
    linenos, vals = [], []
    for lineno, fields in rows:
        if len(fields) != 3:
            raise FormatError(f"{path}:{lineno}: expected {columns}")
        try:
            vals.append(tuple(map(parse, fields)))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: {bad}") from None
        linenos.append(lineno)
    try:
        return np.array(vals, dtype=dtype).reshape(-1, 3)
    except OverflowError:
        info = np.iinfo(dtype)
        i = next(i for i, v in enumerate(vals) if min(v) < info.min or max(v) > info.max)
        raise FormatError(f"{path}:{linenos[i]}: value out of range for {info.dtype}") from None


def load_mesh(path) -> Mesh:
    """Parse and validate a ``.dmesh`` file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append((lineno, line.split()))
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise FormatError(f"{path}:1: empty mesh file")

    lineno, head = rows[0]
    if len(head) != 2:
        raise FormatError(f"{path}:{lineno}: expected 'nv nt' header")
    try:
        nv, nt = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-integer header") from None
    if len(rows) != 1 + nv + nt:
        raise FormatError(
            f"{path}:{lineno}: header promises {nv}+{nt} rows, file has {len(rows) - 1}"
        )
    if nv < 0 or nt < 0:
        raise FormatError(f"{path}:{lineno}: negative count in header")

    table = _read_rows(path, rows[1 : 1 + nv], float, "'x y rho'", "non-numeric vertex row")
    triangles = _read_rows(path, rows[1 + nv :], np.int64, "'i j k'", "non-integer triangle row")
    return make_mesh(table[:, :2].copy(), table[:, 2].copy(), triangles)


def _atomic_write(path, data: str) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sdot-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_rows(fmt: str, *columns) -> str:
    """``fmt`` once per row of the equal-length ``columns``, in one ``%`` pass.

    ``fmt`` holds one conversion per column and ends in a newline.
    """
    k, n = len(columns), len(columns[0])
    vals = [None] * (k * n)
    for c, col in enumerate(columns):
        vals[c::k] = np.asarray(col).tolist()
    return (fmt * n) % tuple(vals)


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh in the ``.dmesh`` format with full-precision reals, atomically."""
    v = mesh.vertices
    head = f"{len(v)} {len(mesh.triangles)}\n"
    verts = _format_rows("%.17g %.17g %.17g\n", v[:, 0], v[:, 1], mesh.densities)
    _atomic_write(path, head + verts + _format_rows("%d %d %d\n", *mesh.triangles.T))


@dataclass(frozen=True, eq=False)
class SiteSet:
    """Dirac sites ``y_j`` with prescribed positive masses ``nu_j``."""

    positions: np.ndarray  # (n, 2) float
    masses: np.ndarray  # (n,) float, > 0

    def __len__(self) -> int:
        return len(self.masses)


def make_sites(positions, masses, mesh_mass: float, normalize: bool = False) -> SiteSet:
    """Validate site arrays against the mesh mass and build a SiteSet."""
    positions = np.asarray(positions, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValidationError("site positions must be an (n, 2) array")
    if masses.shape != (len(positions),):
        raise ValidationError("site masses must have one value per site")
    if len(positions) == 0:
        raise ValidationError("at least one site is required")
    if not np.isfinite(positions).all() or not np.isfinite(masses).all():
        raise ValidationError("non-finite site data")
    if (masses <= 0).any():
        bad = int(np.argmax(masses <= 0))
        raise ValidationError(f"site {bad} has non-positive mass {masses[bad]}")

    n = len(positions)
    if n > 1:
        tol = COINCIDENCE_REL * math.hypot(*np.ptp(positions, axis=0))
        # the second-nearest site, counting itself, is its nearest other site
        nearest = cKDTree(positions).query(positions, k=2)[0][:, 1]
        i = int(np.argmin(nearest))  # lowest index of a closest pair
        if nearest[i] <= tol:
            d = np.sqrt(((positions - positions[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            j = int(np.argmin(d))  # lowest index at that distance from i
            raise ValidationError(
                f"coincident sites {min(i, j)} and {max(i, j)} at "
                f"({positions[i, 0]:g}, {positions[i, 1]:g})"
            )

    with np.errstate(over="ignore"):  # an infinite sum is reported below, not warned about
        total = float(masses.sum())
    if normalize:
        masses = masses * (mesh_mass / total)
        if not (np.isfinite(masses) & (masses > 0)).all():
            raise ValidationError(
                f"site masses sum to {total:.17g}, which does not rescale to the mesh mass"
            )
    elif abs(total - mesh_mass) > BALANCE_RTOL * abs(mesh_mass):
        raise ValidationError(
            f"unbalanced measures: site masses sum to {total:.17g}, "
            f"mesh mass is {mesh_mass:.17g} (pass normalize to rescale)"
        )

    sites = SiteSet(positions, masses)
    for arr in (sites.positions, sites.masses):
        arr.setflags(write=False)
    return sites


def load_sites(path, mesh_mass: float, normalize: bool = False) -> SiteSet:
    """Parse a sites CSV (header ``x,y,nu``) and validate against the mesh."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}:1: empty sites file")
            if [h.strip().lower() for h in header] != ["x", "y", "nu"]:
                raise FormatError(f"{path}:1: expected header 'x,y,nu'")
            rows = (
                (lineno, row)
                for lineno, row in enumerate(reader, start=2)
                if row and not (len(row) == 1 and not row[0].strip())
            )
            table = _read_rows(path, rows, float, "3 columns", "non-numeric value")
        except csv.Error as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
    if not len(table):
        raise FormatError(f"{path}: no site rows")
    return make_sites(table[:, :2].copy(), table[:, 2].copy(), mesh_mass, normalize)


def save_sites(sites: SiteSet, path) -> None:
    """Write sites as ``x,y,nu`` CSV with full-precision reals, atomically."""
    p = sites.positions
    rows = _format_rows("%.17g,%.17g,%.17g\n", p[:, 0], p[:, 1], sites.masses)
    _atomic_write(path, "x,y,nu\n" + rows)


def sample(mesh: Mesh, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. points distributed as the mesh density.

    A triangle is picked proportionally to its mass, then a point is drawn
    uniformly inside it and accepted by rejection against the triangle's
    maximum vertex density.  Deterministic for a fixed seed.
    """
    if n < 0:
        raise ValidationError("sample count must be nonnegative")
    rng = np.random.default_rng(seed)
    out = np.empty((n, 2))
    if n == 0:
        return out

    cum = np.cumsum(mesh.tri_masses)
    cum /= cum[-1]
    corners = mesh.vertices[mesh.triangles]
    rho = mesh.densities[mesh.triangles]
    rho_max = rho.max(axis=1)

    # triangle fixed per point; rejection retries within the same triangle
    tri_of = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        tri = tri_of[pending]
        u = rng.random(m)
        v = rng.random(m)
        flip = u + v > 1.0
        u[flip] = 1.0 - u[flip]
        v[flip] = 1.0 - v[flip]
        a = corners[tri, 0]
        pts = a + u[:, None] * (corners[tri, 1] - a) + v[:, None] * (corners[tri, 2] - a)
        rho_pt = (1.0 - u - v) * rho[tri, 0] + u * rho[tri, 1] + v * rho[tri, 2]
        accept = rng.random(m) * rho_max[tri] <= rho_pt
        out[pending[accept]] = pts[accept]
        pending = pending[~accept]
    return out


def parse_density(expr: str):
    """Parse a density expression: ``const:<c>``, ``linear-x`` or ``linear-y``."""
    if expr.startswith("const:"):
        try:
            c = float(expr.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad density constant in {expr!r}") from None
        if c < 0:
            raise ValidationError("density constant must be nonnegative")
        return lambda x, y: c
    if expr == "linear-x":
        return lambda x, y: x
    if expr == "linear-y":
        return lambda x, y: y
    raise ValidationError(
        f"unknown density expression {expr!r} (use const:<c>, linear-x or linear-y)"
    )


def square_mesh(resolution: int, density: str = "const:1") -> Mesh:
    """Regular triangulation of the unit square, 2*resolution^2 triangles."""
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    rho = parse_density(density)
    m = resolution
    xs = np.linspace(0.0, 1.0, m + 1)
    vertices = np.array([(x, y) for y in xs for x in xs])
    densities = np.array([rho(x, y) for x, y in vertices])

    triangles = []
    stride = m + 1
    for j in range(m):
        for i in range(m):
            v00 = j * stride + i
            v10 = v00 + 1
            v01 = v00 + stride
            v11 = v01 + 1
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    return make_mesh(vertices, densities, np.array(triangles))
