import math
from typing import NamedTuple

import numpy as np
import pytest

from sdot import domain


@pytest.fixture(scope="session")
def unit_square():
    """Two-triangle unit square with uniform density 1 (total mass 1)."""
    return domain.square_mesh(1, "const:1")


@pytest.fixture(scope="session")
def analytic_two_site(unit_square):
    """The closed-form instance: optimal cell split at x = 0.75.

    Sites (0.25, 0.5) and (0.75, 0.5) with prescribed masses (0.75, 0.25);
    the optimal weights are (0.25, 0) in the last-site-pinned gauge and the
    squared distance is 13/96.
    """
    sites = domain.make_sites(
        np.array([[0.25, 0.5], [0.75, 0.5]]),
        np.array([0.75, 0.25]),
        unit_square.total_mass,
    )
    return unit_square, sites


def random_problem(n_sites, seed, resolution=1, density="const:1", uniform_nu=False):
    """Random sites in the unit-square interior with normalized masses."""
    mesh = domain.square_mesh(resolution, density)
    rng = np.random.default_rng(seed)
    positions = 0.05 + 0.9 * rng.random((n_sites, 2))
    if uniform_nu:
        nu = np.full(n_sites, 1.0)
    else:
        nu = 0.5 + rng.random(n_sites)
    sites = domain.make_sites(positions, nu, mesh.total_mass, normalize=True)
    return mesh, sites


def interface_weight(diag, i, j):
    """Hessian weight of the pair ``(i, j)`` in ``diag.interface_weights``; 0 if not adjacent."""
    pairs, weights = diag.interface_weights
    hit = weights[(pairs == (min(i, j), max(i, j))).all(axis=1)]
    return float(hit[0]) if hit.size else 0.0


class Fragment(NamedTuple):
    site: int
    triangle: int
    polygon: list  # CCW (x, y) tuples
    density: tuple  # affine (gx, gy, g0) on the triangle


def fragments(diag):
    """The diagram's fragments as ``Fragment`` tuples, in build order."""
    pts = [tuple(p) for p in diag.xy.tolist()]
    rho = [tuple(r) for r in diag.mesh.tri_density.tolist()]
    b = diag.frag_bounds().tolist()
    return [
        Fragment(j, t, pts[b[f] : b[f + 1]], rho[t])
        for f, (j, t) in enumerate(diag.fragments.tolist())
    ]


def interfaces(diag):
    """Segments ``(p, q, density)`` of each adjacent pair ``(i, j)``, ``i < j``.

    Read from the edges whose label is a higher-indexed site, independently
    of ``diag.interface_weights``.
    """
    pts = [tuple(p) for p in diag.xy.tolist()]
    rho = [tuple(r) for r in diag.mesh.tri_density.tolist()]
    site = diag.frag_site[diag.frag]
    e = np.flatnonzero(diag.label > site)
    cols = (e, diag.nxt[e], site[e], diag.label[e], diag.frag_tri[diag.frag[e]])
    out = {}
    for a, b, lo, hi, tri in zip(*(v.tolist() for v in cols)):
        out.setdefault((lo, hi), []).append((pts[a], pts[b], rho[tri]))
    return out


def polygon_contains(poly, p, tol=0.0):
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


def area(poly):
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


STRIP_TRIANGLES = [[0, 1, 2], [0, 2, 3]]


def strip(width, diagonal=False):
    """Vertices of the two-triangle strip ``[[0, 0], [w, 0], [w, 1], [0, 1]]``,
    turned 45 degrees about the origin if ``diagonal``."""
    v = np.array([[0.0, 0.0], [width, 0.0], [width, 1.0], [0.0, 1.0]])
    if diagonal:
        c = math.sqrt(0.5)
        v = v @ np.array([[c, c], [-c, c]])
    return v
