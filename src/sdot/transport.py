"""Post-solve products: Wasserstein-2 distance, cell barycenters, interpolation.

At optimal weights the diagram realizes the optimal transport map (each
point of a cell travels to that cell's site), so the squared distance is
the quadratic cost integral and displacement interpolation moves every
sample point along the straight segment to its site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domain, dual, laguerre
from .domain import Mesh, SiteSet
from .errors import ValidationError


@dataclass(frozen=True)
class InterpolationFrame:
    t: float
    points: np.ndarray  # (n, 2), read-only
    source_site: np.ndarray  # (n,) site index per point, read-only, shared by all frames


def wasserstein2(diagram: laguerre.LaguerreDiagram, sites: SiteSet) -> float:
    """Square root of the quadratic cost integral of the diagram."""
    return math.sqrt(max(dual.transport_cost(diagram, sites), 0.0))


def barycenters(diagram: laguerre.LaguerreDiagram) -> np.ndarray:
    """Density-weighted centroid of each cell; requires positive masses."""
    moments = np.column_stack([
        diagram.cell_integrals(lambda x, y, site: x),
        diagram.cell_integrals(lambda x, y, site: y),
    ])
    empty = np.nonzero(diagram.masses <= 0.0)[0]
    if empty.size:
        raise ValidationError(
            "zero-mass cell(s) " + ", ".join(map(str, empty.tolist()))
        )
    return moments / diagram.masses[:, None]


def interpolate(
    mesh: Mesh,
    sites: SiteSet,
    psi,
    n: int,
    times,
    seed: int,
) -> list[InterpolationFrame]:
    """Displacement-interpolation point clouds at the requested times.

    Samples the source density once (fixed seed), assigns each sample to
    its cell by power-distance argmin, then emits one frame per time t with
    points ``(1 - t) x + t y_site``.  Bitwise reproducible for fixed inputs.
    """
    times = [float(t) for t in times]
    for t in times:
        if not (0.0 <= t <= 1.0):
            raise ValidationError(f"interpolation time {t} outside [0, 1]")
    pts = domain.sample(mesh, n, seed)
    site_of = laguerre.assign(pts, sites, psi)
    targets = sites.positions[site_of]
    site_of.setflags(write=False)
    frames = []
    for t in times:
        where = pts if t == 0.0 else (targets if t == 1.0 else (1.0 - t) * pts + t * targets)
        where.setflags(write=False)
        frames.append(InterpolationFrame(t=t, points=where, source_site=site_of))
    return frames
