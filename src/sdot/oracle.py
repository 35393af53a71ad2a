"""Independent verification oracles.

These deliberately avoid the geometric pipeline they are checking: masses
are estimated by Monte-Carlo classification of density samples, and
derivatives of the dual come from central differences of its value and
gradient.  The exact discrete-transport LP oracle lives in the test tree.
"""

from __future__ import annotations

import numpy as np

from . import domain, dual, laguerre
from .domain import Mesh, SiteSet
from .errors import ValidationError

FD_GRADIENT_STEP = 1e-6
FD_HESSIAN_STEP = 1e-5


def mc_masses(
    mesh: Mesh, sites: SiteSet, psi, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo cell masses with binomial standard errors.

    Samples ``n`` points from the source density, classifies each by
    power-distance argmin, and scales frequencies by the total mass.
    """
    if n < 1:
        raise ValidationError("mc_masses needs at least one sample")
    pts = domain.sample(mesh, n, seed)
    site_of = laguerre.assign(pts, sites, psi)
    counts = np.bincount(site_of, minlength=len(sites)).astype(float)
    p = counts / n
    mu = mesh.total_mass
    return p * mu, mu * np.sqrt(p * (1.0 - p) / n)


def fd_gradient(mesh: Mesh, sites: SiteSet, psi) -> np.ndarray:
    """Central differences of the dual value, one coordinate at a time."""
    return _central_differences(
        mesh, sites, psi, FD_GRADIENT_STEP, lambda d: dual.value(d, sites)
    )


def fd_hessian(mesh: Mesh, sites: SiteSet, psi) -> np.ndarray:
    """Central differences of the analytic gradient, column by column."""
    return _central_differences(
        mesh, sites, psi, FD_HESSIAN_STEP, lambda d: dual.gradient(d, sites)
    )


def _central_differences(mesh: Mesh, sites: SiteSet, psi, h: float, f) -> np.ndarray:
    """``(f(psi + h e_j) - f(psi - h e_j)) / 2h`` for each site j, as entry or column j.

    ``f(diagram)`` is evaluated on the diagram built at each shifted weight vector.
    """
    psi = np.asarray(psi, dtype=float)
    out = []
    for j in range(len(sites)):
        plus = psi.copy()
        plus[j] += h
        minus = psi.copy()
        minus[j] -= h
        f_plus = f(laguerre.build(mesh, sites, plus))
        f_minus = f(laguerre.build(mesh, sites, minus))
        out.append((f_plus - f_minus) / (2.0 * h))
    return np.array(out).T
