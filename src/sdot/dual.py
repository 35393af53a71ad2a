"""Kantorovich dual functional for quadratic cost in the semi-discrete setting.

With cells ``Lag_j(psi)`` and prescribed masses ``nu_j`` the dual reads

    K(psi) = sum_j [ int_{Lag_j} (|x - y_j|^2 - psi_j) dmu + nu_j psi_j ]
           = cost(psi) + sum_j psi_j (nu_j - mass_j)

K is concave and maximized at the weights whose cells carry exactly the
prescribed masses.  Its gradient is ``nu - mass`` and its Hessian is
supported on cell interfaces: the (i, j) entry is the density line integral
over the shared boundary divided by ``2 |y_i - y_j|``, with diagonal minus
the row sum, so the matrix is negative semidefinite with the constants in
its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .domain import SiteSet
from .laguerre import LaguerreDiagram


def value(diagram: LaguerreDiagram, sites: SiteSet) -> float:
    """Dual objective K at the weights ``diagram.psi`` the diagram was built from."""
    return transport_cost(diagram, sites) + float(diagram.psi @ (sites.masses - diagram.masses))


def transport_cost(diagram: LaguerreDiagram, sites: SiteSet) -> float:
    """Quadratic cost ``sum_j int_{Lag_j} |x - y_j|^2 dmu`` of the diagram."""
    sx, sy = sites.positions.T

    def sq_dist(x, y, site):
        dx = x - sx[site]
        dy = y - sy[site]
        return dx * dx + dy * dy

    return float(diagram.cell_integrals(sq_dist).sum())


def gradient(diagram: LaguerreDiagram, sites: SiteSet) -> np.ndarray:
    """Prescribed-minus-actual cell masses; sums to zero for balanced data."""
    return sites.masses - diagram.masses


@dataclass(frozen=True)
class SparseHessian:
    """Symmetric interface-supported Hessian of K.

    Row ``p`` of the ``(m, 2)`` integer array ``pairs`` is an adjacent
    ``(i, j)`` with ``i < j``, the rows in sorted order, and ``weights[p]``
    is its positive off-diagonal entry; ``diag`` holds the negative row sums.
    """

    n: int
    pairs: np.ndarray
    weights: np.ndarray
    diag: np.ndarray

    def as_dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        i, j = self.pairs.T
        h[i, j] = self.weights
        h[j, i] = self.weights
        return h

    def neg_reduced(self) -> sparse.csc_matrix:
        """Negated Hessian without the last (pinned) row/column (SPD if connected)."""
        m = self.n - 1
        keep = self.pairs[:, 1] < m  # i < j: only j can be the pinned site
        p = self.pairs[keep]
        w = -self.weights[keep]
        d = np.arange(m)
        rows = np.concatenate([d, p[:, 0], p[:, 1]])
        cols = np.concatenate([d, p[:, 1], p[:, 0]])
        vals = np.concatenate([-self.diag[:m], w, w])
        return sparse.csc_matrix((vals, (rows, cols)), shape=(m, m))

    def adjacency_components(self) -> list[list[int]]:
        """Connected components of the positive-weight adjacency graph."""
        p = self.pairs[self.weights > 0.0]
        g = sparse.csr_matrix((np.ones(len(p)), (p[:, 0], p[:, 1])), shape=(self.n, self.n))
        count, labels = connected_components(g, directed=False)
        return [np.nonzero(labels == c)[0].tolist() for c in range(count)]


def hessian(diagram: LaguerreDiagram, sites: SiteSet) -> SparseHessian:
    """Assemble the interface-supported Hessian from the diagram."""
    n = len(sites)
    pairs, weights = diagram.interface_weights
    off = np.bincount(pairs.ravel(), np.repeat(weights, 2), minlength=n)  # each row's weights
    return SparseHessian(n, pairs, weights, -off)
