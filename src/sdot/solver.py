"""Damped Newton maximization of the semi-discrete dual.

Starting from zero weights (the Voronoi diagram, which must give every
site positive mass), each iteration solves the gauge-fixed Newton system
and halves the step until two conditions hold: every cell keeps at least
the mass floor ``eps0`` frozen at iteration 0, and the gradient sup-norm
contracts by ``1 - tau/2``.  The dual is invariant under adding a constant
to all weights; the gauge is fixed by pinning the last site's weight to
zero (its row and column are removed from the Newton system, leaving a
symmetric positive definite matrix whenever the cell adjacency graph is
connected).
"""

from __future__ import annotations

import sys

import numpy as np
from dataclasses import dataclass, field
from scipy.sparse.linalg import splu

from . import dual, laguerre, transport
from .domain import Mesh, SiteSet
from .errors import (
    DisconnectedAdjacencyError,
    InitializationError,
    LinearSolveError,
    LineSearchError,
    ValidationError,
)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10  # gradient sup-norm threshold, relative to total mass
    max_iter: int = 50
    max_halvings: int = 40
    linear_tol: float = 1e-12  # relative residual of the inner SPD solve
    verbose: bool = False

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise ValidationError("tol must lie in (0, 1)")
        if self.max_iter < 0 or self.max_halvings <= 0:
            raise ValidationError("iteration caps must be positive")
        if not 0 < self.linear_tol < np.inf:  # false for NaN
            raise ValidationError("linear_tol must be finite and positive")


@dataclass(frozen=True)
class TraceRow:
    iter: int
    grad_norm: float  # sup-norm after the accepted step
    tau: float
    k_value: float
    # diagnostics beyond the emitted schema
    min_mass: float
    mass_sum: float


@dataclass(frozen=True)
class SolveReport:
    psi: np.ndarray
    masses: np.ndarray
    nu: np.ndarray
    iterations: int
    trace: list[TraceRow]
    w2: float
    grad_norm: float
    grad_norm0: float
    eps0: float
    mu_total: float
    converged: bool
    diagram: laguerre.LaguerreDiagram = field(repr=False)


def solve_gauge_fixed(h: dual.SparseHessian, g: np.ndarray,
                      linear_tol: float = SolverOptions.linear_tol) -> np.ndarray:
    """Newton direction: solve ``(-H) d = g`` with the pinned component zeroed.

    The pinned (last) row and column are removed; the reduced matrix is SPD
    when the adjacency graph is connected, which is checked first.  The
    sparse LU solve is verified against the relative-residual contract and
    refined if needed.
    """
    n = h.n
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValidationError(f"gradient must have {n} entries")
    d = np.zeros(n)
    if n == 1:
        return d

    components = h.adjacency_components()
    if len(components) > 1:
        raise DisconnectedAdjacencyError(components)

    a = h.neg_reduced()
    b = g[:-1]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return d

    lu = splu(a)
    x = lu.solve(b)
    for _ in range(3):
        r = b - a @ x
        if float(np.linalg.norm(r)) <= linear_tol * bnorm:
            break
        x = x + lu.solve(r)
    else:
        raise LinearSolveError(float(np.linalg.norm(b - a @ x)) / bnorm, linear_tol)
    d[:-1] = x
    return d


def newton(mesh: Mesh, sites: SiteSet, opts: SolverOptions | None = None) -> SolveReport:
    """Solve for the weights whose Laguerre cells carry the prescribed masses."""
    if opts is None:
        opts = SolverOptions()
    nu = sites.masses
    mu_total = mesh.total_mass
    tol_abs = opts.tol * mu_total

    diagram = laguerre.build(mesh, sites, np.zeros(len(sites)))
    masses = diagram.masses
    empty = np.nonzero(masses <= 0.0)[0]
    if empty.size:
        raise InitializationError(empty.tolist())
    eps0 = 0.5 * min(float(nu.min()), float(masses.min()))

    g = dual.gradient(diagram, sites)
    gnorm = float(np.abs(g).max())
    gnorm0 = gnorm
    trace: list[TraceRow] = []
    iterations = 0

    while gnorm > tol_abs and iterations < opts.max_iter:
        h = dual.hessian(diagram, sites)
        d = solve_gauge_fixed(h, g, opts.linear_tol)

        tau = 2.0
        for _ in range(opts.max_halvings):
            tau *= 0.5
            diagram_try = laguerre.build(mesh, sites, diagram.psi + tau * d)
            g_try = dual.gradient(diagram_try, sites)
            gnorm_try = float(np.abs(g_try).max())
            min_mass = float(diagram_try.masses.min())
            if min_mass >= eps0 and gnorm_try <= (1.0 - 0.5 * tau) * gnorm:
                break
        else:
            raise LineSearchError(opts.max_halvings, iterations + 1, gnorm, tau, min_mass, eps0)

        diagram, g, gnorm = diagram_try, g_try, gnorm_try  # psi[-1] stays 0: d[-1] is 0
        iterations += 1
        trace.append(
            TraceRow(
                iter=iterations,
                grad_norm=gnorm,
                tau=tau,
                k_value=dual.value(diagram, sites),
                min_mass=min_mass,
                mass_sum=float(diagram.masses.sum()),
            )
        )
        if opts.verbose:
            print(
                f"iter {iterations:3d}  |g| = {gnorm:.3e}  tau = {tau:g}  "
                f"min mass = {min_mass:.3e}",
                file=sys.stderr,
            )

    return SolveReport(
        psi=diagram.psi,
        masses=diagram.masses,
        nu=nu,
        iterations=iterations,
        trace=trace,
        w2=transport.wasserstein2(diagram, sites),
        grad_norm=gnorm,
        grad_norm0=gnorm0,
        eps0=eps0,
        mu_total=mu_total,
        converged=bool(gnorm <= tol_abs),
        diagram=diagram,
    )
