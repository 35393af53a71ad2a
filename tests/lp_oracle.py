"""Exact discrete-transport LP oracle for cross-checking the solver.

Kept in the test tree on purpose: it validates the geometric pipeline from
a completely different direction (a linear program over transport plans
between two finite measures) and is not part of the public API.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# desk scale: up to a 64x64 source discretization against up to 64 targets
MAX_SOURCES = 64 * 64
MAX_TARGETS = 64
DUAL_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteProblem:
    source_pos: np.ndarray  # (ns, 2)
    source_mass: np.ndarray  # (ns,)
    target_pos: np.ndarray  # (nt, 2)
    target_mass: np.ndarray  # (nt,)

    def __post_init__(self):
        if (self.source_mass < 0).any() or (self.target_mass < 0).any():
            raise ValueError("masses must be nonnegative")
        total = self.source_mass.sum()
        if abs(total - self.target_mass.sum()) > 1e-12 * max(total, 1.0):
            raise ValueError(
                f"infeasible: source mass {total!r} != target mass "
                f"{self.target_mass.sum()!r}"
            )
        if len(self.source_mass) > MAX_SOURCES or len(self.target_mass) > MAX_TARGETS:
            raise ValueError(
                f"oracle limited to {MAX_SOURCES} sources and {MAX_TARGETS} targets"
            )


def solve_discrete_lp(problem: DiscreteProblem):
    """Optimal quadratic-cost plan between two discrete measures.

    Returns ``(cost, plan)`` where plan is a list of ``(i, j, mass)``.
    Optimality is certified through the LP duals: every reduced cost
    ``c_ij - u_i - v_j`` must be >= -1e-9 and vanish on the support.
    """
    ns, nt = len(problem.source_mass), len(problem.target_mass)
    diff = problem.source_pos[:, None, :] - problem.target_pos[None, :, :]
    cost = (diff**2).sum(axis=2)
    c = cost.ravel()

    # row-sum and column-sum equality constraints on the (ns, nt) plan
    var = np.arange(ns * nt)
    row_of = var // nt
    col_of = var % nt
    a_eq = sparse.vstack(
        [
            sparse.csr_matrix((np.ones(ns * nt), (row_of, var)), shape=(ns, ns * nt)),
            sparse.csr_matrix((np.ones(ns * nt), (col_of, var)), shape=(nt, ns * nt)),
        ]
    )
    b_eq = np.concatenate([problem.source_mass, problem.target_mass])

    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")

    u = res.eqlin.marginals[:ns]
    v = res.eqlin.marginals[ns:]
    reduced = cost - u[:, None] - v[None, :]
    if reduced.min() < -DUAL_TOL:
        raise RuntimeError(f"duality certificate failed: min reduced cost {reduced.min()}")
    plan_matrix = res.x.reshape(ns, nt)
    support = plan_matrix > 1e-12 * max(problem.source_mass.max(), 1.0)
    if support.any() and np.abs(reduced[support]).max() > 1e-6:
        raise RuntimeError("complementary slackness violated on the support")

    plan = [
        (int(i), int(j), float(plan_matrix[i, j]))
        for i, j in np.argwhere(support)
    ]
    return float(res.fun), plan


def _affine_integral(poly, gx, gy, g0):
    """Integral of ``gx*x + gy*y + g0`` over a convex CCW polygon.

    Fan triangulation from vertex 0, each triangle's area times the mean of
    its three vertex values: exact for affine integrands, and independent of
    the quadrature the diagram pipeline uses.
    """
    x0, y0 = poly[0]
    f = [gx * x + gy * y + g0 for x, y in poly]
    total = 0.0
    for i in range(1, len(poly) - 1):
        (x1, y1), (x2, y2) = poly[i], poly[i + 1]
        tri_area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        total += tri_area * (f[0] + f[i] + f[i + 1]) / 3.0
    return total


def _clip(poly, a, b, c):
    """Part of a convex CCW polygon where ``a*x + b*y <= c``, or ``[]``.

    Plain Sutherland-Hodgman with no tolerance, independent of the clip the
    diagram pipeline uses.
    """
    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0.0:
            out.append(p)
        if (fp <= 0.0) != (fq <= 0.0):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out if len(out) >= 3 else []


def grid_discretization(mesh, k: int):
    """k-by-k cell-center discretization of the mesh density, exact masses.

    Each grid cell's mass is the exact integral of the density over the
    cell (mesh triangles clipped to the cell rectangle), so the only error
    in an LP cross-check is the point-mass collapse itself.
    """
    x0, y0, x1, y1 = mesh.bbox
    xs = np.linspace(x0, x1, k + 1)
    ys = np.linspace(y0, y1, k + 1)
    tris = [
        [tuple(p) for p in mesh.vertices[t]] for t in mesh.triangles
    ]
    rho = mesh.tri_density
    positions = []
    masses = []
    for iy in range(k):
        for ix in range(k):
            lo_x, hi_x = xs[ix], xs[ix + 1]
            lo_y, hi_y = ys[iy], ys[iy + 1]
            cell_mass = 0.0
            for tri, (gx, gy, g0) in zip(tris, rho):
                poly = _clip(tri, 1.0, 0.0, hi_x)
                poly = _clip(poly, -1.0, 0.0, -lo_x)
                poly = _clip(poly, 0.0, 1.0, hi_y)
                poly = _clip(poly, 0.0, -1.0, -lo_y)
                if poly:
                    cell_mass += _affine_integral(poly, gx, gy, g0)
            if cell_mass > 0.0:
                positions.append(((lo_x + hi_x) / 2, (lo_y + hi_y) / 2))
                masses.append(cell_mass)
    return np.array(positions), np.array(masses)
