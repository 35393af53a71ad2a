"""Checks of the program's outputs against computations made apart from it.

Nothing here imports ``sdot``.  Power cells come from the lifted convex
hull (``scipy.spatial.ConvexHull``): the lower hull of ``(y, |y|^2 - psi)``
is the regular triangulation, whose edges include every pair of adjacent
power cells, so clipping the unit square by those bisectors alone gives the
exact cell.  The densities are globally affine, so masses and transport
costs are integrated exactly on a fan of triangles with the 7-point
degree-3 rule (vertices 1/20, edge midpoints 2/15, centroid 9/20), a rule
the program does not use.  Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

# Slack on top of the solver tolerance for rounding in the two integrations.
MASS_SLACK_REL = 1e-12
W2_RTOL = 1e-9
# A frame point within this distance of a bisector may go to either site.
BISECTOR_EXEMPT = 1e-9
FRAME_ATOL = 1e-12
# Largest standardised deviation of a per-site sample count from N nu_j / mu.
MC_Z_MAX = 6.0


def _clip(poly, a, b, c):
    """Sutherland-Hodgman step: keep ``a x + b y <= c`` of a convex polygon."""
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0.0:
            out.append(p)
        if (fp < 0.0 < fq) or (fq < 0.0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def power_cells(positions: np.ndarray, psi: np.ndarray) -> list[list[tuple[float, float]]]:
    """Power cells of ``(positions, psi)`` clipped to the unit square."""
    n = len(positions)
    lifted = np.column_stack([positions, (positions**2).sum(axis=1) - psi])
    hull = ConvexHull(lifted)
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for tri in hull.simplices[hull.equations[:, 2] < 0.0].tolist():
        for v in tri:
            neighbours[v].update(tri)
    pos = positions.tolist()
    w = psi.tolist()
    cells = []
    for j in range(n):
        if not neighbours[j]:  # not on the lower hull: empty cell
            cells.append([])
            continue
        (xj, yj), poly = pos[j], list(UNIT_SQUARE)
        for k in sorted(neighbours[j] - {j}):
            xk, yk = pos[k]
            poly = _clip(
                poly,
                2.0 * (xk - xj),
                2.0 * (yk - yj),
                xk * xk + yk * yk - xj * xj - yj * yj - w[k] + w[j],
            )
            if not poly:
                break
        cells.append(poly)
    return cells


def cell_integrals(cells, positions: np.ndarray, density) -> tuple[np.ndarray, float]:
    """Masses of the cells and the cost ``sum_j int |x - y_j|^2 rho`` over them."""
    a, b, c = density
    tris, owner = [], []
    for j, poly in enumerate(cells):
        for i in range(1, len(poly) - 1):
            tris.append((poly[0], poly[i], poly[i + 1]))
            owner.append(j)
    masses = np.zeros(len(cells))
    if not tris:
        return masses, 0.0
    t = np.asarray(tris)  # (m, 3, 2)
    owner = np.asarray(owner)
    area = 0.5 * np.abs(
        (t[:, 1, 0] - t[:, 0, 0]) * (t[:, 2, 1] - t[:, 0, 1])
        - (t[:, 2, 0] - t[:, 0, 0]) * (t[:, 1, 1] - t[:, 0, 1])
    )
    mids = 0.5 * (t + t[:, [1, 2, 0]])
    centroid = t.mean(axis=1, keepdims=True)
    points = np.concatenate([t, mids, centroid], axis=1)  # (m, 7, 2)
    weights = np.array([1 / 20] * 3 + [2 / 15] * 3 + [9 / 20])
    rho = a * points[..., 0] + b * points[..., 1] + c
    sq = ((points - positions[owner][:, None, :]) ** 2).sum(axis=2)
    masses = np.bincount(owner, weights=area * (rho @ weights), minlength=len(cells))
    cost = float((area * ((sq * rho) @ weights)).sum())
    return masses, cost


def check_solution(problem, psi: np.ndarray, w2: float, tol_rel: float) -> list[str]:
    """Cells at ``psi`` carry ``nu`` to the solve tolerance, and ``w2`` is their cost."""
    cells = power_cells(problem.positions, psi)
    masses, cost = cell_integrals(cells, problem.positions, problem.density)
    problems = []
    mu = problem.mu_total
    err = float(np.abs(masses - problem.nu).max())
    if err > (tol_rel + MASS_SLACK_REL) * mu:
        worst = int(np.abs(masses - problem.nu).argmax())
        problems.append(
            f"cell {worst} carries {masses[worst]!r}, prescribed {problem.nu[worst]!r} "
            f"(max error {err:.3e} > {tol_rel:g} x mu)"
        )
    w2_ref = math.sqrt(max(cost, 0.0))
    if not abs(w2 - w2_ref) <= W2_RTOL * w2_ref:
        problems.append(f"w2 {w2!r} differs from the independent {w2_ref!r}")
    return problems


def check_report(problem, report_path: Path, tol_rel: float) -> list[str]:
    """Check a solve report file: converged, optimal weights and its W2."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    problems = []
    if report.get("converged") is not True:
        problems.append("report says not converged")
    psi = np.asarray(report["psi"], dtype=float)
    if psi.shape != problem.nu.shape:
        return problems + [f"report has {psi.size} weights for {problem.nu.size} sites"]
    return problems + check_solution(problem, psi, float(report["w2"]), tol_rel)


def power_argmin(points: np.ndarray, positions: np.ndarray, psi: np.ndarray, chunk: int = 8192):
    """Nearest site in power distance and whether the point is off every bisector.

    Returns ``(site, clear)`` where ``clear`` is false for points within
    ``BISECTOR_EXEMPT`` of the bisector between the two nearest sites.
    """
    lift = (positions**2).sum(axis=1) - psi
    site = np.empty(len(points), dtype=np.int64)
    clear = np.empty(len(points), dtype=bool)
    for lo in range(0, len(points), chunk):
        x = points[lo : lo + chunk]
        # |x - y|^2 - psi up to the |x|^2 term, which every site shares
        d = lift[None, :] - 2.0 * (x @ positions.T)
        two = np.argpartition(d, 1, axis=1)[:, :2]
        d2 = np.take_along_axis(d, two, axis=1)
        first = np.where(d2[:, 0] <= d2[:, 1], 0, 1)
        best = np.take_along_axis(two, first[:, None], axis=1)[:, 0]
        other = np.take_along_axis(two, 1 - first[:, None], axis=1)[:, 0]
        gap = np.abs(d2[:, 0] - d2[:, 1])
        sep = 2.0 * np.linalg.norm(positions[best] - positions[other], axis=1)
        site[lo : lo + chunk] = best
        clear[lo : lo + chunk] = gap > BISECTOR_EXEMPT * sep
    return site, clear


def read_frame(path: Path) -> np.ndarray:
    """A frame CSV (header ``t,x,y,site``) as an ``(rows, 4)`` float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_frames(problem, psi: np.ndarray, times, frame_paths, n_points: int) -> list[str]:
    """Check interpolation frames against an independent assignment.

    The ``t = 0`` rows go to the power-argmin site (bisector points exempt),
    every frame keeps that assignment, ``t = 1`` rows sit on their sites and
    other rows on the segment between, and the per-site counts match
    ``nu / mu`` within a Monte-Carlo bound.
    """
    if len(frame_paths) != len(times):
        return [f"{len(frame_paths)} frame files for {len(times)} times"]
    frames = [read_frame(p) for p in frame_paths]
    problems = []
    for t, f, p in zip(times, frames, frame_paths):
        if f.shape != (n_points, 4):
            return [f"{Path(p).name} has shape {f.shape}, expected ({n_points}, 4)"]
        if not (f[:, 0] == t).all():
            problems.append(f"{Path(p).name}: t column is not {t}")
    start = next(f for t, f in zip(times, frames) if t == 0.0)
    x0 = start[:, 1:3]
    sites = start[:, 3].astype(np.int64)
    n = len(problem.nu)
    if sites.min() < 0 or sites.max() >= n or not (start[:, 3] == sites).all():
        return problems + ["site column holds a value that is not a site index"]

    ref, clear = power_argmin(x0, problem.positions, psi)
    wrong = np.nonzero(clear & (ref != sites))[0]
    if wrong.size:
        r = int(wrong[0])
        problems.append(
            f"{wrong.size} row(s) on the wrong site; row {r} is on {sites[r]}, "
            f"its power argmin is {ref[r]}"
        )
    y = problem.positions[sites]
    for t, f, p in zip(times, frames, frame_paths):
        if not (f[:, 3] == start[:, 3]).all():
            problems.append(f"{Path(p).name}: site column differs from the t = 0 frame")
        expect = (1.0 - t) * x0 + t * y
        off = float(np.abs(f[:, 1:3] - expect).max())
        if off > FRAME_ATOL:
            problems.append(f"{Path(p).name}: a point is {off:.3e} off its segment")

    counts = np.bincount(sites, minlength=n)
    expected = n_points * problem.nu / problem.mu_total
    p_site = expected / n_points
    z = (counts - expected) / np.sqrt(expected * (1.0 - p_site))
    worst = int(np.abs(z).argmax())
    if abs(z[worst]) > MC_Z_MAX:
        problems.append(
            f"site {worst} holds {counts[worst]} samples, expected {expected[worst]:.1f} "
            f"({z[worst]:+.1f} sigma)"
        )
    return problems
