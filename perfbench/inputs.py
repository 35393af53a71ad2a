"""Seeded input generator for the benchmark workloads.

Every input file the program reads is written here, from a
``numpy.random.Generator`` seeded with ``(seed, workload tag)``, so the same
seed gives byte-identical files.  The formats are the ones the ``sdot`` CLI
reads: a ``.dmesh`` mesh (``nv nt`` header, ``x y rho`` rows, ``i j k`` rows)
and a sites CSV with header ``x,y,nu``.  Reals are written with ``repr`` so
they read back exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import verify

# Globally affine densities ``rho(x, y) = a x + b y + c`` on the unit square,
# so that cell masses and costs have closed forms that need no mesh.
DENSITIES = {"const": (0.0, 0.0, 1.0), "linear-x": (1.0, 0.0, 0.0)}


@dataclass(frozen=True)
class Problem:
    """What the generator wrote, kept by the benchmark to check outputs."""

    mesh_path: Path
    sites_path: Path
    density: tuple[float, float, float]
    positions: np.ndarray  # (n, 2), exactly as written
    nu: np.ndarray  # (n,), exactly as written
    psi: np.ndarray  # optimal weights, up to a constant

    @property
    def mu_total(self) -> float:
        """Integral of the affine density over the unit square."""
        a, b, c = self.density
        return 0.5 * a + 0.5 * b + c


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def write_square_mesh(path: Path, resolution: int, density: str) -> None:
    """Unit square split into ``resolution**2`` cells of two CCW triangles."""
    a, b, c = DENSITIES[density]
    m = resolution
    lines = [f"{(m + 1) ** 2} {2 * m * m}"]
    for j in range(m + 1):
        y = j / m
        for i in range(m + 1):
            x = i / m
            lines.append(f"{x!r} {y!r} {a * x + b * y + c!r}")
    stride = m + 1
    for j in range(m):
        for i in range(m):
            v = j * stride + i
            lines.append(f"{v} {v + 1} {v + stride + 1}")
            lines.append(f"{v} {v + stride + 1} {v + stride}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def jittered_grid(rng: np.random.Generator, k: int) -> np.ndarray:
    """``k * k`` sites, one drawn uniformly in the middle half of each grid cell.

    Two sites are then at least ``0.5 / k`` apart.
    """
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="xy")
    corner = np.column_stack([i.ravel(), j.ravel()]).astype(float)
    return (corner + 0.25 + 0.5 * rng.random((k * k, 2))) / k


# Optimal weights are ``(1 - LAMBDA) |y - CENTRE|^2`` plus a random part.
LAMBDA = 0.98
CENTRE = np.array([1.0, 0.5])


def optimal_weights(rng: np.random.Generator, positions: np.ndarray, k: int) -> np.ndarray:
    """Weights whose power cells all have positive area, for the sites of a grid.

    ``(1 - LAMBDA) |y_j - CENTRE|^2 + e_j`` has the cells of the contracted
    sites ``CENTRE + LAMBDA (y_j - CENTRE)`` with weights ``LAMBDA e_j``;
    those sites are at least ``LAMBDA * 0.5 / k`` apart, so with
    ``0 <= e_j < 0.9 LAMBDA (0.5 / k)^2`` each one lies inside its own cell.
    The smooth part spreads the weights, which loosens the pruning of
    competitors as optimal weights do; contracting towards ``x = 1`` also
    enlarges the cells where ``rho = x`` is small.
    """
    smooth = (1.0 - LAMBDA) * ((positions - CENTRE) ** 2).sum(axis=1)
    return smooth + 0.9 * LAMBDA * (0.5 / k) ** 2 * rng.random(len(positions))


def write_sites(path: Path, positions: np.ndarray, nu: np.ndarray) -> None:
    rows = ["x,y,nu"]
    rows.extend(f"{x!r},{y!r},{m!r}" for (x, y), m in zip(positions.tolist(), nu.tolist()))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def make_problem(
    workdir: Path, rng: np.random.Generator, k: int, resolution: int, density: str
) -> Problem:
    """Write ``mesh.dmesh``, ``sites.csv`` and ``psi.json`` into ``workdir``.

    The ``k * k`` sites get the masses of their cells at
    :func:`optimal_weights`, computed by ``verify``; those weights are then
    optimal by construction (up to a constant) and are written
    report-style, as ``{"psi": [...]}``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rho = DENSITIES[density]
    positions = jittered_grid(rng, k)
    psi = optimal_weights(rng, positions, k)
    nu, _ = verify.cell_integrals(verify.power_cells(positions, psi), positions, rho)
    problem = Problem(workdir / "mesh.dmesh", workdir / "sites.csv", rho, positions, nu, psi)
    write_square_mesh(problem.mesh_path, resolution, density)
    write_sites(problem.sites_path, positions, nu)
    text = json.dumps({"psi": psi.tolist()})
    (workdir / "psi.json").write_text(text + "\n", encoding="utf-8")
    return problem
