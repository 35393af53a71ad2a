"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is asserted, so a plain ``pytest`` run is just as
binding.
"""

import math
import time

import numpy as np
import pytest

from sdot import domain, dual, laguerre, oracle, solver, transport

from conftest import fragments, interfaces, polygon_contains, random_problem
from lp_oracle import DiscreteProblem, grid_discretization, solve_discrete_lp

ANALYTIC_W2_SQ = 13 / 96


def announce(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS  ({detail})")


def analytic_problem():
    mesh = domain.square_mesh(1, "const:1")
    sites = domain.make_sites(
        np.array([[0.25, 0.5], [0.75, 0.5]]), np.array([0.75, 0.25]), 1.0
    )
    return mesh, sites


@pytest.fixture(scope="module")
def battery():
    """Five solved instances reused by the trace/MC criteria."""
    problems = [("analytic-2", *analytic_problem())]
    for name, n, seed, density in [
        ("random-3", 3, 910, "const:1"),
        ("random-6", 6, 911, "const:1"),
        ("random-12", 12, 912, "linear-x"),
        ("random-25", 25, 913, "const:1"),
    ]:
        mesh, sites = random_problem(n, seed=seed, density=density)
        problems.append((name, mesh, sites))
    solved = []
    for name, mesh, sites in problems:
        report = solver.newton(mesh, sites)
        assert report.converged, f"battery solve {name} did not converge"
        solved.append((name, mesh, sites, report))
    return solved


def test_criterion_1_analytic_instance():
    mesh, sites = analytic_problem()
    start = time.perf_counter()
    report = solver.newton(mesh, sites)
    elapsed = time.perf_counter() - start
    assert report.converged
    assert report.iterations == 1
    assert report.trace[0].tau == 1.0
    assert np.abs(report.psi - np.array([0.25, 0.0])).max() <= 1e-10
    assert elapsed < 0.1
    announce(1, f"psi = {report.psi.tolist()}, 1 iteration at tau = 1, {elapsed:.3f} s")


def test_criterion_2_fd_gradient():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        mesh, sites = random_problem(10, seed=2000 + trial)
        rng = np.random.default_rng(3000 + trial)
        psi = rng.uniform(-0.05, 0.05, 10)
        g = dual.gradient(laguerre.build(mesh, sites, psi), sites)
        fd = oracle.fd_gradient(mesh, sites, psi)
        worst = max(worst, float(np.abs(g - fd).max()))
        assert np.abs(g - fd).max() <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(2, f"20 instances, worst componentwise error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_fd_hessian():
    worst = 0.0
    for trial in range(5):
        mesh, sites = random_problem(6, seed=4000 + trial)
        rng = np.random.default_rng(5000 + trial)
        psi = rng.uniform(-0.05, 0.05, 6)
        dense = dual.hessian(laguerre.build(mesh, sites, psi), sites).as_dense()
        fd = oracle.fd_hessian(mesh, sites, psi)
        worst = max(worst, float(np.abs(dense - fd).max()))
        assert np.abs(dense - fd).max() <= 1e-4
    announce(3, f"5 instances, worst entrywise error {worst:.2e}")


def test_criterion_4_conservation(battery):
    worst_mass = 0.0
    for name, mesh, sites, report in battery:
        for row in report.trace:
            rel = abs(row.mass_sum - report.mu_total) / report.mu_total
            worst_mass = max(worst_mass, rel)
            assert rel <= 1e-10, name
    announce(4, f"mass-sum error <= {worst_mass:.2e}")


def test_criterion_5_damping_certificate(battery):
    steps = 0
    for name, mesh, sites, report in battery:
        prev = report.grad_norm0
        for row in report.trace:
            assert row.grad_norm <= (1.0 - 0.5 * row.tau) * prev + 1e-15, name
            assert row.min_mass >= report.eps0, name
            prev = row.grad_norm
            steps += 1
    announce(5, f"{steps} accepted steps all satisfy the contraction and mass floor")


def test_criterion_6_gauge_and_symmetry():
    # gauge: shifting all weights by a constant leaves the cells unchanged
    mesh, sites = analytic_problem()
    report = solver.newton(mesh, sites)
    shifted = laguerre.build(mesh, sites, report.psi + 10.0)
    gauge_err = float(np.abs(shifted.masses - report.masses).max())
    assert gauge_err <= 1e-12

    # symmetry: equal-mass mirrored sites give a mirror-symmetric diagram
    sym = domain.make_sites(
        np.array([[0.25, 0.5], [0.75, 0.5]]), np.array([0.5, 0.5]), 1.0
    )
    diag = laguerre.build(mesh, sym, np.zeros(2))
    assert abs(diag.masses[0] - diag.masses[1]) <= 1e-12
    b = transport.barycenters(diag)
    assert abs(b[0, 0] - (1.0 - b[1, 0])) <= 1e-12
    assert abs(b[0, 1] - b[1, 1]) <= 1e-12
    for p, q, _ in interfaces(diag)[(0, 1)]:
        assert abs(p[0] - 0.5) <= 1e-12 and abs(q[0] - 0.5) <= 1e-12
    announce(6, f"gauge mass drift {gauge_err:.2e}, mirror symmetry at 1e-12")


def test_criterion_7_monte_carlo_oracle(battery):
    worst = 0.0
    for idx, (name, mesh, sites, report) in enumerate(battery):
        est, stderr = oracle.mc_masses(mesh, sites, report.psi, n=10**6, seed=6000 + idx)
        gap = np.abs(est - report.masses)
        worst = max(worst, float((gap / np.maximum(stderr, 1e-300)).max()))
        assert (gap <= 4.0 * stderr + 1e-12).all(), name
    announce(7, f"5 instances x 1e6 samples, worst deviation {worst:.2f} sigma")


def test_criterion_8_lp_cross_check():
    mesh, sites = analytic_problem()
    report = solver.newton(mesh, sites)
    w2_sq = report.w2**2
    assert w2_sq == pytest.approx(ANALYTIC_W2_SQ, rel=1e-12)

    errors = {}
    for k in (8, 32):
        pos, mass = grid_discretization(mesh, k)
        cost, _ = solve_discrete_lp(DiscreteProblem(pos, mass, sites.positions, sites.masses))
        errors[k] = abs(cost - w2_sq)
    assert errors[32] <= 0.05 * w2_sq
    assert errors[32] < errors[8]
    announce(
        8,
        f"LP error {errors[32] / w2_sq:.2%} at 32x32 (5% allowed), "
        f"decreasing from {errors[8] / w2_sq:.2%} at 8x8",
    )


def test_criterion_9_thousand_sites():
    mesh = domain.square_mesh(1, "const:1")
    rng = np.random.default_rng(20240101)
    positions = rng.random((1000, 2))
    sites = domain.make_sites(positions, np.full(1000, 1e-3), mesh.total_mass)
    start = time.perf_counter()
    report = solver.newton(mesh, sites, solver.SolverOptions(tol=1e-9))
    elapsed = time.perf_counter() - start
    assert report.converged
    assert report.grad_norm <= 1e-9 * report.mu_total
    assert report.iterations <= 20
    assert elapsed <= 60.0
    announce(
        9,
        f"1000 sites in {report.iterations} iterations, "
        f"|g| = {report.grad_norm:.2e}, {elapsed:.1f} s",
    )


def test_criterion_10_voronoi_reduction():
    mesh, sites = random_problem(10, seed=7100)
    psi = np.zeros(10)
    diag = laguerre.build(mesh, sites, psi)
    pts = domain.sample(mesh, 10**5, seed=7200)
    nearest = laguerre.assign(pts, sites, psi)

    # exclude points within 1e-9 of the bisector between their two closest sites
    d2 = ((pts[:, None, :] - sites.positions[None, :, :]) ** 2).sum(axis=2)
    top2 = np.argpartition(d2, 1, axis=1)[:, :2]
    best = np.take_along_axis(d2, top2, axis=1)
    pair_gap = np.linalg.norm(
        sites.positions[top2[:, 0]] - sites.positions[top2[:, 1]], axis=1
    )
    dist_to_bisector = np.abs(best[:, 1] - best[:, 0]) / (2.0 * pair_gap)
    clear = dist_to_bisector > 1e-9

    frags_by_site = {}
    for f in fragments(diag):
        frags_by_site.setdefault(f.site, []).append(f.polygon)
    tol = 1e-9 * mesh.bbox_diameter
    agree = sum(
        1
        for p, j in zip(pts[clear], nearest[clear])
        if any(polygon_contains(poly, tuple(p), tol) for poly in frags_by_site[j])
    )
    total = int(clear.sum())
    rate = agree / total
    assert rate >= 0.9999
    announce(10, f"{agree}/{total} clear points agree ({rate:.6f})")


def test_criterion_11_w2_consistency(battery):
    worst = 0.0
    for name, mesh, sites, report in battery:
        k_value = dual.value(report.diagram, sites)
        rel = abs(k_value - report.w2**2) / (report.w2**2)
        worst = max(worst, rel)
        assert rel <= 1e-8, name

    mesh = domain.square_mesh(1, "const:1")
    center = domain.make_sites([[0.5, 0.5]], [1.0], 1.0)
    diag = laguerre.build(mesh, center, [0.0])
    w2 = transport.wasserstein2(diag, center)
    assert abs(w2 - math.sqrt(1 / 6)) <= 1e-12
    announce(11, f"dual/cost agreement <= {worst:.2e} relative; center-site W2 exact")
