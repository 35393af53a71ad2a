import numpy as np
import pytest

from sdot import domain, dual, laguerre, solver
from sdot.errors import (
    DisconnectedAdjacencyError,
    InitializationError,
    LinearSolveError,
    LineSearchError,
    ValidationError,
)

from conftest import random_problem


def validate_trace(report):
    """Damping certificate and mass floor at every accepted step."""
    prev = report.grad_norm0
    for row in report.trace:
        assert row.grad_norm <= (1.0 - 0.5 * row.tau) * prev + 1e-15
        assert row.min_mass >= report.eps0
        assert abs(row.mass_sum - report.mu_total) <= 1e-10 * report.mu_total
        prev = row.grad_norm


class TestSolveGaugeFixed:
    def test_two_site_direction(self):
        h = dual.SparseHessian(2, np.array([[0, 1]]), np.array([1.0]), np.array([-1.0, -1.0]))
        d = solver.solve_gauge_fixed(h, np.array([0.25, -0.25]))
        assert d == pytest.approx([0.25, 0.0], abs=1e-14)

    def test_zero_gradient(self):
        h = dual.SparseHessian(2, np.array([[0, 1]]), np.array([1.0]), np.array([-1.0, -1.0]))
        assert solver.solve_gauge_fixed(h, np.zeros(2)) == pytest.approx([0.0, 0.0])

    def test_three_site_chain(self):
        h = dual.SparseHessian(
            3, np.array([[0, 1], [1, 2]]), np.array([1.0, 1.0]), np.array([-1.0, -2.0, -1.0])
        )
        g = np.array([1.0, 0.0, -1.0])
        d = solver.solve_gauge_fixed(h, g)
        assert d[2] == 0.0
        neg_h = -h.as_dense()
        assert (neg_h @ d)[:2] == pytest.approx(g[:2], abs=1e-12)

    def test_single_site(self):
        h = dual.SparseHessian(1, np.zeros((0, 2), int), np.zeros(0), np.zeros(1))
        assert solver.solve_gauge_fixed(h, np.zeros(1)) == pytest.approx([0.0])

    def test_disconnected_graph_is_reported(self):
        h = dual.SparseHessian(3, np.array([[0, 1]]), np.array([1.0]), np.array([-1.0, -1.0, 0.0]))
        with pytest.raises(DisconnectedAdjacencyError) as exc:
            solver.solve_gauge_fixed(h, np.array([0.1, -0.1, 0.0]))
        assert exc.value.components == [[0, 1], [2]]

    def test_residual_contract(self):
        rng = np.random.default_rng(10)
        n = 30
        mesh, sites = random_problem(n, seed=10)
        diag = laguerre.build(mesh, sites, np.zeros(n))
        h = dual.hessian(diag, sites)
        g = dual.gradient(diag, sites)
        d = solver.solve_gauge_fixed(h, g, linear_tol=1e-12)
        neg_h = -h.as_dense()
        resid = np.linalg.norm((neg_h @ d)[: n - 1] - g[: n - 1])
        assert resid <= 1e-12 * np.linalg.norm(g[: n - 1]) + 1e-15


class TestNewton:
    def test_analytic_instance_one_full_step(self, analytic_two_site):
        mesh, sites = analytic_two_site
        report = solver.newton(mesh, sites)
        assert report.converged
        assert report.iterations == 1
        assert report.trace[0].tau == 1.0
        assert report.psi == pytest.approx([0.25, 0.0], abs=1e-10)
        assert report.masses == pytest.approx([0.75, 0.25], abs=1e-10)
        validate_trace(report)

    def test_already_optimal_takes_no_steps(self, unit_square):
        positions = np.array([[0.3, 0.4], [0.7, 0.6]])
        probe = domain.make_sites(positions, np.array([0.5, 0.5]), 1.0)
        voronoi_masses = laguerre.build(unit_square, probe, np.zeros(2)).masses
        sites = domain.make_sites(positions, voronoi_masses, 1.0)
        report = solver.newton(unit_square, sites)
        assert report.iterations == 0
        assert report.converged
        assert report.psi == pytest.approx([0.0, 0.0])

    def test_random_instances_converge(self):
        for n, seed in ((5, 1), (17, 2), (40, 3)):
            mesh, sites = random_problem(n, seed=seed)
            report = solver.newton(mesh, sites)
            assert report.converged, f"n={n} failed"
            assert report.grad_norm <= 1e-10 * report.mu_total
            validate_trace(report)
            # optimality cross-check on a rebuilt diagram
            rebuilt = laguerre.build(mesh, sites, report.psi)
            assert np.abs(sites.masses - rebuilt.masses).max() <= 1e-10 * report.mu_total

    def test_gauge_pin_is_exact(self):
        mesh, sites = random_problem(9, seed=12)
        report = solver.newton(mesh, sites)
        assert report.psi[-1] == 0.0

    def test_permutation_equivariance(self):
        mesh, sites = random_problem(11, seed=21)
        report = solver.newton(mesh, sites)
        rng = np.random.default_rng(22)
        perm = rng.permutation(11)
        permuted = domain.make_sites(
            sites.positions[perm], sites.masses[perm], mesh.total_mass
        )
        report_p = solver.newton(mesh, permuted)
        # optimal weights are unique up to a constant: compare pinned differences
        got = report_p.psi - report_p.psi[0]
        expected = report.psi[perm] - report.psi[perm[0]]
        assert got == pytest.approx(expected, abs=1e-8)

    def test_empty_initial_cell_is_an_error(self, unit_square):
        sites = domain.make_sites(
            [[0.5, 0.5], [50.0, 50.0]], [0.5, 0.5], 1.0
        )
        with pytest.raises(InitializationError) as exc:
            solver.newton(unit_square, sites)
        assert 1 in exc.value.empty_sites

    def test_non_convergence_reports_false(self, analytic_two_site):
        mesh, sites = analytic_two_site
        report = solver.newton(mesh, sites, solver.SolverOptions(max_iter=0))
        assert not report.converged
        assert report.iterations == 0
        assert len(report.trace) == 0

    @pytest.mark.parametrize("scale", [1e-13, 1.5e-12, 1e20])
    def test_solution_scales_with_the_instance(self, scale):
        """Scaling the mesh and the sites by s scales masses and weights by s^2.

        A lifted hull of unscaled coordinates gave masses summing to 1.0008
        times the mesh mass on the unit square at 1.5e-12 and a flat-simplex
        Qhull error at 1e20, and a zero-area floor set at the unit scale
        rejected the two tiny meshes.
        """
        unit = domain.square_mesh(4, "linear-x")
        positions = np.random.default_rng(3).uniform(0.1, 0.9, (12, 2))

        def solve(s):
            mesh = domain.make_mesh(unit.vertices * s, unit.densities, unit.triangles)
            sites = domain.make_sites(positions * s, np.ones(12), mesh.total_mass, normalize=True)
            masses = laguerre.build(mesh, sites, np.zeros(12)).masses
            return masses / s**2, solver.newton(mesh, sites)

        masses, report = solve(scale)
        unit_masses, unit_report = solve(1.0)
        assert masses == pytest.approx(unit_masses, rel=1e-12)
        assert report.converged
        assert report.iterations == unit_report.iterations
        assert report.psi / scale**2 == pytest.approx(unit_report.psi, abs=1e-12)

    def test_mass_floor_frozen_at_start(self):
        mesh, sites = random_problem(6, seed=77)
        report = solver.newton(mesh, sites)
        voronoi = laguerre.build(mesh, sites, np.zeros(6)).masses
        expected = 0.5 * min(sites.masses.min(), voronoi.min())
        assert report.eps0 == pytest.approx(expected, rel=1e-12)


class TestErrorState:
    def test_linear_solve_error_carries_residual(self):
        mesh, sites = random_problem(30, seed=10)
        with pytest.raises(LinearSolveError) as exc:
            solver.newton(mesh, sites, solver.SolverOptions(linear_tol=1e-300))
        assert np.isfinite(exc.value.residual) and exc.value.residual > 1e-300
        assert exc.value.target == 1e-300
        assert f"{exc.value.residual:.3e}" in str(exc.value)

    def test_line_search_error_carries_state(self):
        # the first full step on this instance is rejected (tau = 1/2 accepted)
        mesh, sites = random_problem(17, seed=2)
        full = solver.newton(mesh, sites)
        assert full.trace[0].tau == 0.5
        diag = laguerre.build(mesh, sites, np.zeros(17))
        g = dual.gradient(diag, sites)
        d = solver.solve_gauge_fixed(dual.hessian(diag, sites), g)
        with pytest.raises(LineSearchError) as exc:
            solver.newton(mesh, sites, solver.SolverOptions(max_halvings=1))
        err = exc.value
        assert (err.iteration, err.tau) == (1, 1.0)
        assert err.grad_norm == full.grad_norm0
        assert err.eps0 == full.eps0
        assert err.min_mass == laguerre.build(mesh, sites, d).masses.min()
        assert err.trials == 1
        assert str(err) == (
            "no acceptable step in 1 trial step(s), the last at tau = 1, "
            f"at iteration 1 (|g| = {err.grad_norm:.3e})"
        )


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValidationError):
            solver.SolverOptions(tol=0.0)
        with pytest.raises(ValidationError):
            solver.SolverOptions(tol=2.0)
        with pytest.raises(ValidationError):
            solver.SolverOptions(max_halvings=0)
        with pytest.raises(ValidationError):
            solver.SolverOptions(linear_tol=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="linear_tol"):
                solver.SolverOptions(linear_tol=bad)
