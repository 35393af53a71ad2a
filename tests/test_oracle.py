import numpy as np
import pytest

from sdot import domain, dual, laguerre, oracle

from conftest import random_problem


class TestMcMasses:
    def test_single_site_is_exact(self, unit_square):
        sites = domain.make_sites([[0.4, 0.4]], [1.0], 1.0)
        est, stderr = oracle.mc_masses(unit_square, sites, [0.0], n=100, seed=1)
        assert est == pytest.approx([1.0])
        assert stderr == pytest.approx([0.0])

    def test_symmetric_split(self, unit_square):
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5], 1.0)
        est, stderr = oracle.mc_masses(unit_square, sites, np.zeros(2), n=10**6, seed=2)
        assert stderr[0] == pytest.approx(5e-4, rel=0.05)
        assert abs(est[0] - 0.5) <= 4 * stderr[0]

    def test_weighted_split(self, analytic_two_site):
        mesh, sites = analytic_two_site
        est, stderr = oracle.mc_masses(mesh, sites, [0.25, 0.0], n=10**6, seed=3)
        assert abs(est[0] - 0.75) <= 4 * stderr[0]
        assert abs(est[1] - 0.25) <= 4 * stderr[1]


class TestFdGradient:
    def test_zero_at_optimum(self, analytic_two_site):
        mesh, sites = analytic_two_site
        fd = oracle.fd_gradient(mesh, sites, [0.25, 0.0])
        assert np.abs(fd).max() <= 1e-5

    def test_two_site_voronoi(self, analytic_two_site):
        mesh, sites = analytic_two_site
        fd = oracle.fd_gradient(mesh, sites, [0.0, 0.0])
        assert fd == pytest.approx([0.25, -0.25], abs=1e-5)

    def test_matches_analytic_on_random_instance(self):
        mesh, sites = random_problem(10, seed=501)
        rng = np.random.default_rng(502)
        psi = rng.uniform(-0.05, 0.05, 10)
        g = dual.gradient(laguerre.build(mesh, sites, psi), sites)
        fd = oracle.fd_gradient(mesh, sites, psi)
        assert np.abs(fd - g).max() <= 1e-5
