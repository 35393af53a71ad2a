import numpy as np
import pytest

from sdot import domain, dual, laguerre, oracle

from conftest import interface_weight, interfaces, random_problem


def build_at(mesh, sites, psi):
    psi = np.asarray(psi, dtype=float)
    return laguerre.build(mesh, sites, psi), psi


class TestValue:
    def test_single_center_site(self, unit_square):
        sites = domain.make_sites([[0.5, 0.5]], [1.0], 1.0)
        diag, psi = build_at(unit_square, sites, [0.0])
        assert dual.value(diag, sites, psi) == pytest.approx(1 / 6, abs=1e-14)

    def test_constant_weight_cancels(self, unit_square):
        sites = domain.make_sites([[0.5, 0.5]], [1.0], 1.0)
        diag, psi = build_at(unit_square, sites, [5.0])
        assert dual.value(diag, sites, psi) == pytest.approx(1 / 6, abs=1e-13)

    def test_symmetric_weights_are_optimal(self, unit_square):
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5], 1.0)
        d0, p0 = build_at(unit_square, sites, [0.0, 0.0])
        d1, p1 = build_at(unit_square, sites, [0.1, 0.0])
        assert dual.value(d0, sites, p0) >= dual.value(d1, sites, p1)


class TestGradient:
    def test_voronoi_masses(self, analytic_two_site):
        mesh, sites = analytic_two_site
        diag, _ = build_at(mesh, sites, [0.0, 0.0])
        assert dual.gradient(diag, sites) == pytest.approx([0.25, -0.25], abs=1e-14)

    def test_zero_at_optimum(self, analytic_two_site):
        mesh, sites = analytic_two_site
        diag, _ = build_at(mesh, sites, [0.25, 0.0])
        assert dual.gradient(diag, sites) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_single_site(self, unit_square):
        sites = domain.make_sites([[0.4, 0.4]], [1.0], 1.0)
        diag, _ = build_at(unit_square, sites, [0.0])
        assert dual.gradient(diag, sites) == pytest.approx([0.0], abs=1e-14)

    def test_sums_to_zero(self):
        mesh, sites = random_problem(15, seed=6)
        rng = np.random.default_rng(1)
        diag, _ = build_at(mesh, sites, rng.uniform(-0.03, 0.03, 15))
        g = dual.gradient(diag, sites)
        assert abs(g.sum()) <= 1e-10 * mesh.total_mass

    def test_empty_cell_still_defined(self, analytic_two_site):
        # a starved cell contributes mass 0; K and the gradient stay defined
        mesh, sites = analytic_two_site
        diag, psi = build_at(mesh, sites, [-10.0, 0.0])
        assert diag.masses[0] == 0.0
        g = dual.gradient(diag, sites)
        assert g[0] == pytest.approx(sites.masses[0])
        assert np.isfinite(dual.value(diag, sites, psi))
        h = dual.hessian(diag, sites)
        assert h.as_dense()[0] == pytest.approx([0.0, 0.0])


class TestHessian:
    def test_two_site_matrix(self, unit_square):
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5], 1.0)
        diag, _ = build_at(unit_square, sites, [0.0, 0.0])
        h = dual.hessian(diag, sites)
        assert h.as_dense() == pytest.approx(np.array([[-1.0, 1.0], [1.0, -1.0]]), abs=1e-12)

    def test_single_site(self, unit_square):
        sites = domain.make_sites([[0.4, 0.4]], [1.0], 1.0)
        diag, _ = build_at(unit_square, sites, [0.0])
        h = dual.hessian(diag, sites)
        assert h.as_dense() == pytest.approx(np.zeros((1, 1)))

    def test_symmetric_with_nonnegative_off_diagonal(self):
        mesh, sites = random_problem(20, seed=17)
        diag, _ = build_at(mesh, sites, np.zeros(20))
        h = dual.hessian(diag, sites)
        dense = h.as_dense()
        assert np.array_equal(dense, dense.T)
        off = dense[~np.eye(20, dtype=bool)]
        assert (off >= 0).all()

    def test_matches_pair_by_pair_assembly(self):
        # reference: one pass over the sorted pairs, adding to i then to j
        mesh, sites = random_problem(20, seed=23, resolution=2, density="linear-x")
        diag, _ = build_at(mesh, sites, np.random.default_rng(24).uniform(-0.02, 0.02, 20))
        h = dual.hessian(diag, sites)
        ref = np.zeros((20, 20))
        off = np.zeros(20)
        segments_of = interfaces(diag)
        for i, j in sorted(segments_of):
            w = interface_weight(diag, i, j)
            ref[i, j] = ref[j, i] = w
            off[i] += w
            off[j] += w
        ref[np.diag_indices(20)] = -off
        assert np.array_equal(h.diag, -off)
        assert np.array_equal(h.as_dense(), ref)
        assert len(h.pairs) == len(segments_of)

    @pytest.mark.parametrize("pin", [0, 7, 14])
    def test_neg_reduced_deletes_the_pinned_row_and_column(self, pin):
        mesh, sites = random_problem(15, seed=8)
        h = dual.hessian(laguerre.build(mesh, sites, np.zeros(15)), sites)
        expected = np.delete(np.delete(-h.as_dense(), pin, axis=0), pin, axis=1)
        assert np.array_equal(h.neg_reduced(pin).toarray(), expected)

    def test_negative_semidefinite(self):
        mesh, sites = random_problem(12, seed=29)
        diag, _ = build_at(mesh, sites, np.zeros(12))
        dense = dual.hessian(diag, sites).as_dense()
        eig = np.linalg.eigvalsh(dense)
        assert eig.max() <= 1e-12


class TestDerivativeChecks:
    def test_fd_gradient_matches(self):
        rng = np.random.default_rng(100)
        for trial in range(3):
            mesh, sites = random_problem(10, seed=200 + trial)
            psi = rng.uniform(-0.05, 0.05, 10)
            diag, _ = build_at(mesh, sites, psi)
            g = dual.gradient(diag, sites)
            fd = oracle.fd_gradient(mesh, sites, psi, h=1e-6)
            assert np.abs(g - fd).max() <= 1e-5

    def test_fd_hessian_matches(self):
        rng = np.random.default_rng(300)
        for trial in range(2):
            mesh, sites = random_problem(6, seed=400 + trial)
            psi = rng.uniform(-0.05, 0.05, 6)
            diag, _ = build_at(mesh, sites, psi)
            dense = dual.hessian(diag, sites).as_dense()
            fd = oracle.fd_hessian(mesh, sites, psi, h=1e-5)
            assert np.abs(dense - fd).max() <= 1e-4

    def test_concavity_along_random_directions(self):
        mesh, sites = random_problem(8, seed=55)
        rng = np.random.default_rng(56)
        psi = rng.uniform(-0.02, 0.02, 8)
        for _ in range(3):
            d = rng.standard_normal(8)
            d /= np.abs(d).max() * 20  # keep all cells alive along the segment
            vals = []
            for t in np.arange(0.0, 1.01, 0.1):
                p = psi + t * d
                diag, _ = build_at(mesh, sites, p)
                vals.append(dual.value(diag, sites, p))
            slopes = np.diff(vals)
            assert (np.diff(slopes) <= 1e-12).all()

    def test_gradient_gauge_invariant(self):
        mesh, sites = random_problem(9, seed=61)
        rng = np.random.default_rng(62)
        psi = rng.uniform(-0.03, 0.03, 9)
        g1 = dual.gradient(laguerre.build(mesh, sites, psi), sites)
        g2 = dual.gradient(laguerre.build(mesh, sites, psi + 3.0), sites)
        assert np.abs(g1 - g2).max() <= 1e-13
