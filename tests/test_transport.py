import math

import numpy as np
import pytest

from sdot import domain, laguerre, solver, transport
from sdot.errors import ValidationError

from conftest import fragments, random_problem


class TestWasserstein2:
    def test_center_site_closed_form(self, unit_square):
        sites = domain.make_sites([[0.5, 0.5]], [1.0], 1.0)
        diag = laguerre.build(unit_square, sites, [0.0])
        assert transport.wasserstein2(diag, sites) == pytest.approx(
            math.sqrt(1 / 6), abs=1e-12
        )

    def test_against_monte_carlo(self, unit_square):
        # sites at the two triangle barycenters, masses from the Voronoi split
        bary = unit_square.vertices[unit_square.triangles].mean(axis=1)
        probe = domain.make_sites(bary, np.array([0.5, 0.5]), 1.0)
        masses = laguerre.build(unit_square, probe, np.zeros(2)).masses
        sites = domain.make_sites(bary, masses, 1.0)
        diag = laguerre.build(unit_square, sites, np.zeros(2))
        exact = transport.wasserstein2(diag, sites) ** 2

        pts = domain.sample(unit_square, 10**5, seed=3)
        site_of = laguerre.assign(pts, sites, np.zeros(2))
        costs = ((pts - sites.positions[site_of]) ** 2).sum(axis=1)
        est = costs.mean()
        stderr = costs.std(ddof=1) / math.sqrt(len(costs))
        assert abs(est - exact) <= 4 * stderr

    def test_zero_density_region_contributes_nothing(self):
        # left triangle carries no mass at all
        mesh = domain.make_mesh(
            [[0, 0], [1, 0], [1, 1], [0, 1]],
            [0.0, 1.0, 1.0, 0.0],
            [[0, 1, 2], [0, 2, 3]],
        )
        sites = domain.make_sites([[0.9, 0.5]], [mesh.total_mass], mesh.total_mass)
        diag = laguerre.build(mesh, sites, [0.0])
        got = transport.wasserstein2(diag, sites) ** 2
        # only the lower-right triangle (density x there is generally nonzero)
        from sdot.geom import fan_integrals

        def cost(frag):
            p = np.array(frag.polygon)
            gx, gy, g0 = frag.density
            return fan_integrals(
                np.broadcast_to(p[0], p.shape), p, np.roll(p, -1, axis=0),
                lambda x, y: ((x - 0.9) ** 2 + (y - 0.5) ** 2) * (gx * x + gy * y + g0),
            ).sum()

        expected = sum(cost(f) for f in fragments(diag) if f.density != (0.0, 0.0, 0.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_gauge_invariant(self, analytic_two_site):
        mesh, sites = analytic_two_site
        d1 = laguerre.build(mesh, sites, [0.25, 0.0])
        d2 = laguerre.build(mesh, sites, [0.25 + 7.0, 7.0])
        assert transport.wasserstein2(d1, sites) == pytest.approx(
            transport.wasserstein2(d2, sites), abs=1e-12
        )

    def test_parallel_axis_shift(self, unit_square):
        # moving the single site away from the barycenter by delta raises
        # the squared distance by exactly delta^2 (unit total mass)
        center = domain.make_sites([[0.5, 0.5]], [1.0], 1.0)
        base = transport.wasserstein2(
            laguerre.build(unit_square, center, [0.0]), center
        ) ** 2
        for dx, dy in ((0.1, 0.0), (0.0, 0.1), (-0.1, 0.0)):
            moved = domain.make_sites([[0.5 + dx, 0.5 + dy]], [1.0], 1.0)
            shifted = transport.wasserstein2(
                laguerre.build(unit_square, moved, [0.0]), moved
            ) ** 2
            assert shifted - base == pytest.approx(0.01, abs=1e-12)


class TestBarycenters:
    def test_single_site(self, unit_square):
        sites = domain.make_sites([[0.3, 0.8]], [1.0], 1.0)
        diag = laguerre.build(unit_square, sites, [0.0])
        assert transport.barycenters(diag)[0] == pytest.approx([0.5, 0.5], abs=1e-13)

    def test_half_square_cells(self, unit_square):
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5], 1.0)
        diag = laguerre.build(unit_square, sites, np.zeros(2))
        b = transport.barycenters(diag)
        assert b[0] == pytest.approx([0.25, 0.5], abs=1e-12)
        assert b[1] == pytest.approx([0.75, 0.5], abs=1e-12)
        # mirror symmetry about x = 0.5
        assert b[0, 0] + b[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert b[0, 1] == pytest.approx(b[1, 1], abs=1e-12)

    def test_zero_mass_cell_raises(self, analytic_two_site):
        mesh, sites = analytic_two_site
        diag = laguerre.build(mesh, sites, [-10.0, 0.0])  # site 0 starved
        assert diag.masses[0] == 0.0
        with pytest.raises(ValidationError, match=r"zero-mass cell\(s\) 0"):
            transport.barycenters(diag)


class TestInterpolate:
    def test_endpoint_frames(self, analytic_two_site):
        mesh, sites = analytic_two_site
        frames = transport.interpolate(mesh, sites, [0.25, 0.0], 500, [0.0, 1.0], seed=4)
        samples = domain.sample(mesh, 500, seed=4)
        assert np.array_equal(frames[0].points, samples)
        assert np.array_equal(
            frames[1].points, sites.positions[frames[1].source_site]
        )
        assert frames[0].source_site is frames[1].source_site
        assert not any(a.flags.writeable for f in frames for a in (f.points, f.source_site))

    def test_midpoint_split_fraction(self, analytic_two_site):
        mesh, sites = analytic_two_site
        n = 10**5
        frames = transport.interpolate(mesh, sites, [0.25, 0.0], n, [0.5], seed=11)
        frac = (frames[0].source_site == 0).mean()
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(frac - 0.75) <= 4 * sigma
        # every point assigned to site 0 started left of the split at x=0.75
        samples = domain.sample(mesh, n, seed=11)
        assert (samples[frames[0].source_site == 0][:, 0] <= 0.75 + 1e-9).all()

    def test_bitwise_reproducible(self, analytic_two_site):
        mesh, sites = analytic_two_site
        a = transport.interpolate(mesh, sites, [0.25, 0.0], 1000, [0.3, 0.9], seed=8)
        b = transport.interpolate(mesh, sites, [0.25, 0.0], 1000, [0.3, 0.9], seed=8)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.points, fb.points)
            assert np.array_equal(fa.source_site, fb.source_site)

    def test_times_validated(self, analytic_two_site):
        mesh, sites = analytic_two_site
        with pytest.raises(ValidationError):
            transport.interpolate(mesh, sites, [0.25, 0.0], 10, [1.5], seed=0)


class TestConsistency:
    def test_dual_value_equals_cost_at_optimum(self):
        from sdot import dual

        mesh, sites = random_problem(7, seed=70)
        report = solver.newton(mesh, sites)
        assert report.converged
        k_value = dual.value(report.diagram, sites)
        w2_sq = report.w2**2
        assert abs(k_value - w2_sq) <= 1e-8 * w2_sq
