import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import Delaunay

from sdot import domain, laguerre
from sdot.errors import ValidationError
from sdot.geom import MERGE_REL, clip_labeled

import reference_clip
from conftest import (
    area, fragments, interface_weight, interfaces, polygon_contains, random_problem,
)


def halfplane_contains(h, p):
    a, b, c = h
    return a * p[0] + b * p[1] <= c


class TestBisector:
    def test_voronoi_midline(self):
        h = laguerre.bisector((0.25, 0.5), 0.0, (0.75, 0.5), 0.0)
        # the set x <= 0.5
        assert halfplane_contains(h, (0.49, 0.1))
        assert not halfplane_contains(h, (0.51, 0.9))
        a, b, c = h
        assert b == 0.0 and c / a == pytest.approx(0.5)

    def test_weight_shift(self):
        h = laguerre.bisector((0.25, 0.5), 0.25, (0.75, 0.5), 0.0)
        a, b, c = h
        assert c / a == pytest.approx(0.75)

    def test_swap_gives_complement(self):
        h1 = laguerre.bisector((0.25, 0.5), 0.1, (0.75, 0.5), 0.3)
        h2 = laguerre.bisector((0.75, 0.5), 0.3, (0.25, 0.5), 0.1)
        rng = np.random.default_rng(0)
        for p in rng.random((50, 2)):
            on1 = h1[0] * p[0] + h1[1] * p[1] - h1[2]
            on2 = h2[0] * p[0] + h2[1] * p[1] - h2[2]
            assert on1 == pytest.approx(-on2, abs=1e-15)

    def test_membership_matches_power_inequality(self):
        rng = np.random.default_rng(1)
        yi, yj = rng.random((2, 2))
        pi, pj = rng.uniform(-0.2, 0.2, 2)
        h = laguerre.bisector(tuple(yi), pi, tuple(yj), pj)
        for p in rng.random((100, 2)):
            power_i = (p - yi) @ (p - yi) - pi
            power_j = (p - yj) @ (p - yj) - pj
            assert halfplane_contains(h, p) == (power_i <= power_j + 1e-15)

    def test_coincident_sites_rejected(self):
        with pytest.raises(ValidationError, match="coincident"):
            laguerre.bisector((0.5, 0.5), 0.0, (0.5, 0.5), 1.0)


class TestBuild:
    def test_single_site_owns_everything(self, unit_square):
        sites = domain.make_sites([[0.3, 0.6]], [1.0], 1.0)
        diag = laguerre.build(unit_square, sites, [5.0])
        assert diag.masses == pytest.approx([unit_square.total_mass], abs=1e-14)
        assert sum(area(f.polygon) for f in fragments(diag)) == pytest.approx(1.0, abs=1e-13)
        assert interfaces(diag) == {}

    def test_symmetric_pair(self, unit_square):
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5], 1.0)
        diag = laguerre.build(unit_square, sites, np.zeros(2))
        assert diag.masses == pytest.approx([0.5, 0.5], abs=1e-14)
        segments = interfaces(diag)[(0, 1)]
        length = sum(math.hypot(q[0] - p[0], q[1] - p[1]) for p, q, _ in segments)
        assert length == pytest.approx(1.0, abs=1e-12)
        for p, q, _ in segments:
            assert p[0] == pytest.approx(0.5, abs=1e-12)
            assert q[0] == pytest.approx(0.5, abs=1e-12)
        # each half of the square meets both triangles
        assert sorted(map(tuple, diag.fragments.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert diag.interfaces.tolist() == [[0, 1]]
        assert not diag.fragments.flags.writeable and not diag.interfaces.flags.writeable

    def test_weighted_pair_moves_interface(self, analytic_two_site):
        mesh, sites = analytic_two_site
        diag = laguerre.build(mesh, sites, [0.25, 0.0])
        assert diag.masses == pytest.approx([0.75, 0.25], abs=1e-14)
        for p, q, _ in interfaces(diag)[(0, 1)]:
            assert p[0] == pytest.approx(0.75, abs=1e-12)

    def test_interface_on_mesh_edge_is_recovered(self):
        # grid line x = 0.5 coincides with the Voronoi bisector here
        mesh = domain.square_mesh(2, "const:1")
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5], 1.0)
        diag = laguerre.build(mesh, sites, np.zeros(2))
        assert diag.masses == pytest.approx([0.5, 0.5], abs=1e-12)
        assert interface_weight(diag, 0, 1) == pytest.approx(1.0, rel=1e-10)

    def test_psi_length_checked(self, unit_square):
        sites = domain.make_sites([[0.3, 0.6]], [1.0], 1.0)
        with pytest.raises(ValidationError):
            laguerre.build(unit_square, sites, [0.0, 1.0])


class TestInterfaceWeight:
    def test_two_site_value(self, unit_square):
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.5, 0.5], 1.0)
        diag = laguerre.build(unit_square, sites, np.zeros(2))
        # segment integral 1 over 2 * 0.5 distance
        assert interface_weight(diag, 0, 1) == pytest.approx(1.0, rel=1e-12)
        assert interface_weight(diag, 1, 0) == pytest.approx(1.0, rel=1e-12)

    def test_non_adjacent_pair_is_zero(self, unit_square):
        sites = domain.make_sites(
            [[0.2, 0.5], [0.5, 0.5], [0.8, 0.5]], [1 / 3] * 3, 1.0
        )
        diag = laguerre.build(unit_square, sites, np.zeros(3))
        assert interface_weight(diag, 0, 2) == 0.0

    def test_linear_in_density(self):
        mesh = domain.square_mesh(1, "const:2")
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [1.0, 1.0], mesh.total_mass)
        diag = laguerre.build(mesh, sites, np.zeros(2))
        assert interface_weight(diag, 0, 1) == pytest.approx(2.0, rel=1e-12)

    def test_segment_examples(self):
        # trapezoid rule on the interface: the unit segment x = 0.5 under
        # density 1, the unit segment y = 0.5 under density x, and the single
        # point where diagonal cells of a square grid of four sites meet
        def weights(density, positions, pairs):
            mesh = domain.square_mesh(1, density)
            n = len(positions)
            sites = domain.make_sites(positions, [1.0] * n, mesh.total_mass, normalize=True)
            diag = laguerre.build(mesh, sites, np.zeros(n))
            return [interface_weight(diag, i, j) for i, j in pairs]

        assert weights("const:1", [[0.25, 0.5], [0.75, 0.5]], [(0, 1)]) == pytest.approx([1.0])
        assert weights("linear-x", [[0.5, 0.25], [0.5, 0.75]], [(0, 1)]) == pytest.approx([0.5])
        grid = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        assert weights("linear-x", grid, [(0, 3), (1, 2), (0, 1)]) == [0.0, 0.0, 0.25]


class TestDiagramProperties:
    def test_voronoi_reduction(self, unit_square):
        mesh, sites = random_problem(10, seed=31)
        diag = laguerre.build(mesh, sites, np.zeros(10))
        pts = domain.sample(mesh, 10**5, seed=77)
        nearest = laguerre.assign(pts, sites, np.zeros(10))

        # exclude points within 1e-9 of any bisector (power-distance ties)
        d2 = ((pts[:, None, :] - sites.positions[None, :, :]) ** 2).sum(axis=2)
        part = np.partition(d2, 1, axis=1)
        diff = np.abs(part[:, 1] - part[:, 0])
        gaps = np.linalg.norm(
            sites.positions[:, None, :] - sites.positions[None, :, :], axis=2
        )
        min_gap = gaps[gaps > 0].min()
        clear = diff > 1e-9 * 2 * min_gap

        frags_by_site = {}
        for f in fragments(diag):
            frags_by_site.setdefault(f.site, []).append(f.polygon)
        agree = 0
        total = 0
        tol = 1e-9 * mesh.bbox_diameter
        for p, j in zip(pts[clear], nearest[clear]):
            total += 1
            if any(polygon_contains(poly, tuple(p), tol) for poly in frags_by_site[j]):
                agree += 1
        assert agree / total >= 0.9999

    def test_gauge_invariance(self):
        mesh, sites = random_problem(8, seed=13)
        rng = np.random.default_rng(99)
        psi = rng.uniform(-0.05, 0.05, 8)
        d1 = laguerre.build(mesh, sites, psi)
        d2 = laguerre.build(mesh, sites, psi + 10.0)
        f1s, f2s = fragments(d1), fragments(d2)
        assert len(f1s) == len(f2s)
        for f1, f2 in zip(f1s, f2s):
            assert (f1.site, f1.triangle) == (f2.site, f2.triangle)
            assert len(f1.polygon) == len(f2.polygon)
            for p, q in zip(f1.polygon, f2.polygon):
                assert math.hypot(p[0] - q[0], p[1] - q[1]) <= 1e-12

    def test_partition_of_triangles_and_mass(self):
        mesh, sites = random_problem(25, seed=41, resolution=2, density="linear-x")
        rng = np.random.default_rng(3)
        psi = rng.uniform(-0.02, 0.02, 25)
        diag = laguerre.build(mesh, sites, psi)

        per_tri = np.zeros(len(mesh.triangles))
        for f in fragments(diag):
            per_tri[f.triangle] += area(f.polygon)
        assert per_tri == pytest.approx(mesh.tri_areas, rel=1e-10)
        assert diag.masses.sum() == pytest.approx(mesh.total_mass, rel=1e-10)
        assert (diag.masses >= 0).all()

    def test_mass_monotone_in_own_weight(self):
        mesh, sites = random_problem(12, seed=8)
        psi = np.zeros(12)
        base = laguerre.build(mesh, sites, psi)
        for j in (0, 5, 11):
            bumped = psi.copy()
            bumped[j] += 0.01
            diag = laguerre.build(mesh, sites, bumped)
            assert diag.masses[j] >= base.masses[j] - 1e-12

    def test_interface_segments_lie_on_bisectors(self):
        mesh, sites = random_problem(14, seed=52)
        rng = np.random.default_rng(53)
        psi = rng.uniform(-0.03, 0.03, 14)
        diag = laguerre.build(mesh, sites, psi)
        segments_of = interfaces(diag)
        assert segments_of  # adjacency exists on this instance
        for (i, j), segments in segments_of.items():
            h = laguerre.bisector(
                tuple(sites.positions[i]), psi[i], tuple(sites.positions[j]), psi[j]
            )
            a, b, c = h
            scale = math.hypot(a, b)
            for p, q, _ in segments:
                assert abs(a * p[0] + b * p[1] - c) <= 1e-11 * scale
                assert abs(a * q[0] + b * q[1] - c) <= 1e-11 * scale

    def test_partition_on_non_square_domain(self):
        mesh = domain.make_mesh(
            [[0, 0], [2, 0], [0.5, 1.5]], [1.0, 0.5, 2.0], [[0, 1, 2]]
        )
        sites = domain.make_sites(
            [[0.5, 0.4], [1.2, 0.3]], [0.5, 0.5], mesh.total_mass, normalize=True
        )
        diag = laguerre.build(mesh, sites, np.array([0.01, 0.0]))
        assert diag.masses.sum() == pytest.approx(mesh.total_mass, rel=1e-12)
        per_area = sum(area(f.polygon) for f in fragments(diag))
        assert per_area == pytest.approx(float(mesh.tri_areas[0]), rel=1e-12)


def dense_argmin(pts, pos, psi):
    """Power argmin against every site, ties to the lower index."""
    d2 = ((pts[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2) - psi[None, :]
    return np.argmin(d2, axis=1)


class TestAssign:
    def test_matches_dense_on_many_sites(self):
        rng = np.random.default_rng(11)
        pos = rng.random((1000, 2))
        sites = domain.make_sites(pos, np.full(1000, 1e-3), 1.0)
        psi = rng.uniform(-0.01, 0.01, 1000)
        pts = rng.random((20000, 2))
        got = laguerre.assign(pts, sites, psi)
        assert np.array_equal(got, dense_argmin(pts, sites.positions, psi))

    @pytest.mark.parametrize("weight", [0.0, 0.375])
    def test_exact_ties_go_to_lower_index(self, weight):
        # dyadic grid: points on the lines x, y = 0.25 * i are exactly on
        # bisectors, and grid-square centres tie four ways
        pos = _grid(4, 0.125, 0.25)
        sites = domain.make_sites(pos, np.full(16, 1 / 16), 1.0)
        psi = np.full(16, weight)
        ticks = np.arange(-16, 81) / 64
        pts = np.array([(x, y) for y in ticks for x in ticks])
        got = laguerre.assign(pts, sites, psi)
        ref = dense_argmin(pts, sites.positions, psi)
        assert np.array_equal(got, ref)
        d2 = ((pts[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        ties = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1)
        assert (ties == 4).sum() > 0 and (ties == 2).sum() > 0

    def test_near_ties_beyond_the_candidates(self):
        # with psi_j = |c - y_j|^2 every site is at power distance 0 from c up
        # to rounding, which the lifted tree and the dense argmin round
        # differently, so the rows at c must take the dense path
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.random(2)
            angle = rng.uniform(0, 2 * np.pi, 40)
            radius = rng.uniform(0.05, 0.4, 40)
            pos = c + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
            sites = domain.make_sites(pos, np.full(40, 1 / 40), 1.0)
            psi = ((c - pos) ** 2).sum(axis=1)
            pts = np.vstack([c, rng.random((100, 2))])
            got = laguerre.assign(pts, sites, psi)
            assert np.array_equal(got, dense_argmin(pts, sites.positions, psi))

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9, -1e9, 1e12])
    def test_matches_dense_under_gauge_offset(self, offset):
        # the near ties above, shifted by a constant: at large offsets the
        # rounding of |x - y|^2 - psi decides the dense argmin, and with only
        # 6 sites the lowest index is often outside the 4 lifted candidates
        rng = np.random.default_rng(4)
        for _ in range(40):
            c = rng.random(2)
            angle = rng.uniform(0, 2 * np.pi, 6)
            radius = rng.uniform(0.05, 0.4, 6)
            pos = c + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
            sites = domain.make_sites(pos, np.full(6, 1 / 6), 1.0)
            psi = ((c - pos) ** 2).sum(axis=1) + offset
            pts = np.vstack([c, rng.random((500, 2))])
            got = laguerre.assign(pts, sites, psi)
            assert np.array_equal(got, dense_argmin(pts, sites.positions, psi))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_sites_than_candidates(self, n, monkeypatch):
        monkeypatch.setattr(laguerre, "ASSIGN_CHUNK", 700)
        rng = np.random.default_rng(n)
        sites = domain.make_sites(rng.random((n, 2)), np.full(n, 1 / n), 1.0)
        psi = rng.uniform(-0.1, 0.1, n)
        pts = rng.uniform(-1.0, 2.0, (3000, 2))
        got = laguerre.assign(pts, sites, psi)
        assert np.array_equal(got, dense_argmin(pts, sites.positions, psi))

    def test_points_outside_site_hull(self):
        rng = np.random.default_rng(12)
        pos = 0.4 + 0.2 * rng.random((200, 2))
        sites = domain.make_sites(pos, np.full(200, 1 / 200), 1.0)
        psi = rng.uniform(-0.002, 0.002, 200)
        angle = rng.uniform(0, 2 * np.pi, 5000)
        radius = rng.uniform(0.2, 50.0, 5000)
        pts = 0.5 + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        got = laguerre.assign(pts, sites, psi)
        assert np.array_equal(got, dense_argmin(pts, sites.positions, psi))

    def test_non_finite_input_rejected(self):
        sites = domain.make_sites([[0.2, 0.5], [0.8, 0.5]], [0.5, 0.5], 1.0)
        with pytest.raises(ValidationError, match="non-finite weight"):
            laguerre.assign(np.zeros((3, 2)), sites, [0.0, np.nan])
        with pytest.raises(ValidationError, match="non-finite point"):
            laguerre.assign(np.array([[0.5, np.inf]]), sites, [0.0, 0.0])

    def test_matches_bruteforce(self, monkeypatch):
        monkeypatch.setattr(laguerre, "ASSIGN_CHUNK", 64)
        mesh, sites = random_problem(7, seed=2)
        rng = np.random.default_rng(0)
        psi = rng.uniform(-0.1, 0.1, 7)
        pts = rng.random((500, 2))
        got = laguerre.assign(pts, sites, psi)
        d2 = ((pts[:, None, :] - sites.positions[None, :, :]) ** 2).sum(axis=2) - psi
        assert np.array_equal(got, np.argmin(d2, axis=1))

    def test_chunking_does_not_change_output(self, monkeypatch):
        mesh, sites = random_problem(300, seed=6)
        rng = np.random.default_rng(7)
        psi = rng.uniform(-0.01, 0.01, 300)
        pts = rng.random((2000, 2))
        got = laguerre.assign(pts, sites, psi)
        for chunk in (1, len(pts)):
            monkeypatch.setattr(laguerre, "ASSIGN_CHUNK", chunk)
            assert np.array_equal(got, laguerre.assign(pts, sites, psi))


def reference_cells(mesh, sites, psi):
    """Brute force: clip the bbox of each cell by every other site's bisector,
    with the test tree's reference kernel rather than ``geom.clip_labeled``."""
    x0, y0, x1, y1 = mesh.bbox
    merge_tol = MERGE_REL * mesh.bbox_diameter
    pos = [tuple(p) for p in sites.positions.tolist()]
    cells = []
    for j in range(len(pos)):
        poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        labels = [laguerre.BOUNDARY] * 4
        for k in range(len(pos)):
            if k != j and poly:
                h = laguerre.bisector(pos[j], psi[j], pos[k], psi[k])
                poly, labels = reference_clip.clip_labeled(poly, labels, h, k, merge_tol)
        cells.append((poly, labels))
    return cells


def _grid(k, lo, step):
    # dyadic coordinates: the lifted sites of each grid square are exactly coplanar
    xs = lo + step * np.arange(k)
    return np.array([(x, y) for y in xs for x in xs])


def _battery():
    rng = np.random.default_rng(2024)
    grid = _grid(5, 0.125, 0.1875)
    line = np.linspace(0.1, 0.9, 7)
    yield pytest.param(grid, np.zeros(25), id="grid-zero")
    yield pytest.param(grid, rng.uniform(-0.01, 0.01, 25), id="grid-random")
    yield pytest.param(_grid(2, 0.25, 0.5), np.zeros(4), id="cocircular-four")
    yield pytest.param(
        np.column_stack([line, np.full(7, 0.5)]), np.zeros(7), id="horizontal-line"
    )
    yield pytest.param(
        np.column_stack([line, line]), rng.uniform(-0.01, 0.01, 7), id="diagonal-line"
    )
    on_edge = np.column_stack([np.linspace(0.05, 0.95, 6), np.zeros(6)])
    yield pytest.param(
        np.vstack([on_edge, rng.random((10, 2))]), np.zeros(16), id="boundary-row"
    )
    for n in (1, 2, 3):
        yield pytest.param(
            rng.random((n, 2)), rng.uniform(-0.01, 0.01, n), id=f"{n}-sites"
        )
    yield pytest.param(rng.uniform(-0.3, 1.3, (50, 2)), np.zeros(50), id="outside-square")
    yield pytest.param(rng.random((40, 2)), rng.uniform(-0.1, 0.1, 40), id="hidden-cells")
    for i in range(3):
        yield pytest.param(
            rng.random((60, 2)), rng.uniform(-0.005, 0.005, 60), id=f"random-{i}"
        )
    along = np.linspace(0.02, 0.98, 30)
    yield pytest.param(
        np.column_stack([along, 0.3 + 0.5 * along]),
        rng.uniform(-0.02, 0.02, 30),
        id="collinear-spread-weights",
    )
    # cocircular sites at equal weights lift onto one plane
    angle = 2.0 * np.pi * np.arange(60) / 60
    ring = 0.5 + 0.4 * np.column_stack([np.cos(angle), np.sin(angle)])
    yield pytest.param(ring, np.zeros(60), id="ring-60")
    # mirror pairs about y = x, the unit square's diagonal mesh edge: their
    # bisectors run along it, and the triangle clip keeps the bisector labels
    pts = np.random.default_rng(7).random((40, 2))
    below = pts[pts[:, 1] < pts[:, 0] - 0.02][:10]
    yield pytest.param(
        np.vstack([below, below[:, ::-1]]), np.zeros(20), id="mirrored-diagonal"
    )


@pytest.mark.parametrize("positions, psi", _battery())
def test_build_matches_brute_force(unit_square, positions, psi):
    """The hull-neighbour build equals clipping by every other site."""
    n = len(positions)
    sites = domain.make_sites(positions, np.full(n, 1.0 / n), 1.0)
    diag = laguerre.build(unit_square, sites, psi)
    cells = reference_cells(unit_square, sites, psi)
    assert diag.masses == pytest.approx([area(poly) for poly, _ in cells], abs=1e-12)
    keys = {(j, k) for j, (_, labels) in enumerate(cells) for k in labels if k > j}
    assert set(map(tuple, diag.interfaces.tolist())) == keys


@pytest.mark.parametrize(
    "resolution, density, positions, mass0, weight",
    [
        (1, "const:1", [[0.25, 0.5], [-0.25, 0.5]], 1.0, 1.0),
        # the bisector is y = 1: int_0^1 x dx / (2 * 0.4)
        (2, "linear-x", [[0.3, 0.8], [0.3, 1.2]], 0.5, 0.625),
    ],
    ids=["mirrored-across-x0", "along-the-top-edge"],
)
def test_bisector_on_the_box_edge_is_an_interface(resolution, density, positions, mass0, weight):
    """A bisector along the bounding rectangle cuts no cell, so only
    ``_relabel_boundary_edges`` makes the shared edge an interface.

    The brute-force battery's reference cells are not relabelled, so their
    interface keys lack such a pair; these cases are checked here instead.
    """
    mesh = domain.square_mesh(resolution, density)
    sites = domain.make_sites(positions, np.full(2, 0.5 * mesh.total_mass), mesh.total_mass)
    diag = laguerre.build(mesh, sites, np.zeros(2))
    assert diag.masses == pytest.approx([mass0, 0.0], abs=1e-14)
    assert interface_weight(diag, 0, 1) == pytest.approx(weight, rel=1e-12)


UNIT_BOX = (0.0, 0.0, 1.0, 1.0)


def test_collinear_sites_have_at_most_two_neighbours():
    x = np.linspace(0.001, 0.999, 400)
    positions = np.column_stack([x, np.full(400, 0.5)])
    rng = np.random.default_rng(400)
    for psi in (np.zeros(400), rng.uniform(-1e-3, 1e-3, 400)):
        neighbors = laguerre._power_neighbors(positions, psi, UNIT_BOX)
        assert max(len(c) for c in neighbors if c is not None) <= 2
    assert any(c is None for c in neighbors)  # random weights hide sites


def test_ring_sites_have_few_candidates():
    # cocircular sites at equal weights lift onto one plane; each cell still
    # gets a handful of candidates, not the n - 1 other sites
    n = 2000
    angle = 2.0 * np.pi * np.arange(n) / n
    positions = 0.5 + 0.4 * np.column_stack([np.cos(angle), np.sin(angle)])
    neighbors = laguerre._power_neighbors(positions, np.zeros(n), UNIT_BOX)
    assert sum(len(c) for c in neighbors if c is not None) <= 6 * n


@pytest.mark.parametrize("n", [800, 3000])
def test_ring_build_conserves_mass_in_few_clips(unit_square, monkeypatch, n):
    # every cell is a thin wedge, and all of them meet at the centre
    clip = laguerre.clip_labeled
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return clip(*args)

    monkeypatch.setattr(laguerre, "clip_labeled", counted)
    angle = 2.0 * np.pi * np.arange(n) / n
    positions = 0.5 + 0.4 * np.column_stack([np.cos(angle), np.sin(angle)])
    sites = domain.make_sites(positions, np.full(n, 1.0 / n), 1.0)
    diag = laguerre.build(unit_square, sites, np.zeros(n))
    assert abs(diag.masses.sum() - 1.0) <= 1e-10  # acceptance criterion 4
    assert calls <= 12 * n


def test_neighbour_keys_do_not_overflow_int32():
    # 216 x 216 = 46 656 sites, so the pair key i * n + k exceeds 2**31
    k = 216
    rng = np.random.default_rng(0)
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="xy")
    corner = np.column_stack([i.ravel(), j.ravel()])
    positions = (corner + 0.25 + 0.5 * rng.random((k * k, 2))) / k
    neighbors = laguerre._power_neighbors(positions, np.zeros(k * k), UNIT_BOX)
    assert all(c is not None for c in neighbors)  # at psi = 0 every cell holds its site
    got = {(a, b) for a, c in enumerate(neighbors) for b in c if a < b}
    # at psi = 0 the lower hull of the lifted sites projects to the Delaunay
    # triangulation; the pairs are its edges but for some between two sites
    # of the grid's outer ring, whose cells meet only outside the square
    tri = Delaunay(positions).simplices
    edges = np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    edges = set(map(tuple, edges.tolist()))
    outer = ((corner == 0) | (corner == k - 1)).any(axis=1)
    assert got <= edges
    assert {(a, b) for a, b in edges if not (outer[a] and outer[b])} <= got


def _restriction_pairs(rng, merge_tol):
    """Seeded (cell, triangle) pairs: random cells of the unit square cut by
    random labelled lines, and a CCW triangle per pair from seven families."""
    pairs = []
    while len(pairs) < 1200:
        cell = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        labels = [laguerre.BOUNDARY] * 4
        for k in range(int(rng.integers(1, 6))):
            a, b = rng.normal(size=2)
            c = a * rng.uniform(0.2, 0.8) + b * rng.uniform(0.2, 0.8)
            cell, labels = reference_clip.clip_labeled(cell, labels, (a, b, c), k, merge_tol)
        if not cell:
            continue
        pts = np.array(cell)
        centre = pts.mean(axis=0)
        e = int(rng.integers(len(cell)))
        p, q = pts[e], pts[(e + 1) % len(cell)]
        d = q - p
        out = np.array([d[1], -d[0]]) / np.hypot(*d)  # away from the cell
        kind = len(pairs) % 7
        if kind == 0:  # anywhere: partial overlaps and empty intersections
            tri = rng.uniform(-0.2, 1.2, (3, 2))
        elif kind == 1:  # an edge within two merge bands of the cell edge, slightly tilted
            s = rng.uniform(-0.5, 1.5, 2)
            off = rng.uniform(-2.0, 2.0, 2) * merge_tol
            a, b = (p + s[i] * d + off[i] * out for i in range(2))
            side = rng.choice([-1.0, 1.0])  # across the edge, or over the cell
            tri = [a, b, 0.5 * (a + b) + side * rng.uniform(0.05, 0.5) * out]
        elif kind == 2:  # strictly inside the cell
            w = rng.dirichlet(np.ones(len(cell)), 3)
            tri = centre + rng.uniform(0.2, 0.9) * (w @ pts - centre)
        elif kind == 3:  # around the cell, which every other time closes on a short edge
            t = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(3) / 3
            tri = centre + 3.0 * np.column_stack([np.cos(t), np.sin(t)])
            if merge_tol and len(pairs) % 14 == 3:
                d = pts[0] - pts[-1]
                cell = cell + [tuple(pts[0] - 0.5 * merge_tol * d / np.hypot(*d))]
                labels = labels + [labels[-1]]
        elif kind == 4:  # a corner at a cell vertex, as where mesh and cells meet
            t = rng.uniform(0, 2 * np.pi) + np.array([0.0, rng.uniform(0.3, 2.5)])
            r = rng.uniform(0.05, 1.0, 2)
            tri = [p, p + r[0] * np.array([np.cos(t[0]), np.sin(t[0])]),
                   p + r[1] * np.array([np.cos(t[1]), np.sin(t[1])])]
        elif kind == 5:  # beyond a cell edge, by up to two merge bands
            a = p + rng.uniform(0.1, 0.9) * d + rng.uniform(0.0, 2.0) * merge_tol * out
            tri = [a, a + rng.uniform(0.1, 0.5) * out + 0.3 * d,
                   a + rng.uniform(0.1, 0.5) * out - 0.3 * d]
        else:  # a corner of 1 to 10 degrees, which the cell edge passes by a few bands
            angle = math.radians(rng.uniform(1.0, 10.0))
            past = rng.uniform(-2.0, 2.0 / math.sin(angle)) * merge_tol
            a = p + rng.uniform(0.2, 0.8) * d - past * out
            t = math.atan2(-out[1], -out[0]) + rng.uniform(-0.5, 0.5)
            t = t + angle * np.array([-0.5, 0.5])
            r = rng.uniform(0.1, 0.4, 2)
            tri = [a, *(a + r[:, None] * np.column_stack([np.cos(t), np.sin(t)]))]
        tri = np.asarray(tri, dtype=float)
        u = tri[[1, 2, 0]] - tri  # the sides, and below the sides into each corner
        v = tri[[2, 0, 1]] - tri
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]  # twice the signed area, thrice
        sines = np.abs(cross) / np.hypot(*u.T) / np.hypot(*v.T)
        if sines.min() < 1e-3:  # near-degenerate
            continue
        if cross[0] < 0:
            tri = tri[[0, 2, 1]]
        pairs.append((cell, labels, [tuple(v) for v in tri.tolist()], kind))
    return pairs


@pytest.mark.parametrize("chunk", [1, 7, 2**10])
def test_box_pairs_are_the_overlapping_boxes(monkeypatch, chunk):
    monkeypatch.setattr(laguerre, "RESTRICT_CHUNK", chunk)
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.0, 1.0, (40, 2))
    hi = lo + rng.uniform(0.0, 0.3, (40, 2))
    t0 = rng.uniform(0.0, 1.0, (25, 2))
    tri_boxes = np.hstack([t0, t0 + rng.uniform(0.0, 0.3, (25, 2))])
    tri_boxes[0] = [hi[0, 0], hi[0, 1], 2.0, 2.0]  # touching counts as overlap
    box, tri = laguerre._box_pairs(lo, hi, tri_boxes)
    want = [
        (i, t) for i in range(40) for t in range(25)
        if (tri_boxes[t, :2] <= hi[i]).all() and (tri_boxes[t, 2:] >= lo[i]).all()
    ]
    assert list(zip(box.tolist(), tri.tolist())) == want
    assert (0, 0) in want


@pytest.mark.parametrize("chunk", [7, 2**10])
@pytest.mark.parametrize("merge_tol", [0.0, 1e-12, 1e-6])
def test_restriction_matches_chained_clips(monkeypatch, merge_tol, chunk):
    """``_restrict`` returns exactly what ``clip_labeled`` chained over the
    triangle's three inner half-planes returns, up to a cyclic rotation,
    also where the rows that merge fall at the edges of a block."""
    monkeypatch.setattr(laguerre, "RESTRICT_CHUNK", chunk)
    pairs = _restriction_pairs(np.random.default_rng(17), merge_tol)
    size = np.array([len(cell) for cell, _, _, _ in pairs])
    x, y, lab = laguerre._padded(
        size,
        *np.array([v for cell, _, _, _ in pairs for v in cell]).T,
        np.array([k for _, labels, _, _ in pairs for k in labels]),
    )
    corners = np.array([tri for _, _, tri, _ in pairs])
    index = np.arange(len(pairs))
    xy, label, got_size = laguerre._restrict(x, y, lab, size, corners, index, index, merge_tol)

    start = np.concatenate([[0], np.cumsum(got_size)])
    empty = 0
    for i, (cell, labels, tri, kind) in enumerate(pairs):
        want, want_labels = cell, labels
        for k in range(3):
            (ax, ay), (bx, by) = tri[k], tri[(k + 1) % 3]
            h = (by - ay, ax - bx, (by - ay) * ax + (ax - bx) * ay)
            want, want_labels = clip_labeled(want, want_labels, h, laguerre.BOUNDARY, merge_tol)
        got = xy[start[i] : start[i + 1]]
        got_labels = label[start[i] : start[i + 1]].tolist()
        assert len(got) == len(want), (i, kind)
        empty += not want
        if kind == 3 and len(want) == len(cell):  # no round cuts the cell: it comes back as is
            assert want == cell and got.tolist() == list(map(list, cell)) and got_labels == labels
        if want:
            rotations = [
                r for r in range(len(want)) if got_labels[r:] + got_labels[:r] == want_labels
            ]
            error = min((np.abs(np.roll(got, -r, axis=0) - want).max() for r in rotations),
                        default=np.inf)
            assert error == 0.0, (i, kind)
    assert 100 <= empty <= len(pairs) - 500


def test_fine_mesh_build_clips_few_times_per_cell(monkeypatch):
    """The restriction clips no (cell, triangle) pair with ``clip_labeled``:
    the build's clips are the competitor clips of ``_clip_cell`` (about
    600 per cell when each pair was clipped in turn)."""
    clip = laguerre.clip_labeled
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return clip(*args)

    monkeypatch.setattr(laguerre, "clip_labeled", counted)
    mesh = domain.square_mesh(64, "linear-x")
    k = 8
    rng = np.random.default_rng(1)
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="xy")
    positions = (np.column_stack([i.ravel(), j.ravel()]) + 0.25 + 0.5 * rng.random((k * k, 2))) / k
    sites = domain.make_sites(positions, np.full(k * k, mesh.total_mass / k**2), mesh.total_mass)
    tracemalloc.start()
    try:
        diag = laguerre.build(mesh, sites, np.zeros(k * k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls <= 12 * k * k
    assert peak <= 10e6
    assert diag.masses.sum() == pytest.approx(mesh.total_mass, rel=1e-12)
