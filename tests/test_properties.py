"""Property tests of the diagram build on random, often degenerate, inputs.

Sites are drawn uniformly, on mesh vertices, on mesh edges (grid lines and
the triangles' diagonals) and on a cocircular dyadic grid, with random
weights, on ``square_mesh(k, "linear-x")`` (and on a non-convex L-shape).
Examples are derandomized, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdot import domain, dual, laguerre
from sdot.geom import MERGE_REL

from conftest import area, fragments, interfaces

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def problems(draw):
    k = draw(st.integers(1, 3))
    index = st.integers(0, k)
    pts = draw(st.lists(st.tuples(unit, unit), max_size=8))
    pts += [(a / k, b / k) for a, b in draw(st.lists(st.tuples(index, index), max_size=4))]
    edges = st.tuples(st.sampled_from(["x", "y", "diagonal"]), index, index, unit)
    for kind, a, b, t in draw(st.lists(edges, max_size=4)):
        if kind == "x":  # on the grid line x = a / k
            pts.append((a / k, t))
        elif kind == "y":
            pts.append((t, a / k))
        else:  # on the diagonal of a grid square, which two triangles share
            pts.append(((a % k + t) / k, (b % k + t) / k))
    if draw(st.booleans()):  # 16 sites, each square of four cocircular
        pts += [((2 * a + 1) / 8, (2 * b + 1) / 8) for a in range(4) for b in range(4)]
    kept: list[tuple[float, float]] = []
    for p in pts:
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) > 1e-6 for q in kept):
            kept.append(p)
    if not kept:
        kept.append((0.5, 0.5))
    spread = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    psi = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(kept), max_size=len(kept))))
    mesh = domain.square_mesh(k, "linear-x")
    n = len(kept)
    sites = domain.make_sites(np.array(kept), np.ones(n), mesh.total_mass, normalize=True)
    return mesh, sites, spread * psi


property_settings = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def trapezoid_weight(diag, segments, i, j):
    """Scalar reference for the Hessian weight of the pair ``(i, j)`` from its segments."""
    total = 0.0
    for p, q, (gx, gy, g0) in segments:
        fp = gx * p[0] + gy * p[1] + g0
        fq = gx * q[0] + gy * q[1] + g0
        total += math.hypot(q[0] - p[0], q[1] - p[1]) * 0.5 * (fp + fq)
    yi, yj = diag.sites.positions[i], diag.sites.positions[j]
    return total / (2.0 * math.hypot(yj[0] - yi[0], yj[1] - yi[1]))


@property_settings
@given(problems())
def test_masses_sum_to_the_mesh_mass(problem):
    mesh, sites, psi = problem
    diag = laguerre.build(mesh, sites, psi)
    assert abs(diag.masses.sum() - mesh.total_mass) <= 1e-12 * mesh.total_mass


@property_settings
@given(problems())
def test_fragment_areas_partition_the_triangles(problem):
    mesh, sites, psi = problem
    diag = laguerre.build(mesh, sites, psi)
    per_tri = np.zeros(len(mesh.triangles))
    for f in fragments(diag):
        per_tri[f.triangle] += area(f.polygon)
    assert np.abs(per_tri - mesh.tri_areas).max() <= 1e-12 * mesh.tri_areas.max()


@property_settings
@given(problems())
def test_interface_weights_match_the_trapezoid_reference(problem):
    mesh, sites, psi = problem
    diag = laguerre.build(mesh, sites, psi)
    h = dual.hessian(diag, sites)
    segments_of = interfaces(diag)
    assert [tuple(p) for p in h.pairs.tolist()] == sorted(segments_of)
    ref = np.array([trapezoid_weight(diag, segments_of[i, j], i, j) for i, j in h.pairs.tolist()])
    assert np.all(np.abs(h.weights - ref) <= 1e-12 * np.abs(ref))


@property_settings
@given(problems(), st.floats(-10.0, 10.0))
def test_masses_are_gauge_invariant(problem, c):
    mesh, sites, psi = problem
    m0 = laguerre.build(mesh, sites, psi).masses
    m1 = laguerre.build(mesh, sites, psi + c).masses
    assert np.abs(m1 - m0).max() <= 1e-12 * mesh.total_mass


@property_settings
@given(problems(), st.data())
def test_permuting_the_sites_permutes_the_cells(problem, data):
    mesh, sites, psi = problem
    perm = np.array(data.draw(st.permutations(range(len(sites)))))
    moved = domain.make_sites(sites.positions[perm], sites.masses[perm], mesh.total_mass)
    d0 = laguerre.build(mesh, sites, psi)
    d1 = laguerre.build(mesh, moved, psi[perm])
    assert np.abs(d1.masses - d0.masses[perm]).max() <= 1e-12 * mesh.total_mass
    keys = {tuple(sorted(perm[pair])) for pair in d1.interface_weights[0].tolist()}
    assert keys == set(map(tuple, d0.interface_weights[0].tolist()))


@property_settings
@given(problems())
def test_interface_edges_lie_on_their_bisectors(problem):
    mesh, sites, psi = problem
    diag = laguerre.build(mesh, sites, psi)
    pos = [tuple(p) for p in sites.positions.tolist()]
    merge_tol = MERGE_REL * mesh.bbox_diameter
    site = diag.frag_site[diag.frag]
    for e in np.flatnonzero(diag.label >= 0).tolist():
        j, k = int(site[e]), int(diag.label[e])
        a, b, c = laguerre.bisector(pos[j], psi[j], pos[k], psi[k])
        band = merge_tol * math.hypot(a, b)
        for x, y in (diag.xy[e], diag.xy[diag.nxt[e]]):
            assert abs(a * x + b * y - c) <= band


def l_shape():
    """``square_mesh(8, "linear-x")`` without the triangles whose centroid is in (0.5, 1]^2."""
    full = domain.square_mesh(8, "linear-x")
    centroid = full.vertices[full.triangles].mean(axis=1)
    keep = ~(centroid > 0.5).all(axis=1)
    return domain.make_mesh(full.vertices, full.densities, full.triangles[keep])


L_SHAPE = l_shape()


@property_settings
@given(problems())
def test_cells_partition_a_non_convex_domain(problem):
    # relative to the whole domain: a sliver within the merge band along an
    # edge of a small triangle is dropped, which costs up to about
    # MERGE_REL * diameter * edge length of that triangle's area
    _, sites, psi = problem
    mesh = L_SHAPE
    diag = laguerre.build(mesh, sites, psi)
    assert abs(diag.masses.sum() - mesh.total_mass) <= 1e-12 * mesh.total_mass
    per_tri = np.zeros(len(mesh.triangles))
    for f in fragments(diag):
        per_tri[f.triangle] += area(f.polygon)
    assert np.abs(per_tri - mesh.tri_areas).max() <= 1e-12 * mesh.tri_areas.sum()
