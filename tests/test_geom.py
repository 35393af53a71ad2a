import math

import numpy as np
import pytest
from scipy import integrate

from sdot import geom

import reference_clip
from conftest import area, polygon_contains

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
TRI = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def clip(poly, h, merge_tol=0.0):
    """``geom.clip_labeled`` with the edge labels dropped."""
    return geom.clip_labeled(poly, [0] * len(poly), h, 0, merge_tol)[0]


def random_convex_polygon(rng):
    """Unit square clipped by a few random half-planes through its interior."""
    poly = list(UNIT_SQUARE)
    for _ in range(rng.integers(0, 4)):
        theta = rng.uniform(0, 2 * math.pi)
        a, b = math.cos(theta), math.sin(theta)
        px, py = rng.uniform(0.2, 0.8, size=2)
        poly = clip(poly, (a, b, a * px + b * py), 1e-12)
        if len(poly) < 3:
            return list(UNIT_SQUARE)
    return poly


class TestClip:
    def test_axis_aligned_bisection(self):
        out = clip(UNIT_SQUARE, (1.0, 0.0, 0.5))
        assert area(out) == pytest.approx(0.5, abs=1e-15)
        assert all(x <= 0.5 + 1e-12 for x, _ in out)

    def test_identity_when_contained(self):
        out = clip(UNIT_SQUARE, (1.0, 0.0, 2.0))
        assert out == UNIT_SQUARE

    def test_cut_corner(self):
        out = clip(UNIT_SQUARE, (1.0, 1.0, 0.5))
        assert area(out) == pytest.approx(0.125, abs=1e-15)
        assert sorted(out) == pytest.approx(sorted([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]))

    def test_empty_result(self):
        assert clip(UNIT_SQUARE, (1.0, 0.0, -1.0)) == []
        assert clip([], (1.0, 0.0, 0.0)) == []

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            poly = random_convex_polygon(rng)
            theta = rng.uniform(0, 2 * math.pi)
            a, b = math.cos(theta), math.sin(theta)
            c = a * rng.uniform(0, 1) + b * rng.uniform(0, 1)
            once = clip(poly, (a, b, c), 1e-12)
            twice = clip(once, (a, b, c), 1e-12)
            assert len(once) == len(twice)
            for p, q in zip(once, twice):
                assert math.hypot(p[0] - q[0], p[1] - q[1]) <= 1e-12 * math.sqrt(2)

    def test_area_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            poly = random_convex_polygon(rng)
            theta = rng.uniform(0, 2 * math.pi)
            a, b = math.cos(theta), math.sin(theta)
            c = a * rng.uniform(0, 1) + b * rng.uniform(0, 1)
            kept = area(clip(poly, (a, b, c), 1e-12))
            rest = area(clip(poly, (-a, -b, -c), 1e-12))
            assert kept + rest == pytest.approx(area(poly), rel=1e-12, abs=1e-15)


def chained_cuts(rng, merge_tol, count):
    """``count`` seeded cuts ``(poly, labels, h, label)`` applied in chain.

    Each chain starts from the unit square and goes on from the reference
    kernel's result, restarting when that is empty or after 20 cuts.  The
    unit-normal lines are random, within two merge bands of a vertex, or
    within two bands of an edge and tilted from it by at most 1e-6 rad.
    """
    poly, labels, depth = list(UNIT_SQUARE), [-1, -2, -3, -4], 0
    for label in range(count):
        kind = rng.integers(3)
        if kind == 0:
            theta = rng.uniform(0, 2 * math.pi)
            px, py = rng.uniform(0, 1, size=2)
        else:
            i = rng.integers(len(poly))
            (px, py), (qx, qy) = poly[i], poly[(i + 1) % len(poly)]
            if kind == 1:
                theta = rng.uniform(0, 2 * math.pi)
            else:  # the normal of the edge p -> q, either way
                theta = math.atan2(px - qx, qy - py) + rng.uniform(-1e-6, 1e-6)
                theta += math.pi * rng.integers(2)
        a, b = math.cos(theta), math.sin(theta)
        h = (a, b, a * px + b * py + rng.uniform(-2, 2) * merge_tol)
        yield poly, labels, h, label
        poly, labels = reference_clip.clip_labeled(poly, labels, h, label, merge_tol)
        depth += 1
        if not poly or depth == 20:
            poly, labels, depth = list(UNIT_SQUARE), [-1, -2, -3, -4], 0


class TestAgainstReference:
    """The one-pass kernel returns the frozen three-pass kernel's output exactly."""

    @pytest.mark.parametrize("merge_tol", [0.0, 1e-12, 1e-6, 1e-3])
    def test_chained_cuts(self, merge_tol):
        rng = np.random.default_rng(16)
        kept = emptied = 0
        for poly, labels, h, label in chained_cuts(rng, merge_tol, 1500):
            got = geom.clip_labeled(poly, labels, h, label, merge_tol)
            assert got == reference_clip.clip_labeled(poly, labels, h, label, merge_tol)
            kept += got[0] == poly
            emptied += not got[0]
        assert kept and emptied  # cuts that miss the polygon and cuts that empty it

    def test_short_closing_edge(self):
        # the reference pops one vertex within merge_tol of the first; the
        # next one, B, stays and closes the polygon on a short edge B -> A
        tol = 1e-3
        a, b, c = (0.0, 0.0), (0.0, 0.0009), (-0.0009, 0.0001)
        poly, labels = [a, (1.0, 0.0), (1.0, 0.5), b, c], [0, 1, 2, 3, 4]
        miss = (1.0, 0.0, 2.0)
        for want in ([a, (1.0, 0.0), (1.0, 0.5), b], [a, (1.0, 0.0), (1.0, 0.5)]):
            got = geom.clip_labeled(poly, labels, miss, 9, tol)
            assert got == reference_clip.clip_labeled(poly, labels, miss, 9, tol)
            poly, labels = got
            assert poly == want
        assert geom.clip_labeled(poly, labels, miss, 9, tol) == (poly, labels)

    @pytest.mark.parametrize("width", [1e-13, 1e-3])
    def test_short_edges_anywhere(self, width):
        # a strip narrower than merge_tol, as the bounding box of a thin
        # mesh: its short edges are not the closing one
        tol = 1e-12
        strip = [(0.0, 0.0), (width, 0.0), (width, 1.0), (0.0, 1.0)]
        for h in [(1.0, 0.0, 2.0), (0.0, 1.0, 0.5), (1.0, 1.0, 0.5)]:
            got = geom.clip_labeled(strip, [0, 1, 2, 3], h, 9, tol)
            assert got == reference_clip.clip_labeled(strip, [0, 1, 2, 3], h, 9, tol)


class TestArea:
    def test_examples(self):
        assert area(UNIT_SQUARE) == 1.0
        assert area([]) == 0.0
        assert area([(0.0, 0.0), (1.0, 1.0)]) == 0.0
        assert area(TRI) == 0.5


def integral(poly, f, origin=None):
    """Integral of ``f`` over a CCW polygon: ``fan_integrals`` summed over its edges."""
    p = np.array(poly, dtype=float)
    o = np.broadcast_to(p[0] if origin is None else np.asarray(origin, dtype=float), p.shape)
    return float(geom.fan_integrals(o, p, np.roll(p, -1, axis=0), f).sum())


def affine(gx, gy, g0):
    return lambda x, y: gx * x + gy * y + g0


def quadratic_cost(center, gx, gy, g0):
    cx, cy = center
    return lambda x, y: ((x - cx) ** 2 + (y - cy) ** 2) * (gx * x + gy * y + g0)


class TestIntegrateAffine:
    def test_constant_equals_area(self):
        assert integral(UNIT_SQUARE, affine(0.0, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)
        rng = np.random.default_rng(3)
        for _ in range(100):
            poly = random_convex_polygon(rng)
            got = integral(poly, affine(0.0, 0.0, 1.0))
            assert got == pytest.approx(area(poly), rel=1e-14, abs=1e-16)

    def test_linear_over_square(self):
        assert integral(UNIT_SQUARE, affine(1.0, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_linear_over_triangle(self):
        assert integral(TRI, affine(1.0, 0.0, 0.0)) == pytest.approx(1 / 6, abs=1e-15)


class TestIntegrateQuadratic:
    def test_square_center(self):
        got = integral(UNIT_SQUARE, quadratic_cost((0.5, 0.5), 0.0, 0.0, 1.0))
        assert got == pytest.approx(1 / 6, abs=1e-15)

    def test_triangle_corner_against_quadrature(self):
        # oracle: adaptive 2D quadrature of (x^2 + y^2) over the triangle
        oracle, err = integrate.dblquad(
            lambda y, x: x * x + y * y, 0.0, 1.0, 0.0, lambda x: 1.0 - x,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-10
        assert oracle == pytest.approx(1 / 6, abs=1e-10)
        got = integral(TRI, quadratic_cost((0.0, 0.0), 0.0, 0.0, 1.0))
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_zero_density(self):
        assert integral(UNIT_SQUARE, quadratic_cost((0.3, 0.7), 0.0, 0.0, 0.0)) == 0.0

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            poly = random_convex_polygon(rng)
            cx, cy = rng.uniform(0, 1, size=2)
            gx, gy = rng.uniform(-0.5, 0.5, size=2)
            g0 = 1.0 + rng.uniform(0, 1)  # keep the density positive on [0,1]^2
            exact = integral(poly, quadratic_cost((cx, cy), gx, gy, g0))

            n = 200_000
            pts = rng.uniform(0, 1, size=(n, 2))
            inside = np.array([polygon_contains(poly, (x, y), 1e-12) for x, y in pts])
            vals = np.where(
                inside,
                ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2)
                * (gx * pts[:, 0] + gy * pts[:, 1] + g0),
                0.0,
            )
            est = vals.mean()  # bbox area is 1
            stderr = vals.std(ddof=1) / math.sqrt(n)
            assert abs(est - exact) <= 4 * stderr + 1e-12


class TestDeg3Rule:
    def test_exact_for_cubics(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            pts = rng.uniform(0, 2, size=(3, 2))
            if _cross2(pts[1] - pts[0], pts[2] - pts[0]) < 0:
                pts[[1, 2]] = pts[[2, 1]]
            for p in range(4):
                for q in range(4 - p):
                    got = integral(pts, lambda x, y: x**p * y**q)
                    oracle = _tri_quad(pts, p, q)
                    assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_exact_for_cubics_on_polygons_from_any_origin(self):
        # the edge triangles from an origin outside the polygon have both
        # signs; their sum is the polygon integral all the same
        rng = np.random.default_rng(6)
        for _ in range(10):
            poly = np.array(random_convex_polygon(rng))
            origin = rng.uniform(-1, 2, size=2)
            for p in range(4):
                for q in range(4 - p):
                    got = integral(poly, lambda x, y: x**p * y**q, origin)
                    oracle = sum(
                        _tri_quad(poly[[0, i, i + 1]], p, q) for i in range(1, len(poly) - 1)
                    )
                    assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _tri_quad(pts, p, q):
    """Gauss-Legendre tensor quadrature of x^p y^q over a triangle."""
    xs, ws = np.polynomial.legendre.leggauss(12)
    xs = (xs + 1) / 2
    ws = ws / 2
    a, b, c = pts
    jac = abs(_cross2(b - a, c - a))
    total = 0.0
    for u, wu in zip(xs, ws):
        for v, wv in zip(xs, ws):
            vv = v * (1 - u)
            x = a[0] + u * (b[0] - a[0]) + vv * (c[0] - a[0])
            y = a[1] + u * (b[1] - a[1]) + vv * (c[1] - a[1])
            total += wu * wv * (1 - u) * x**p * y**q
    return total * jac
