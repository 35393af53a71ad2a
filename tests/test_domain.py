import math
import warnings

import numpy as np
import pytest

from sdot import domain, laguerre
from sdot.errors import FormatError, ValidationError

from conftest import STRIP_TRIANGLES, strip

SQUARE_DMESH = """\
# unit square, uniform density
4 2
0 0 1
1 0 1
1 1 1
0 1 1
0 1 2
0 2 3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadMesh:
    def test_unit_square(self, tmp_path):
        mesh = domain.load_mesh(write(tmp_path, "sq.dmesh", SQUARE_DMESH))
        assert len(mesh.vertices) == 4
        assert len(mesh.triangles) == 2
        assert mesh.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_negative_density_rejected(self, tmp_path):
        bad = SQUARE_DMESH.replace("1 0 1", "1 0 -1")
        with pytest.raises(ValidationError, match="negative density"):
            domain.load_mesh(write(tmp_path, "bad.dmesh", bad))

    def test_repeated_index_rejected(self, tmp_path):
        bad = SQUARE_DMESH.replace("0 1 2", "0 1 1")
        with pytest.raises(ValidationError, match="zero area"):
            domain.load_mesh(write(tmp_path, "bad.dmesh", bad))

    def test_out_of_range_index(self, tmp_path):
        bad = SQUARE_DMESH.replace("0 2 3", "0 2 9")
        with pytest.raises(ValidationError, match="out of range"):
            domain.load_mesh(write(tmp_path, "bad.dmesh", bad))

    def test_parse_error_reports_line(self, tmp_path):
        bad = SQUARE_DMESH.replace("1 1 1", "1 1 huh")
        with pytest.raises(FormatError, match=r":5:"):
            domain.load_mesh(write(tmp_path, "bad.dmesh", bad))

    def test_cw_triangles_reoriented(self, tmp_path):
        flipped = SQUARE_DMESH.replace("0 1 2", "0 2 1")
        mesh = domain.load_mesh(write(tmp_path, "cw.dmesh", flipped))
        assert (mesh.tri_areas > 0).all()

    def test_roundtrip_idempotent(self, tmp_path):
        rng = np.random.default_rng(2)
        vertices = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        vertices += rng.uniform(-1e-3, 1e-3, vertices.shape)
        densities = rng.uniform(0.1, 2.0, 4)
        mesh = domain.make_mesh(vertices, densities, [[0, 1, 2], [0, 2, 3]])

        p1 = tmp_path / "a.dmesh"
        p2 = tmp_path / "b.dmesh"
        domain.save_mesh(mesh, p1)
        again = domain.load_mesh(p1)
        domain.save_mesh(again, p2)
        assert p1.read_text() == p2.read_text()
        assert np.array_equal(again.vertices, mesh.vertices)
        assert np.array_equal(again.densities, mesh.densities)
        assert np.array_equal(again.triangles, mesh.triangles)


class TestThinMesh:
    """``build`` merges vertices closer than ``MERGE_REL`` times the bounding-box
    diagonal, so it cannot clip a triangle thinner than that: on these strips
    it gave masses [0, 0], or the whole mesh mass to each of two sites."""

    @pytest.mark.parametrize("diagonal", [False, True], ids=["axis", "diagonal"])
    @pytest.mark.parametrize("width", [1e-13, 1e-12])
    def test_rejected(self, width, diagonal):
        with pytest.raises(ValidationError, match=r"triangle [01] is .* high, no more than"):
            domain.make_mesh(strip(width, diagonal), np.ones(4), STRIP_TRIANGLES)

    def test_zero_area_keeps_its_message(self):
        with pytest.raises(ValidationError, match="triangle 1 has zero area"):
            domain.make_mesh(strip(1.0), np.ones(4), [[0, 1, 2], [0, 2, 2]])

    def test_subnormal_area_counts_as_zero(self):
        """An area below the smallest normal double has lost its precision: a
        square mesh of side 1e-160 built to masses 0.7 % off."""
        unit = domain.square_mesh(4)
        with pytest.raises(ValidationError, match="triangle 0 has zero area"):
            domain.make_mesh(unit.vertices * 1e-160, unit.densities, unit.triangles)

    def test_micron_strip_splits_evenly(self):
        mesh = domain.make_mesh(strip(1e-6), np.ones(4), STRIP_TRIANGLES)
        sites = domain.make_sites([[5e-7, 0.25], [5e-7, 0.75]], [1.0, 1.0], mesh.total_mass,
                                  normalize=True)
        diag = laguerre.build(mesh, sites, np.zeros(2))
        assert diag.masses / mesh.total_mass == pytest.approx([0.5, 0.5], rel=1e-12)


AWKWARD_REALS = [-0.0, 5e-324, 1e17, 1 / 3, 1.7976931348623157e308]


def awkward_column(rng, n):
    """The awkward reals first, then reals over forty decades."""
    m = n - len(AWKWARD_REALS)
    rest = rng.normal(size=m) * 10.0 ** rng.integers(-20, 20, m)
    return np.concatenate([AWKWARD_REALS, rest])


class TestWriters:
    """The table writers match one ``.17g`` f-string per row, byte for byte."""

    def test_save_mesh_bytes_equal_per_row_formatting(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 40
        xyr = np.column_stack([awkward_column(rng, n) for _ in range(3)])
        triangles = rng.integers(0, 2**62, (25, 3))
        # the writer needs no valid mesh, so the arrays bypass make_mesh
        mesh = domain.Mesh(xyr[:, :2], np.roll(xyr[:, 2], 2), triangles)
        domain.save_mesh(mesh, tmp_path / "m.dmesh")
        lines = [f"{n} {len(triangles)}"]
        lines += [f"{x:.17g} {y:.17g} {r:.17g}"
                  for (x, y), r in zip(mesh.vertices, mesh.densities)]
        lines += [f"{i} {j} {k}" for i, j, k in triangles]
        assert (tmp_path / "m.dmesh").read_text() == "\n".join(lines) + "\n"

    def test_save_sites_bytes_equal_per_row_formatting(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 40
        sites = domain.SiteSet(
            np.column_stack([np.roll(awkward_column(rng, n), 1), awkward_column(rng, n)]),
            awkward_column(rng, n)[::-1].copy(),
        )
        domain.save_sites(sites, tmp_path / "s.csv")
        lines = ["x,y,nu"] + [f"{x:.17g},{y:.17g},{nu:.17g}"
                              for (x, y), nu in zip(sites.positions, sites.masses)]
        assert (tmp_path / "s.csv").read_text() == "\n".join(lines) + "\n"


class TestTotalMass:
    def test_uniform_square(self):
        assert domain.square_mesh(1, "const:1").total_mass == pytest.approx(1.0, abs=1e-15)

    def test_linear_density(self):
        # density x integrates to 1/2 over the unit square
        mesh = domain.square_mesh(1, "linear-x")
        assert mesh.total_mass == pytest.approx(0.5, abs=1e-15)

    def test_single_triangle(self):
        mesh = domain.make_mesh([[0, 0], [1, 0], [0, 1]], [1, 1, 1], [[0, 1, 2]])
        assert mesh.total_mass == pytest.approx(0.5, abs=1e-15)


class TestSites:
    def test_balanced_accepted(self):
        sites = domain.make_sites([[0.2, 0.5], [0.8, 0.5]], [0.6, 0.4], 1.0)
        assert np.allclose(sites.masses, [0.6, 0.4])

    def test_normalize_rescales(self):
        sites = domain.make_sites([[0.2, 0.5], [0.8, 0.5]], [3.0, 1.0], 1.0, normalize=True)
        assert sites.masses == pytest.approx([0.75, 0.25])

    @pytest.mark.parametrize("mass", [1e308, 1e-320], ids=["sum-overflows", "rescale-overflows"])
    def test_normalize_rejects_masses_that_do_not_rescale(self, mass):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="does not rescale"):
                domain.make_sites([[0.2, 0.5], [0.8, 0.5]], [mass, mass], 1.0, normalize=True)

    def test_imbalance_names_both_masses(self):
        with pytest.raises(ValidationError, match=r"sum to 2.*mesh mass is 1"):
            domain.make_sites([[0.2, 0.5], [0.8, 0.5]], [1.0, 1.0], 1.0)

    def test_coincident_sites_named(self):
        with pytest.raises(ValidationError, match=r"coincident sites 0 and 2"):
            domain.make_sites(
                [[0.2, 0.5], [0.8, 0.5], [0.2, 0.5]], [0.3, 0.4, 0.3], 1.0
            )

    def test_coincidence_names_closest_pair_among_many(self):
        rng = np.random.default_rng(11)
        positions = rng.random((2000, 2))
        positions[1999] = positions[300] + [1e-12, 0.0]
        positions[1500] = positions[700] + [0.0, 1e-13]
        masses = np.full(2000, 1 / 2000)
        with pytest.raises(ValidationError, match=r"coincident sites 700 and 1500"):
            domain.make_sites(positions, masses, 1.0)
        # a tie goes to the lowest indices
        positions[1500] = positions[700]
        positions[1999] = positions[300]
        with pytest.raises(ValidationError, match=r"coincident sites 300 and 1999"):
            domain.make_sites(positions, masses, 1.0)

    def test_all_sites_at_one_point_rejected(self):
        with pytest.raises(ValidationError, match=r"coincident sites 0 and 1"):
            domain.make_sites(np.full((5, 2), 0.5), np.full(5, 0.2), 1.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValidationError, match="non-positive mass"):
            domain.make_sites([[0.2, 0.5], [0.8, 0.5]], [1.0, 0.0], 1.0)

    def test_csv_roundtrip(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y,nu\n0.25,0.5,0.75\n0.75,0.5,0.25\n")
        sites = domain.load_sites(path, 1.0)
        assert sites.masses == pytest.approx([0.75, 0.25])
        out = tmp_path / "t.csv"
        domain.save_sites(sites, out)
        again = domain.load_sites(out, 1.0)
        assert np.array_equal(again.positions, sites.positions)

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        sites = domain.make_sites([[0.25, 0.5], [0.75, 0.5]], [0.75, 0.25], 1.0)
        out = tmp_path / "s.csv"
        domain.save_sites(sites, out)
        assert out.read_bytes() == b"x,y,nu\n0.25,0.5,0.75\n0.75,0.5,0.25\n"

        def fail(src, dst):
            raise OSError("disk full")

        # a write that fails before the rename keeps the old file, leaves no temp file
        monkeypatch.setattr(domain.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            domain.save_sites(domain.make_sites([[0.5, 0.5]], [1.0], 1.0), out)
        assert out.read_bytes() == b"x,y,nu\n0.25,0.5,0.75\n0.75,0.5,0.25\n"
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_csv_header_required(self, tmp_path):
        path = write(tmp_path, "s.csv", "a,b,c\n0,0,1\n")
        with pytest.raises(FormatError, match="expected header"):
            domain.load_sites(path, 1.0)


class TestSample:
    def test_empty(self, unit_square):
        assert domain.sample(unit_square, 0, 1).shape == (0, 2)

    def test_uniform_mean(self, unit_square):
        pts = domain.sample(unit_square, 10**6, seed=123)
        sigma = (1 / math.sqrt(12)) / 1e3
        assert abs(pts[:, 0].mean() - 0.5) <= 4 * sigma
        assert abs(pts[:, 1].mean() - 0.5) <= 4 * sigma

    def test_linear_density_mean(self):
        # E[x] under density x on the unit square is (1/3)/(1/2) = 2/3
        mesh = domain.square_mesh(1, "linear-x")
        pts = domain.sample(mesh, 10**6, seed=5)
        sigma = 1e-3  # Var(x) = 1/2 - 4/9 = 1/18 < 1
        assert abs(pts[:, 0].mean() - 2 / 3) <= 4 * sigma

    def test_deterministic(self, unit_square):
        a = domain.sample(unit_square, 1000, seed=9)
        b = domain.sample(unit_square, 1000, seed=9)
        assert np.array_equal(a, b)


class TestGenerators:
    def test_square_two(self):
        mesh = domain.square_mesh(2, "const:1")
        assert len(mesh.vertices) == 9
        assert len(mesh.triangles) == 8
        assert mesh.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_density_expressions(self):
        assert domain.parse_density("const:2.5")(0.3, 0.9) == 2.5
        assert domain.parse_density("linear-x")(0.3, 0.9) == 0.3
        assert domain.parse_density("linear-y")(0.3, 0.9) == 0.9
        with pytest.raises(ValidationError):
            domain.parse_density("wat")

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValidationError):
            domain.square_mesh(0)
