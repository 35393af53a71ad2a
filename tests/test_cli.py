import csv
import json
import math
import re

import numpy as np
import pytest

from sdot import cli, domain
from sdot.transport import InterpolationFrame

from conftest import STRIP_TRIANGLES, strip

SITES_CSV = "x,y,nu\n0.25,0.5,0.75\n0.75,0.5,0.25\n"
TRIANGLE_DMESH = "3 1\n0 0 2\n1 0 2\n0 1 2\n"

REPORT_KEYS = ["psi", "masses", "nu", "w2", "iterations", "grad_norm", "converged", "trace"]
TRACE_KEYS = ["iter", "grad_norm", "tau", "k_value"]


@pytest.fixture()
def square_files(tmp_path):
    mesh_path = tmp_path / "sq.dmesh"
    sites_path = tmp_path / "s.csv"
    assert cli.main(["make-mesh", "--square", "1", "--density", "const:1",
                     "--out", str(mesh_path)]) == 0
    sites_path.write_text(SITES_CSV)
    return mesh_path, sites_path


class TestMakeMesh:
    def test_square_two(self, tmp_path):
        out = tmp_path / "g.dmesh"
        assert cli.main(["make-mesh", "--square", "2", "--out", str(out)]) == 0
        mesh = domain.load_mesh(out)
        assert len(mesh.vertices) == 9
        assert len(mesh.triangles) == 8
        assert mesh.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.dmesh"
        b = tmp_path / "b.dmesh"
        cli.main(["make-mesh", "--square", "3", "--density", "linear-x", "--out", str(a)])
        cli.main(["make-mesh", "--square", "3", "--density", "linear-x", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_equal_save_mesh(self, tmp_path):
        out = tmp_path / "cli.dmesh"
        saved = tmp_path / "saved.dmesh"
        assert cli.main(["make-mesh", "--square", "3", "--density", "linear-y",
                         "--out", str(out)]) == 0
        domain.save_mesh(domain.square_mesh(3, "linear-y"), saved)
        assert out.read_bytes() == saved.read_bytes()

    def test_zero_resolution_rejected(self, tmp_path, capsys):
        code = cli.main(["make-mesh", "--square", "0", "--out", str(tmp_path / "x.dmesh")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: validation:")


class TestSolve:
    def test_analytic_instance(self, square_files, tmp_path):
        mesh_path, sites_path = square_files
        out = tmp_path / "r.json"
        code = cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert list(report.keys()) == REPORT_KEYS
        assert report["psi"] == pytest.approx([0.25, 0.0], abs=1e-10)
        assert report["converged"] is True
        assert report["iterations"] == 1
        assert report["masses"] == pytest.approx([0.75, 0.25], abs=1e-10)
        assert report["nu"] == pytest.approx([0.75, 0.25])
        assert report["w2"] == pytest.approx(math.sqrt(13 / 96), abs=1e-12)
        assert len(report["trace"]) == 1
        assert list(report["trace"][0].keys()) == TRACE_KEYS
        assert report["trace"][0]["tau"] == 1.0

    def test_byte_identical_reruns(self, square_files, tmp_path):
        mesh_path, sites_path = square_files
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                             "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_optional_svg_output(self, square_files, tmp_path):
        mesh_path, sites_path = square_files
        svg = tmp_path / "solved.svg"
        assert cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--out", str(tmp_path / "r.json"), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_verbose_lines_go_to_stderr(self, square_files, tmp_path, capsys):
        mesh_path, sites_path = square_files
        assert cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--out", str(tmp_path / "r.json"), "--verbose"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("iter   1  |g| = ")

    def test_non_convergence_exit_code(self, square_files, tmp_path, capsys):
        mesh_path, sites_path = square_files
        out = tmp_path / "r.json"
        code = cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--out", str(out), "--max-iter", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: solver: not converged after 0 iterations "
                            r"\(\|g\| = \d\.\d{3}e[-+]\d\d\)\n", err)
        report = json.loads(out.read_text())
        assert report["converged"] is False
        assert len(report["trace"]) == 0

    def test_imbalance_exit_code(self, square_files, tmp_path, capsys):
        mesh_path, _ = square_files
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,nu\n0.25,0.5,2\n0.75,0.5,2\n")
        code = cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(bad),
                         "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: validation:")

    def test_parse_error_exit_code(self, square_files, tmp_path, capsys):
        mesh_path, _ = square_files
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.25,0.5\n")
        code = cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(bad),
                         "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: parse:")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = cli.main(["solve", "--mesh", str(tmp_path / "nope.dmesh"),
                         "--sites", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: io:")


class TestMalformedInput:
    """Bad input ends in one ``error: <category>: <detail>`` line and exit status 1."""

    @pytest.mark.parametrize(
        "text",
        ['{"psi": [0.25,', '["a", 0]', "[{}, 0]", '["0.25", "0"]', "[true, 0]", "[null, 0]",
         f"[{10**400}, 0]", "[NaN, 0]", "[1e400, 0]", '{"psi": [Infinity, 0]}'],
        ids=["truncated-json", "string-entry", "object-entry", "numeric-string", "boolean",
             "null", "huge-integer", "nan", "overflowing-real", "infinity"],
    )
    def test_malformed_psi_is_a_parse_error(self, square_files, tmp_path, capsys, text):
        mesh_path, sites_path = square_files
        psi = tmp_path / "psi.json"
        psi.write_text(text)
        code = cli.main(["distance", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--psi", str(psi)])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: parse: [^\n]+\n", err)
        assert str(psi) in err

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("", "1: empty mesh file"),
            ("3 x\n", "1: non-integer header"),
            ("# c\n3\n", "2: expected 'nv nt' header"),
            ("3 1\n0 0 1\n", "1: header promises 3+1 rows, file has 1"),
            ("-1 -1\n", "1: header promises -1+-1 rows, file has 0"),
            ("-1 2\n0 0 1\n", "1: negative count in header"),
            ("3 1\n0 0\n1 0 2\n0 1 2\n0 1 2\n", "2: expected 'x y rho'"),
            ("3 1\n0 a 2\n1 0\n0 1 2\n0 1 2\n", "2: non-numeric vertex row"),
            (TRIANGLE_DMESH + "0 1 2 0\n", "5: expected 'i j k'"),
            (TRIANGLE_DMESH + "0 1 2.0\n", "5: non-integer triangle row"),
            (TRIANGLE_DMESH + "0 1 99999999999999999999\n", "5: value out of range for int64"),
            (TRIANGLE_DMESH + "0 -99999999999999999999 2\n",
             "5: value out of range for int64"),
            ("# \udce9\n" + TRIANGLE_DMESH, " not UTF-8 text"),  # the byte 0xE9
        ],
        ids=["empty", "non-integer-header", "short-header", "row-count", "negative-row-count",
             "negative-count", "short-vertex-row", "non-numeric-vertex", "long-triangle-row",
             "non-integer-triangle", "index-overflow", "negative-index-overflow", "not-utf8"],
    )
    def test_malformed_mesh_is_a_parse_error(self, square_files, tmp_path, capsys, text, detail):
        _, sites_path = square_files
        mesh = tmp_path / "bad.dmesh"
        mesh.write_text(text, encoding="utf-8", errors="surrogateescape")
        code = cli.main(["distance", "--mesh", str(mesh), "--sites", str(sites_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: parse: {mesh}:{detail}\n"

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("", ":1: empty sites file"),
            ("x,y\n0.25,0.5\n", ":1: expected header 'x,y,nu'"),
            ("x,y,nu\n\n \n", ": no site rows"),
            ("x,y,nu\n0.25,0.5,0.75\n\n0.75,0.5\n", ":4: expected 3 columns"),
            ("x,y,nu\n0.25,z,0.75\n0.75\n", ":2: non-numeric value"),
            ("x,y,nu\n0.25,\udcff0.5,0.5\n", ": not UTF-8 text"),  # the byte 0xFF
            (f'x,y,nu\n0.25,0.5,0.5\n"{"1" * (csv.field_size_limit() + 1)}",0.5,0.5\n',
             f":3: field larger than field limit ({csv.field_size_limit()})"),
        ],
        ids=["empty", "bad-header", "no-rows", "short-row-after-blank", "non-numeric",
             "not-utf8", "field-too-long"],
    )
    def test_malformed_sites_are_a_parse_error(self, square_files, tmp_path, capsys, text,
                                               detail):
        mesh_path, _ = square_files
        sites = tmp_path / "bad.csv"
        sites.write_text(text, encoding="utf-8", errors="surrogateescape")
        code = cli.main(["distance", "--mesh", str(mesh_path), "--sites", str(sites)])
        assert code == 1
        assert capsys.readouterr().err == f"error: parse: {sites}{detail}\n"

    def test_non_numeric_time_is_a_validation_error(self, square_files, tmp_path, capsys):
        mesh_path, sites_path = square_files
        psi = tmp_path / "psi.json"
        psi.write_text("[0.25, 0.0]")
        code = cli.main(["interpolate", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--psi", str(psi), "--times", "0,x", "--out-dir", str(tmp_path / "f")])
        assert code == 1
        assert re.fullmatch(r"error: validation: [^\n]+\n", capsys.readouterr().err)

    def test_negative_seed_is_rejected_before_solving(self, square_files, tmp_path, capsys,
                                                      monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before the arguments were checked")

        monkeypatch.setattr(cli.solver, "newton", no_solve)
        mesh_path, sites_path = square_files
        code = cli.main(["interpolate", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--seed", "-1", "--out-dir", str(tmp_path / "f")])
        assert code == 1
        assert capsys.readouterr().err == "error: validation: --seed must be nonnegative\n"
        assert not (tmp_path / "f").exists()


class TestDistance:
    def test_non_convergence_exit_code(self, square_files, tmp_path, capsys):
        mesh_path, sites_path = square_files
        out = tmp_path / "r.json"
        code = cli.main(["distance", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--out", str(out), "--max-iter", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: solver: not converged; no distance reported\n"
        assert json.loads(out.read_text())["converged"] is False  # written before failing

    def test_prints_w2(self, square_files, tmp_path, capsys):
        mesh_path, sites_path = square_files
        assert cli.main(["distance", "--mesh", str(mesh_path),
                         "--sites", str(sites_path)]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(math.sqrt(13 / 96), abs=1e-12)

    def test_psi_reuse_skips_solving(self, square_files, tmp_path, capsys):
        mesh_path, sites_path = square_files
        out = tmp_path / "r.json"
        cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                  "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["distance", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--psi", str(out)]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(math.sqrt(13 / 96), abs=1e-12)


class TestDiagram:
    def test_svg_deterministic_and_structured(self, square_files, tmp_path):
        mesh_path, sites_path = square_files
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            assert cli.main(["diagram", "--mesh", str(mesh_path), "--sites", str(sites_path),
                             "--svg", str(out)]) == 0
        data = a.read_text()
        assert a.read_bytes() == b.read_bytes()
        assert data.startswith("<?xml")
        assert '<g id="site-0"' in data and '<g id="site-1"' in data
        assert data.count("<circle") == 2

    def test_psi_roundtrip_reproduces_masses(self, square_files, tmp_path):
        mesh_path, sites_path = square_files
        report_path = tmp_path / "r.json"
        cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                  "--out", str(report_path)])
        cells = tmp_path / "cells.json"
        assert cli.main(["diagram", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--psi", str(report_path), "--svg", str(tmp_path / "d.svg"),
                         "--out", str(cells)]) == 0
        report = json.loads(report_path.read_text())
        rebuilt = json.loads(cells.read_text())
        assert rebuilt["psi"] == report["psi"]
        assert rebuilt["masses"] == report["masses"]  # bit-identical rebuild

    @pytest.mark.parametrize("diagonal", [False, True], ids=["axis", "diagonal"])
    @pytest.mark.parametrize("width", [1e-13, 1e-12])
    def test_mesh_thinner_than_the_merge_tolerance_is_rejected(self, tmp_path, capsys, width,
                                                                 diagonal):
        rows = [f"{x!r} {y!r} 1" for x, y in strip(width, diagonal).tolist()]
        rows += [" ".join(map(str, t)) for t in STRIP_TRIANGLES]
        mesh_path = tmp_path / "strip.dmesh"
        mesh_path.write_text("4 2\n" + "\n".join(rows) + "\n")
        sites_path = tmp_path / "s.csv"
        sites_path.write_text("x,y,nu\n0,0.25,0.5\n0,0.75,0.5\n")
        code = cli.main(["diagram", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--svg", str(tmp_path / "d.svg")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: validation:")


class TestInterpolate:
    def test_non_convergence_exit_code(self, square_files, tmp_path, capsys):
        mesh_path, sites_path = square_files
        out_dir = tmp_path / "frames"
        code = cli.main(["interpolate", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--max-iter", "0", "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == "error: solver: not converged; refusing to interpolate\n"
        assert not out_dir.exists()

    def test_frames_written(self, square_files, tmp_path):
        mesh_path, sites_path = square_files
        report_path = tmp_path / "r.json"
        cli.main(["solve", "--mesh", str(mesh_path), "--sites", str(sites_path),
                  "--out", str(report_path)])
        out_dir = tmp_path / "frames"
        assert cli.main(["interpolate", "--mesh", str(mesh_path), "--sites", str(sites_path),
                         "--psi", str(report_path), "--n", "200", "--times", "0,0.5,1",
                         "--seed", "7", "--out-dir", str(out_dir)]) == 0
        frames = sorted(out_dir.glob("frame_*.csv"))
        assert [f.name for f in frames] == ["frame_0.csv", "frame_1.csv", "frame_2.csv"]
        header, *rows = frames[2].read_text().strip().splitlines()
        assert header == "t,x,y,site"
        assert len(rows) == 200
        sites = domain.load_sites(sites_path, 1.0)
        for row in rows[:20]:
            t, x, y, site = row.split(",")
            assert float(t) == 1.0
            assert [float(x), float(y)] == pytest.approx(
                list(sites.positions[int(site)])
            )


def per_row_frames(frames, out_dir):
    """Reference writer: one f-string per row, 17-digit reals."""
    out_dir.mkdir()
    for idx, frame in enumerate(frames):
        rows = ["t,x,y,site"]
        t = format(float(frame.t), ".17g")
        for (x, y), s in zip(frame.points, frame.source_site):
            rows.append(f"{t},{format(float(x), '.17g')},{format(float(y), '.17g')},{int(s)}")
        (out_dir / f"frame_{idx}.csv").write_text("\n".join(rows) + "\n")


class TestWriteFrames:
    def test_bytes_equal_per_row_formatting(self, tmp_path):
        rng = np.random.default_rng(5)
        points = np.vstack([
            [[-0.0, 0.0], [1e-300, -1e-300], [1e17, -1e17], [0.1, 1 / 3],
             [5e-324, 1.7976931348623157e308], [123456789.0, -2.5]],
            rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-20, 20, (200, 1)),
        ])
        site = rng.integers(0, 10**6, len(points))
        frames = [
            InterpolationFrame(t, points, site) for t in (0.0, 1.0, 0.1, 1 / 3)
        ] + [InterpolationFrame(0.5, np.empty((0, 2)), np.empty(0, dtype=np.int64))]
        paths = cli.write_frames(frames, str(tmp_path / "new"))
        per_row_frames(frames, tmp_path / "old")
        names = [f"frame_{i}.csv" for i in range(len(frames))]
        assert paths == [str(tmp_path / "new" / name) for name in names]
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
        assert (tmp_path / "new" / "frame_4.csv").read_text() == "t,x,y,site\n"


class TestCheck:
    def test_passes(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "check: ok" in out

    def test_failure_exits_through_main(self, capsys, monkeypatch):
        def offset_gradient(mesh, sites, psi, *args, **kwargs):
            return sites.masses + 1.0  # far from the analytic gradient

        monkeypatch.setattr(cli.oracle, "fd_gradient", offset_gradient)
        assert cli.main(["check"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3 and all(line.startswith("check: ") for line in lines)
        assert "check: ok" not in captured.out
        assert captured.err == "error: validation: self-check failed\n"
