"""Tests of the benchmark's generator and output checks.

    python3 -m pytest -q perfbench/test_perfbench.py

They show that the checks accept the program's outputs on small inputs and
reject wrong ones, and that the generator is a function of its seed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import inputs
import run
import verify

sdot = run.import_sdot()
TOL = sdot.solver.SolverOptions().tol


def small_problem(path, seed=5, k=5, density="linear-x"):
    return inputs.make_problem(path, inputs.rng_for(seed, 9), k, 2, density)


def load(problem):
    mesh = sdot.domain.load_mesh(str(problem.mesh_path))
    sites = sdot.domain.load_sites(str(problem.sites_path), mesh.total_mass)
    return mesh, sites


def test_generator_is_a_function_of_the_seed(tmp_path):
    files = ("mesh.dmesh", "sites.csv", "psi.json")
    a = small_problem(tmp_path / "a", seed=3)
    b = small_problem(tmp_path / "b", seed=3)
    c = small_problem(tmp_path / "c", seed=4)
    def read(d, name):
        return (tmp_path / d / name).read_bytes()

    for name in files:
        assert read("a", name) == read("b", name)
    assert read("a", "sites.csv") != read("c", "sites.csv")
    assert np.array_equal(a.positions, b.positions) and not np.array_equal(a.nu, c.nu)


@pytest.mark.parametrize("density", sorted(inputs.DENSITIES))
def test_generated_weights_are_optimal_for_the_program(tmp_path, density):
    problem = small_problem(tmp_path, density=density)
    mesh, sites = load(problem)
    psi = sdot.cli.load_psi(str(tmp_path / "psi.json"), len(sites))
    masses = sdot.laguerre.build(mesh, sites, psi).masses
    assert np.abs(masses - problem.nu).max() <= 1e-13
    assert problem.nu.min() > 0.0


def test_solve_check_accepts_a_report_and_rejects_moved_weights(tmp_path):
    problem = small_problem(tmp_path)
    report = sdot.solver.newton(*load(problem))
    path = tmp_path / "report.json"
    sdot.cli.emit_report(report, str(path))
    assert verify.check_report(problem, path, TOL) == []

    data = json.loads(path.read_text())
    data["psi"][0] += 1e-6
    path.write_text(json.dumps(data))
    problems = verify.check_report(problem, path, TOL)
    assert any("prescribed" in p for p in problems)


def test_solve_check_rejects_a_wrong_distance(tmp_path):
    problem = small_problem(tmp_path)
    mesh, sites = load(problem)
    diagram = sdot.laguerre.build(mesh, sites, problem.psi)
    w2 = sdot.transport.wasserstein2(diagram, sites)
    assert verify.check_solution(problem, problem.psi, w2, TOL) == []
    problems = verify.check_solution(problem, problem.psi, w2 * (1 + 1e-6), TOL)
    assert any("w2" in p for p in problems)


TIMES = (0.0, 0.5, 1.0)


def frames_for(problem, tmp_path, psi, n=4000):
    mesh, sites = load(problem)
    frames = sdot.transport.interpolate(mesh, sites, psi, n, TIMES, 11)
    return sdot.cli.write_frames(frames, str(tmp_path / "frames"))


def test_frame_check_rejects_a_row_on_another_site(tmp_path):
    problem = small_problem(tmp_path)
    paths = frames_for(problem, tmp_path, problem.psi)
    assert verify.check_frames(problem, problem.psi, TIMES, paths, 4000) == []

    lines = open(paths[0]).read().splitlines()
    row = lines[1].split(",")
    row[3] = str((int(row[3]) + 1) % len(problem.nu))
    lines[1] = ",".join(row)
    open(paths[0], "w").write("\n".join(lines) + "\n")
    problems = verify.check_frames(problem, problem.psi, TIMES, paths, 4000)
    assert any("wrong site" in p for p in problems)


def test_frame_check_rejects_a_point_off_its_segment(tmp_path):
    problem = small_problem(tmp_path)
    paths = frames_for(problem, tmp_path, problem.psi)
    frame = verify.read_frame(paths[1])
    frame[7, 1] += 1e-6
    rows = ["t,x,y,site"] + [f"{t!r},{x!r},{y!r},{int(s)}" for t, x, y, s in frame.tolist()]
    open(paths[1], "w").write("\n".join(rows) + "\n")
    problems = verify.check_frames(problem, problem.psi, TIMES, paths, 4000)
    assert any("off its segment" in p for p in problems)


def test_frame_check_rejects_weights_moved_off_the_optimum(tmp_path):
    problem = small_problem(tmp_path)
    moved = problem.psi.copy()
    moved[12] += 0.04  # the centre cell of the 5 x 5 grid grows
    paths = frames_for(problem, tmp_path, moved)
    problems = verify.check_frames(problem, moved, TIMES, paths, 4000)
    assert any("sigma" in p for p in problems)
    assert any("prescribed" in p for p in verify.check_solution(problem, moved, 0.0, TOL))
