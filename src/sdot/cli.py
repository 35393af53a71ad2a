"""Command-line front end.

Subcommands: ``solve``, ``distance``, ``diagram``, ``interpolate``,
``make-mesh`` and ``check``.  All outputs are written atomically (temp file
plus rename) and are byte-identical across runs for identical inputs.
Errors print a single machine-parsable line ``error: <category>: <detail>``
on stderr; exit status is 0 on success, 1 on validation/parse/I-O errors
and 2 on solver failures (including non-convergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import domain, dual, laguerre, oracle, solver, transport
from .domain import _atomic_write
from .errors import FormatError, SdotError, SolverError, ValidationError

# fixed 12-color palette for cell fills
_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
]
SVG_WIDTH = 640  # pixels; the height follows the mesh's aspect ratio


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    """JSON with reals at 17 significant digits, schema order preserved."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _f17(obj)
    return json.dumps(obj)


def emit_report(report: solver.SolveReport, path: str) -> None:
    """Write the solve report JSON (fixed key set, 17-digit reals)."""
    payload = {
        "psi": [float(v) for v in report.psi],
        "masses": [float(v) for v in report.masses],
        "nu": [float(v) for v in report.nu],
        "w2": report.w2,
        "iterations": report.iterations,
        "grad_norm": report.grad_norm,
        "converged": report.converged,
        "trace": [
            {"iter": row.iter, "grad_norm": row.grad_norm, "tau": row.tau, "k_value": row.k_value}
            for row in report.trace
        ],
    }
    _atomic_write(path, _json_text(payload) + "\n")


def load_psi(path: str, n: int) -> np.ndarray:
    """Read weights from a report JSON (``psi`` key) or a bare JSON array."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("psi")
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a psi array or a report with one")
    if any(type(v) not in (int, float) for v in data):  # a bool is no number here
        raise FormatError(f"{path}: psi is not an array of numbers")
    try:
        psi = np.asarray(data, dtype=float)
    except OverflowError as exc:
        raise FormatError(f"{path}: psi entry out of range: {exc}") from None
    if psi.shape != (n,):
        raise ValidationError(f"{path}: psi has {psi.size} entries, expected {n}")
    return psi


def render_svg(diagram: laguerre.LaguerreDiagram, path: str) -> None:
    """Deterministic SVG: one path group per site, sites as small circles."""
    mesh = diagram.mesh
    x0, y0, x1, y1 = mesh.bbox
    margin = 0.02 * max(x1 - x0, y1 - y0)
    vw = (x1 - x0) + 2 * margin
    vh = (y1 - y0) + 2 * margin
    height = max(1, round(SVG_WIDTH * vh / vw))

    def fmt(v: float) -> str:
        return format(v, ".10g")

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{height}" '
        f'viewBox="{fmt(x0 - margin)} {fmt(y0 - margin)} {fmt(vw)} {fmt(vh)}">',
        # flip to the usual y-up orientation
        f'<g transform="translate(0 {fmt(y0 + y1)}) scale(1 -1)">',
    ]
    xy = diagram.xy.tolist()
    b = diagram.frag_bounds().tolist()
    by_site: dict[int, list[str]] = {}
    for f, j in enumerate(diagram.frag_site.tolist()):
        pts = " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in xy[b[f] : b[f + 1]])
        by_site.setdefault(j, []).append(f'<path d="M {pts} Z"/>')
    stroke = fmt(0.001 * mesh.bbox_diameter)
    for j in sorted(by_site):
        color = _PALETTE[(j * 2654435761 % 2**32) % len(_PALETTE)]
        lines.append(
            f'<g id="site-{j}" fill="{color}" stroke="#333333" stroke-width="{stroke}">'
        )
        lines.extend(by_site[j])
        lines.append("</g>")
    r = fmt(0.005 * mesh.bbox_diameter)
    for j, (sx, sy) in enumerate(diagram.sites.positions):
        lines.append(f'<circle cx="{fmt(sx)}" cy="{fmt(sy)}" r="{r}" fill="#000000"/>')
    lines.append("</g>")
    lines.append("</svg>")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_frames(frames, out_dir: str) -> list[str]:
    """Write ``frame_<i>.csv`` per frame: header ``t,x,y,site``, 17-digit reals.

    Each file is formatted in one ``%`` pass over the interleaved x, y and
    site columns.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for idx, frame in enumerate(frames):
        pts = np.asarray(frame.points, dtype=float)
        n = len(pts)
        vals = [None] * (3 * n)
        vals[0::3] = pts[:, 0].tolist()
        vals[1::3] = pts[:, 1].tolist()
        vals[2::3] = np.asarray(frame.source_site).tolist()
        row = _f17(frame.t) + ",%.17g,%.17g,%d\n"
        path = os.path.join(out_dir, f"frame_{idx}.csv")
        _atomic_write(path, "t,x,y,site\n" + (row * n) % tuple(vals))
        paths.append(path)
    return paths


def _solver_options(args) -> solver.SolverOptions:
    return solver.SolverOptions(
        tol=args.tol,
        max_iter=args.max_iter,
        max_halvings=args.max_halvings,
        linear_tol=args.linear_tol,
        verbose=getattr(args, "verbose", False),
    )


def _load_problem(args):
    mesh = domain.load_mesh(args.mesh)
    sites = domain.load_sites(args.sites, mesh.total_mass, normalize=args.normalize)
    return mesh, sites


def _cmd_solve(args) -> int:
    mesh, sites = _load_problem(args)
    report = solver.newton(mesh, sites, _solver_options(args))
    emit_report(report, args.out)
    if args.svg:
        render_svg(report.diagram, args.svg)
    if not report.converged:
        print(
            f"error: solver: not converged after {report.iterations} iterations "
            f"(|g| = {report.grad_norm:.3e})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_distance(args) -> int:
    mesh, sites = _load_problem(args)
    if args.psi:
        psi = load_psi(args.psi, len(sites))
        diagram = laguerre.build(mesh, sites, psi)
        w2 = transport.wasserstein2(diagram, sites)
    else:
        report = solver.newton(mesh, sites, _solver_options(args))
        if args.out:
            emit_report(report, args.out)
        if not report.converged:
            print("error: solver: not converged; no distance reported", file=sys.stderr)
            return 2
        w2 = report.w2
    print(_f17(w2))
    return 0


def _cmd_diagram(args) -> int:
    mesh, sites = _load_problem(args)
    psi = load_psi(args.psi, len(sites)) if args.psi else np.zeros(len(sites))
    diagram = laguerre.build(mesh, sites, psi)
    render_svg(diagram, args.svg)
    if args.out:
        payload = {
            "psi": [float(v) for v in psi],
            "masses": [float(v) for v in diagram.masses],
        }
        _atomic_write(args.out, _json_text(payload) + "\n")
    return 0


def _cmd_interpolate(args) -> int:
    mesh, sites = _load_problem(args)
    if args.psi:
        psi = load_psi(args.psi, len(sites))
    else:
        report = solver.newton(mesh, sites, _solver_options(args))
        if not report.converged:
            print("error: solver: not converged; refusing to interpolate", file=sys.stderr)
            return 2
        psi = report.psi
    try:
        times = [float(s) for s in args.times.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"--times: {exc}") from None
    frames = transport.interpolate(mesh, sites, psi, args.n, times, args.seed)
    write_frames(frames, args.out_dir)
    return 0


def _cmd_make_mesh(args) -> int:
    domain.save_mesh(domain.square_mesh(args.square, args.density), args.out)
    return 0


def _cmd_check(args) -> int:
    """Self-diagnostic on a built-in instance: derivatives and mass budget."""
    mesh = domain.square_mesh(2, "const:1")
    rng = np.random.default_rng(20240611)
    positions = 0.1 + 0.8 * rng.random((6, 2))
    nu = 0.5 + rng.random(6)
    sites = domain.make_sites(positions, nu, mesh.total_mass, normalize=True)
    psi = 0.05 * (rng.random(6) - 0.5)

    diagram = laguerre.build(mesh, sites, psi)
    ok = True

    g = dual.gradient(diagram, sites)
    fd = oracle.fd_gradient(mesh, sites, psi, h=1e-6)
    err = float(np.abs(g - fd).max())
    ok &= err <= 1e-5
    print(f"check: finite-difference gradient max error {err:.3e} (limit 1e-05)")

    p, q = diagram.xy, diagram.xy[diagram.nxt]  # shoelace over every edge, by triangle
    cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
    per_tri = 0.5 * np.bincount(diagram.frag_tri[diagram.frag], cross, len(mesh.triangles))
    rel = float(np.abs(per_tri - mesh.tri_areas).max() / mesh.tri_areas.max())
    ok &= rel <= 1e-10
    print(f"check: per-triangle area partition max relative error {rel:.3e} (limit 1e-10)")

    mass_rel = abs(float(diagram.masses.sum()) - mesh.total_mass) / mesh.total_mass
    ok &= mass_rel <= 1e-10
    print(f"check: total mass conservation relative error {mass_rel:.3e} (limit 1e-10)")

    if not ok:
        print("error: validation: self-check failed", file=sys.stderr)
        return 1
    print("check: ok")
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=solver.SolverOptions.tol,
                   help="gradient sup-norm tolerance relative to total mass")
    p.add_argument("--max-iter", type=int, default=solver.SolverOptions.max_iter)
    p.add_argument("--max-halvings", type=int, default=solver.SolverOptions.max_halvings)
    p.add_argument("--linear-tol", type=float, default=solver.SolverOptions.linear_tol)


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", required=True, help="mesh file (.dmesh)")
    p.add_argument("--sites", required=True, help="sites CSV (x,y,nu)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale site masses to match the mesh mass")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdot",
        description="Semi-discrete optimal transport on planar triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve for the optimal weights")
    _add_problem_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--svg", help="optionally render the optimal diagram")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("distance", help="print the Wasserstein-2 distance")
    _add_problem_flags(p)
    _add_solver_flags(p)
    p.add_argument("--psi", help="reuse weights from a report JSON (skips solving)")
    p.add_argument("--out", help="also write the report JSON when solving")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("diagram", help="render a Laguerre diagram as SVG")
    _add_problem_flags(p)
    p.add_argument("--psi", help="weights JSON (default: zero weights, Voronoi)")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.add_argument("--out", help="also write psi and cell masses as JSON")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("interpolate", help="emit displacement-interpolation frames")
    _add_problem_flags(p)
    _add_solver_flags(p)
    p.add_argument("--psi", help="weights JSON (solved internally when omitted)")
    p.add_argument("--n", type=int, default=1000, help="sample count")
    p.add_argument("--times", default="0,0.5,1", help="comma-separated times in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True, help="directory for frame_<i>.csv files")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("make-mesh", help="generate a unit-square mesh file")
    p.add_argument("--square", type=int, required=True, metavar="N",
                   help="grid resolution (2*N*N triangles)")
    p.add_argument("--density", default="const:1",
                   help="const:<c>, linear-x or linear-y")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_mesh)

    p = sub.add_parser("check", help="run built-in diagnostics")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2
    except SdotError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
