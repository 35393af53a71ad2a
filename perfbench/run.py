"""Benchmark of sdot's solve, distance and interpolate paths, timed in-process.

    python3 perfbench/run.py --workload many-sites --seed 1 --seconds 25 --trace 0

Each invocation runs one workload in its own single-threaded process.  It
writes the workload's input files from ``--seed``, loads them with the
functions the ``sdot`` subcommands use, and repeats whole rounds (fresh
load, then the command's work up to its last output file) until
``--seconds`` of timed work have passed.  Every round's outputs are checked
by ``verify.py``, outside the timed sections.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(rounds), and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ``setup_s``, ``run_s``
(medians over rounds) and ``peak_rss_mb``.  With ``--trace 1`` traced and
untraced rounds alternate; spans around the program's module-level entry
points give per-layer self times and counts for the median traced round,
a separate pass measures tracemalloc peaks, and the spans are written to
``perfbench/_work/<workload>/trace.json``.  See README.md.
"""

from __future__ import annotations

import os

# One thread in every numerical library; must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import verify  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name: (generator tag, k for k * k sites, mesh resolution, density)
WORKLOADS = {
    "many-sites": (1, 32, 1, "const"),
    "fine-mesh": (2, 8, 64, "linear-x"),
    "post-solve": (3, 17, 4, "linear-x"),
}
POST_POINTS = 200_000
POST_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
# extra loads timed before every round but the first, for a steady setup_s
SETUP_REPS = 10
SETUP_MIN_S = 0.2


def import_sdot():
    """Import ``sdot`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sdot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sdot package under {src}")
    sys.path.insert(0, str(src))
    import sdot
    import sdot.cli

    if Path(sdot.__file__).resolve().parent != src / "sdot":
        sys.exit(f"perfbench: imported sdot from {sdot.__file__}, not from {src}")
    return sdot


class Workload:
    """One workload's inputs, its load step, its timed work and its checks."""

    def __init__(self, sdot, name: str, seed: int):
        tag, k, resolution, density = WORKLOADS[name]
        self.sdot = sdot
        self.name = name
        self.workdir = HERE / "_work" / name
        rng = inputs.rng_for(seed, tag)
        self.solve = name != "post-solve"
        self.problem = inputs.make_problem(self.workdir, rng, k, resolution, density)
        self.tol = sdot.solver.SolverOptions().tol
        self.report_path = self.workdir / "report.json"
        self.psi_path = self.workdir / "psi.json"
        self.frames_dir = self.workdir / "frames"
        self.sample_seed = int(rng.integers(2**31))
        self.w2 = None
        self.frame_paths: list[str] = []

    def setup(self):
        """Read and validate the input files, as the CLI's loaders and ``--psi`` do."""
        domain = self.sdot.domain
        mesh = domain.load_mesh(str(self.problem.mesh_path))
        sites = domain.load_sites(str(self.problem.sites_path), mesh.total_mass)
        if self.solve:
            return mesh, sites, None
        return mesh, sites, self.sdot.cli.load_psi(str(self.psi_path), len(sites))

    def run(self, loaded) -> None:
        """``sdot solve``, or ``sdot distance --psi`` then ``sdot interpolate --psi``."""
        mesh, sites, psi = loaded
        sdot = self.sdot
        if self.solve:
            report = sdot.solver.newton(mesh, sites)
            sdot.cli.emit_report(report, str(self.report_path))
            if not report.converged:
                raise sdot.SolverError(f"not converged after {report.iterations} iterations")
            return
        diagram = sdot.laguerre.build(mesh, sites, psi)
        self.w2 = sdot.transport.wasserstein2(diagram, sites)
        frames = sdot.transport.interpolate(
            mesh, sites, psi, POST_POINTS, POST_TIMES, self.sample_seed
        )
        self.frame_paths = sdot.cli.write_frames(frames, str(self.frames_dir))

    def check(self) -> list[str]:
        if self.solve:
            return verify.check_report(self.problem, self.report_path, self.tol)
        p = self.problem
        return verify.check_solution(p, p.psi, self.w2, self.tol) + verify.check_frames(
            p, p.psi, POST_TIMES, self.frame_paths, POST_POINTS
        )

    def output_bytes(self) -> int:
        paths = [self.report_path] if self.solve else self.frame_paths
        return sum(os.path.getsize(p) for p in paths)

    def memory_pass(self) -> dict[str, float]:
        """tracemalloc peaks above the entry level, in a pass of their own."""
        sdot = self.sdot
        tracemalloc.start()
        try:
            peaks = {}

            def peak(fn, *args):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = fn(*args)
                peaks_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                return result, peaks_mb

            mesh = sdot.domain.load_mesh(str(self.problem.mesh_path))
            sites, peaks["domain.load_sites_peak_mb"] = peak(
                sdot.domain.load_sites, str(self.problem.sites_path), mesh.total_mass
            )
            psi = np.zeros(len(sites)) if self.solve else self.problem.psi
            _, peaks["laguerre.first_build_peak_mb"] = peak(sdot.laguerre.build, mesh, sites, psi)
            if self.solve:
                peaks["laguerre.assign_peak_mb"] = 0.0
            else:
                points = sdot.domain.sample(mesh, POST_POINTS, self.sample_seed)
                _, peaks["laguerre.assign_peak_mb"] = peak(
                    sdot.laguerre.assign, points, sites, psi
                )
            return peaks
        finally:
            tracemalloc.stop()


class Round:
    """Outcome of one round: load time, run time, or the reason it failed."""

    def __init__(self, workload: Workload, tracer: Tracer | None = None):
        gc.collect()
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        self.problems: list[str] = []
        self.error = None
        try:
            t0 = time.perf_counter()
            with span("setup") as self.setup_span:
                loaded = workload.setup()
            t1 = time.perf_counter()
            try:
                with span("run") as self.run_span:
                    workload.run(loaded)
            except workload.sdot.SdotError as exc:
                self.error = f"{type(exc).__name__}: {exc}"
            t2 = time.perf_counter()
        finally:
            if tracer:
                tracer.restore()
        del loaded
        self.setup_s = t1 - t0
        self.run_s = t2 - t1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.error is None:
            self.problems = workload.check()
            self.bytes_written = workload.output_bytes()

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def report(self, label: str) -> None:
        status = self.error or ("; ".join(self.problems) if self.problems else "ok")
        print(f"{label}: setup {self.setup_s:.4f} s  run {self.run_s:.4f} s  {status}", flush=True)


class LayerStats:
    """Counts gathered from hooked results during one traced round."""

    def __init__(self):
        self.cells = self.applied = self.useful = self.clip_calls = 0
        self.fragments = self.interfaces = self.hessian_nnz = self.lu_fill = 0
        self.newton_iters = 0

    def on_clip_cell(self, result) -> None:
        poly, labels, applied = result
        self.cells += 1
        self.applied += len(applied)
        self.useful += len({k for k in labels if k >= 0})

    def on_build(self, diagram) -> None:
        self.fragments = len(diagram.fragments)
        self.interfaces = len(diagram.interfaces)

    def on_clip(self, _result) -> None:
        self.clip_calls += 1

    def on_hessian(self, h) -> None:
        self.hessian_nnz = len(h.pairs)

    def on_splu(self, lu) -> None:
        self.lu_fill = int(lu.L.nnz + lu.U.nnz)

    def on_newton(self, report) -> None:
        self.newton_iters = report.iterations


# (module, attribute, span name); a span's self time is reported as
# "<span name>_s", except that the self time of a build is the restriction
SPANNED = [
    ("domain", "load_mesh", "domain.load_mesh"),
    ("domain", "load_sites", "domain.load_sites"),
    ("cli", "load_psi", "cli.load_psi"),
    ("domain", "sample", "domain.sample"),
    ("laguerre", "build", "laguerre.build"),
    ("laguerre", "_clip_cell", "laguerre.clip"),
    ("laguerre", "_relabel_boundary_edges", "laguerre.relabel"),
    ("laguerre", "assign", "laguerre.assign"),
    ("dual", "hessian", "dual.hessian"),
    ("dual", "value", "dual.value"),
    ("dual", "transport_cost", "dual.transport_cost"),
    ("solver", "newton", "solver.newton"),
    ("solver", "solve_gauge_fixed", "solver.linear_solve"),
    ("transport", "wasserstein2", "transport.wasserstein2"),
    ("transport", "interpolate", "transport.interpolate"),
    ("cli", "emit_report", "cli.emit_report"),
    ("cli", "write_frames", "cli.write_frames"),
]
SELF_TIME_METRIC = {"laguerre.build": "laguerre.restrict_s"}


def install(sdot, tracer: Tracer, stats: LayerStats) -> set[str]:
    """Hook every layer entry point; returns the names of the hooks in place."""
    on_result = {
        "laguerre.build": stats.on_build,
        "laguerre.clip": stats.on_clip_cell,
        "dual.hessian": stats.on_hessian,
        "solver.newton": stats.on_newton,
    }
    hooked = set()
    for module, attr, name in SPANNED:
        if tracer.wrap(getattr(sdot, module), attr, name, on_result.get(name)):
            hooked.add(name)
    if tracer.tap(sdot.laguerre, "clip_labeled", stats.on_clip):
        hooked.add("geom.clip_labeled")
    if tracer.tap(sdot.solver, "splu", stats.on_splu):
        hooked.add("solver.splu")
    return hooked


def layer_metrics(tracer: Tracer, rnd: Round, stats: LayerStats, hooked: set[str]) -> dict:
    """Per-layer metrics of one traced round; a time is a self time.

    A metric whose hook is missing (the helper was removed) is left out.
    """
    own = tracer.self_times(rnd.run_span)
    own.update(tracer.self_times(rnd.setup_span))  # the two subtrees share no hook
    m = {
        SELF_TIME_METRIC.get(name, name + "_s"): own.get(name, 0.0)
        for _, _, name in SPANNED
        if name in hooked
    }
    run = rnd.run_span
    steps = tracer.count("laguerre.build", run, within="solver.newton") - 1
    m.update({
        "laguerre.builds": tracer.count("laguerre.build", run),
        "laguerre.build_s": sum(e - s for n, s, e, _ in tracer.spans if n == "laguerre.build"),
        "laguerre.fragments": stats.fragments,
        "laguerre.interfaces": stats.interfaces,
        "dual.hessian_nnz": stats.hessian_nnz,
        "solver.newton_iters": stats.newton_iters,
        "solver.halvings": max(steps - stats.newton_iters, 0),
        "solver.accepted_step_ratio": stats.newton_iters / steps if steps > 0 else 0.0,
        "cli.bytes_written": rnd.bytes_written,
        "trace.run_s": tracer.duration(run),
        "trace.unattributed_s": own["run"],
    })
    if "laguerre.clip" in hooked:
        m["laguerre.clips_per_cell"] = stats.applied / stats.cells if stats.cells else 0.0
        m["laguerre.useful_clip_ratio"] = stats.useful / stats.applied if stats.applied else 0.0
    if "geom.clip_labeled" in hooked:
        m["geom.clip_calls"] = stats.clip_calls
    if "solver.splu" in hooked:
        m["solver.lu_fill"] = stats.lu_fill
    return m


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def time_setups(workload: Workload) -> list[float]:
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        loaded = workload.setup()
        times.append(time.perf_counter() - t0)
        del loaded
    return times


def measure(workload: Workload, seconds: float):
    """Untraced pass: steady setup_s, run_s over whole rounds, peak RSS.

    The peak RSS is read after the first round, when the process has done
    what one ``sdot`` command does (plus writing its inputs), so that later
    rounds' heap growth does not enter it.
    """
    setup_times: list[float] = []
    rounds: list[Round] = []
    while not rounds or sum(r.setup_s + r.run_s for r in rounds) < seconds:
        if rounds:
            setup_times += time_setups(workload)
        rounds.append(Round(workload))
        rounds[-1].report(f"round {len(rounds)}")
    ok = [r for r in rounds if not r.failed]
    setup_times += [r.setup_s for r in rounds]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median([r.run_s for r in ok]) if ok else None,
        "peak_rss_mb": rounds[0].peak_rss_mb,
    }
    return rounds, metrics


def measure_traced(workload: Workload, seconds: float, seed: int):
    """Traced pass: untraced and traced rounds alternate, then a memory pass."""
    plain: list[Round] = []
    traced: list[tuple[Round, Tracer, LayerStats, set[str]]] = []
    elapsed = 0.0
    while elapsed < seconds or not plain or not traced:
        if len(plain) <= len(traced):
            rnd = Round(workload)
            plain.append(rnd)
            rnd.report(f"untraced round {len(plain)}")
        else:
            tracer, stats = Tracer(), LayerStats()
            hooked = install(workload.sdot, tracer, stats)
            rnd = Round(workload, tracer)
            traced.append((rnd, tracer, stats, hooked))
            rnd.report(f"traced round {len(traced)}")
        elapsed += rnd.setup_s + rnd.run_s
    rounds = plain + [t[0] for t in traced]
    good = sorted((t for t in traced if not t[0].failed), key=lambda t: t[0].run_s)
    good_plain = [r.run_s for r in plain if not r.failed]
    if not good or not good_plain:
        return rounds, None
    rnd, tracer, stats, hooked = good[(len(good) - 1) // 2]
    metrics = layer_metrics(tracer, rnd, stats, hooked)
    metrics["trace.overhead_s"] = (
        statistics.median([t[0].run_s for t in good]) - statistics.median(good_plain)
    )
    metrics.update(workload.memory_pass())
    start = tracer.spans[rnd.setup_span][1]
    trace_path = workload.workdir / "trace.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, s - start, e - start, p] for n, s, e, p in tracer.spans],
                "metrics": metrics,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sdot = import_sdot()
    workload = Workload(sdot, args.workload, args.seed)
    if args.trace:
        rounds, metrics = measure_traced(workload, args.seconds, args.seed)
    else:
        rounds, metrics = measure(workload, args.seconds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not any(r.problems for r in rounds),
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in (metrics or {}).items()
            if value is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
