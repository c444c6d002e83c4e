"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload plate-loadcases --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; `dcpse` is imported from the checkout's
`src/`, and the command fails when that package is missing. Each run sets
the workload up several times (each time a fresh interpreter imports
`dcpse`, then the workload builds its inputs) and reports the median, runs
the workload's property operations once, then repeats the timed operation
until `--seconds` have passed, checking every output.

`--trace 0` prints the end-to-end metrics (setup_s, solution_s,
peak_rss_mb, nrmse_max). `--trace 1` spends half the time untraced and half
with spans around the calls into each `dcpse` module, then times one
single-thread operator build, and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

The program runs with its default thread count: `--threads` is never
passed and DCPSE_THREADS is cleared.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "solution_s": "s", "peak_rss_mb": "MiB", "nrmse_max": "1"}


def import_dcpse():
    if not (SRC / "dcpse" / "__init__.py").is_file():
        raise SystemExit(f"error: no dcpse package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import dcpse

    if Path(dcpse.__file__).resolve().parent != (SRC / "dcpse").resolve():
        raise SystemExit(f"error: imported dcpse from {dcpse.__file__}, not {SRC}")
    return dcpse


def time_import() -> float:
    """Wall time of a fresh interpreter that imports dcpse from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dcpse"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def resolved_threads(dcpse) -> int:
    """The thread count a build uses when none is given."""
    resolve = getattr(dcpse.operators, "_resolve_threads", None)
    return int(resolve(None)) if resolve is not None else int(os.cpu_count() or 1)


class Run:
    """Counts and samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.errors: list[float] = []
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems))


def measure(wl, state, run: Run, seconds: float, first: int, tracer=None) -> int:
    """Repeat the timed operation for `seconds`; returns the next index."""
    i = first
    deadline = time.perf_counter() + seconds
    while True:
        case = wl.prepare(state, i)
        if tracer is not None:
            tracer.new_group()
        try:
            t0 = time.perf_counter()
            output = wl.run(state, case)
            elapsed = time.perf_counter() - t0
            problems, err = wl.check(state, case, output)
        except Exception:  # an operation that raises counts as failed
            problems, err, elapsed = [traceback.format_exc(limit=3)], None, None
        run.record(f"operation {i}", problems)
        if not problems:
            run.times.append(elapsed)
            run.errors.append(err)
        i += 1
        if time.perf_counter() >= deadline:
            return i


def property_ops(wl, state, run: Run) -> None:
    for label, op in wl.property_ops(state):
        try:
            problems = op()
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        run.record(label, problems)


def setup(wl, seed: int, out: Path, tracer=None):
    totals, imports = [], []
    state = None
    for _ in range(SETUP_REPS):
        t_import = time_import()
        if tracer is not None:
            tracer.new_group()
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = wl.setup(seed, out)
            t_setup = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        imports.append(t_import)
        totals.append(t_import + t_setup)
    return state, statistics.median(totals), statistics.median(imports)


def end_to_end(wl, seed: int, seconds: float, out: Path) -> tuple[Run, dict]:
    state, setup_s, _ = setup(wl, seed, out)
    run = Run()
    property_ops(wl, state, run)
    measure(wl, state, run, seconds, 0)
    if not run.times:
        return run, {}
    values = {
        "setup_s": setup_s,
        "solution_s": statistics.median(run.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nrmse_max": max(run.errors),
    }
    return run, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(wl, dcpse, seed: int, seconds: float, out: Path) -> tuple[Run, dict]:
    from tracing import Tracer, median_of

    tracer = Tracer()
    state, _, import_s = setup(wl, seed, out, tracer)
    run = Run()
    property_ops(wl, state, run)
    nxt = measure(wl, state, run, seconds / 2, 0)
    n_plain = len(run.times)
    tracer.install()
    try:
        measure(wl, state, run, seconds / 2, nxt, tracer)
    finally:
        tracer.uninstall()
    if not 0 < n_plain < len(run.times):
        return run, {}
    plain = statistics.median(run.times[:n_plain])
    with_spans = statistics.median(run.times[n_plain:])
    tracer.require(wl.expected_spans)

    one_thread = 0.0
    for cloud in wl.reference_clouds(state):
        index = dcpse.cloud.build_index(cloud)
        t0 = time.perf_counter()
        dcpse.operators.gradient_operator(cloud, index, threads=1)
        one_thread += time.perf_counter() - t0

    groups = tracer.per_group(range(1, tracer.group + 1))

    def span(*names, scale=1.0):
        def fn(g):
            found = [g[n] for n in names if n in g]
            return scale * sum(found) if found else None

        return fn

    def count(name):
        return lambda g: g.get("count:" + name)

    def ratio(num, den, scale=1.0):
        def fn(g):
            a, b = num(g), den(g)
            return scale * a / b if a is not None and b else None

        return fn

    build = span("operators.gradient_operator")
    apply_calls = [c for g in groups.values() for c in g["apply"]]
    metrics = {
        "cli.self_s": ("s", median_of(groups, span("cli.main"))),
        "io_formats.read_csv_s": ("s", median_of(groups, span("io_formats.read_points_csv"))),
        "io_formats.write_csv_s": ("s", median_of(groups, span("io_formats.write_field_csv"))),
        "io_formats.write_report_s": ("s", median_of(groups, span("io_formats.write_report"))),
        "io_formats.bytes_read": ("B", median_of(groups, count("bytes_read"))),
        "io_formats.bytes_written": ("B", median_of(groups, count("bytes_written"))),
        "cloud.build_index_s": ("s", median_of(groups, span("cloud.build_index"))),
        "operators.build_s": ("s", median_of(groups, build)),
        "operators.build_us_per_node": ("us", median_of(groups, ratio(build, count("nodes"), 1e6))),
        "operators.build_1thread_s": ("s", one_thread),
        "operators.threads": ("count", resolved_threads(dcpse)),
        "operators.nodes": ("count", median_of(groups, count("nodes"))),
        "operators.regrown_nodes": ("count", median_of(groups, count("regrown_nodes"))),
        "operators.growth_steps": ("count", median_of(groups, count("growth_steps"))),
        "operators.moment_systems": ("count", median_of(groups, count("moment_systems"))),
        "operators.solve_yield": ("1", median_of(groups, ratio(count("nodes"), count("moment_systems")))),
        "operators.stencil_nnz": ("count", median_of(groups, count("stencil_nnz"))),
        "operators.store_bytes": ("B", median_of(groups, count("store_bytes"))),
        "operators.apply_us": ("us", 1e6 * statistics.median(c[0] for c in apply_calls) if apply_calls else 0.0),
        "operators.apply_bytes": ("B", statistics.median(c[1] for c in apply_calls) if apply_calls else 0.0),
        "operators.verify_s": ("s", median_of(groups, span("operators.verify_moments"))),
        "operators.verify_us_per_node": ("us", median_of(
            groups, ratio(span("operators.verify_moments"), count("verified_nodes"), 1e6))),
        "elasticity.gradient_ms": ("ms", median_of(groups, span("elasticity.displacement_gradient", scale=1e3))),
        "elasticity.stress_ms": ("ms", median_of(groups, span(
            "elasticity.strain_from_gradient", "elasticity.stress_from_strain",
            "elasticity.plane_strain_embed", scale=1e3))),
        "elasticity.invariants_ms": ("ms", median_of(groups, span(
            "elasticity.von_mises", "elasticity.principal_stresses", scale=1e3))),
        "benchmarks.generate_nodes_s": ("s", median_of(groups, span("benchmarks.generate_nodes"))),
        "benchmarks.exact_s": ("s", median_of(groups, span("benchmarks.exact"))),
        "benchmarks.evaluate_level_s": ("s", median_of(groups, span("benchmarks.evaluate_level"))),
        "setup.import_s": ("s", import_s),
        "trace.overhead_s": ("s", with_spans - plain),
    }
    return run, {k: {"value": float(v), "unit": u} for k, (u, v) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("DCPSE_THREADS", None)
    dcpse = import_dcpse()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir()
    try:
        if args.trace:
            run, metrics = traced(wl, dcpse, args.seed, args.seconds, out)
        else:
            run, metrics = end_to_end(wl, args.seed, args.seconds, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in run.problems:
        print(f"FAILED {line}", file=sys.stderr)
    if not metrics:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print(
        f"{wl.name}: seed {args.seed}, {resolved_threads(dcpse)} thread(s), "
        f"{len(run.times)} timed operation(s), {run.attempted} attempted, {run.failed} failed"
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
