"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --runs 10 --first-seed 1
    python3 bench/spread.py --workloads cantilever-cli --runs 5

Runs `bench/run.py` once per seed for each workload, one run at a time,
and prints each run's metrics beside a fixed CPU probe taken just before
it, then per metric the median, the quartiles (`statistics.quantiles`,
n=4) and the inter-quartile range as a share of the median, beside the
metric's bound from BENCHMARK.json. The probe (a fixed batch of small
NumPy/LAPACK solves, like the per-node work of an operator build) shows
how fast the host was at the time: its drift bounds how steady any time
here can be.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_probe() -> float:
    """Seconds for 20,000 solves of one fixed 10 x 10 SPD system."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((10, 10))
    a = m @ m.T + 10 * np.eye(10)
    b = rng.standard_normal(10)
    t0 = time.perf_counter()
    for _ in range(20_000):
        np.linalg.solve(a, b)
    return time.perf_counter() - t0


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)

    saved = {}
    all_ok = True
    for workload in args.workloads.split(","):
        rows = []
        print(f"== {workload}: {args.runs} runs of {args.seconds} s")
        for r in range(args.runs):
            seed = args.first_seed + r
            probe = cpu_probe()
            result, wall = one_run(workload, seed, args.seconds)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            rows.append(dict(seed=seed, probe=probe, wall=wall, **result, values=values))
            shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
            print(
                f"seed {seed:4d} probe {probe * 1e3:7.1f} ms wall {wall:5.1f} s "
                f"attempted {result['attempted']} failed {result['failed']} "
                f"correct {result['correct']} {shown}",
                flush=True,
            )
        print(f"{'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name in rows[0]["values"]:
            vals = [row["values"][name] for row in rows]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med
            ok = name == "setup_s" or share <= bounds[name] / 3
            all_ok &= ok
            print(
                f"{name:<12} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3%} "
                f"{bounds[name]:6.2f} {'' if ok else '  above a third of the bound'}"
            )
        probes = [row["probe"] for row in rows]
        q1, _, q3 = statistics.quantiles(probes, n=4)
        print(f"{'cpu probe':<12} {statistics.median(probes):12.6g} {q1:12.6g} {q3:12.6g}")
        shares = {row["failed"] / row["attempted"] for row in rows}
        print(f"failed share per run: {sorted(shares)}")
        saved[workload] = rows
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
