"""Regenerate the reference figures in README.md.

    python3 perfbench/figures.py [--runs 10] [--workload NAME ...]

For each workload: ``--runs`` untraced runs with seeds 1..runs, one traced
run with seed 1, all for the ``run_seconds`` of BENCHMARK.json, one at a
time. Prints, per end-to-end metric, the median, the distance between the
first and third quartiles as a share of the median (the spread each bound
is set against), the bound, and the median wall-clock twin; then the
traced run's throughput and the tracing overhead it implies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a check failed\n{proc.stderr}")
    twins = next((json.loads(x.split(":", 1)[1]) for x in lines if x.startswith("wall-clock twins:")), {})
    return result, twins


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        walls: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            result, twins = run(workload, seed, seconds, 0)
            shares.add((result["failed"], result["attempted"]))
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            for k, v in twins.items():
                walls.setdefault(k, []).append(v)
        traced, _ = run(workload, 1, seconds, 1)
        print(f"\n{workload}: {args.runs} runs of {seconds} s; failed/attempted per run: "
              + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
        print("| metric | median | spread | bound | wall-clock twin |")
        print("| --- | --- | --- | --- | --- |")
        for k, v in values.items():
            twin = f"{statistics.median(walls[k]):.4g}" if k in walls else "-"
            print(f"| {k} | {statistics.median(v):.6g} | {spread(v):.3f} | {bounds[k]} | {twin} |")
        traced_rate = traced["metrics"]["trace.items_per_s"]["value"]
        untraced = statistics.median(values["items_per_s"])
        print(f"traced items_per_s {traced_rate:.6g}: tracing costs {100 * (1 - traced_rate / untraced):.1f}% "
              "of untraced throughput\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
