"""Record a before/after benchmark comparison as BENCH_<n>.json.

    python3 scripts/bench_record.py --parent DIR --change DIR \\
        --seed SEED --out BENCH_<n>.json

DIR is the root of a checkout; each side runs its own perfbench/run.py
from its root, so both sides use the benchmark code of their checkout.
The workloads, the run length and the end-to-end metrics are those the
change side's BENCHMARK.json declares. For every workload, pair k (of
PAIRS) runs the parent and the change untraced for the declared
run_seconds with seed SEED + k, alternating which side runs first. Then
TRACE_PAIRS traced pairs (--trace 1) run with TRACE_SEED, again alternating
which side runs first, so that one run's host noise does not decide a
per-layer comparison. The file records the machine, the Python version,
every run's end-to-end metrics, the median and quartiles per side, how
many pairs the change won (by each metric's declared `better` direction),
and each side's per-layer metrics as the median over its traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
TRACE_PAIRS = 5
TRACE_SEED = 101


def run_bench(root: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The last stdout line of one perfbench/run.py run, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def first_side(k: int) -> tuple[str, str]:
    """The order in which pair k runs the two sides."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def medians(runs: list) -> dict:
    """Each metric's median over runs that report the same metrics."""
    return {name: statistics.median(run[name] for run in runs)
            for name in runs[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    record = {
        "machine": {"system": platform.platform(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for k in range(PAIRS):
            seed = args.seed + k
            pair = {"seed": seed, "first": first_side(k)[0]}
            for side in first_side(k):
                res = run_bench(sides[side], workload, seed, seconds, 0)
                pair[side] = {"correct": res["correct"],
                              "attempted": res["attempted"],
                              "failed": res["failed"], **res["metrics"]}
            print(workload, json.dumps(pair), file=sys.stderr, flush=True)
            pairs.append(pair)
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sign = 1 if metric["better"] == "higher" else -1
            summary[name] = {
                side: spread([p[side][name] for p in pairs])
                for side in sides}
            summary[name]["change_wins"] = sum(
                sign * (p["change"][name] - p["parent"][name]) > 0
                for p in pairs)
            summary[name]["pairs"] = len(pairs)
        traced = {side: [] for side in sides}
        for k in range(TRACE_PAIRS):
            for side in first_side(k):
                traced[side].append(run_bench(sides[side], workload,
                                              TRACE_SEED, seconds, 1)
                                    ["metrics"])
        record["workloads"][workload] = {
            "summary": summary, "pairs": pairs,
            "traced": {"seed": TRACE_SEED, "pairs": TRACE_PAIRS,
                       **{side: medians(runs)
                          for side, runs in traced.items()}}}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
