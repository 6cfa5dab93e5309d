"""hlfspn benchmark: one workload per run, with end-to-end metrics measured
untraced (--trace 0) or per-layer metrics from a traced run (--trace 1).

    python3 perfbench/run.py --workload {sim,ctmc} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from ./src and
nothing is installed. With --trace 0 a run answers every point of the
workload once per round, through the public entry points, until another
round would pass --seconds (and at least workloads.MIN_ROUNDS rounds); it
makes SETUP_REPEATS set-ups in fresh interpreters (setup_probe.py), spread
over the run. It reports

- setup_s: seconds from interpreter start to compiled nets;
- wall_s: seconds of a round, i.e. to answer every point once;
- peak_rss_mb: the benchmark process's peak resident memory.

Both times are medians over the run. The program's work is deterministic
and CPU-bound, yet on a shared 2-vCPU host the same round varied by up to
2x from one to the next as other tenants came and went. A round is
therefore a few seconds at most, so that a run holds ten or more; over
ten runs the median round spread 0.084 (ctmc) and 0.118 (sim) as
interquartile range over median, where the fastest round spread 0.133 and
0.167. A timing kernel of the benchmark's own, run before each round to
scale out slow spells of the host, made the spread wider: it slowed about
twice as much as the program did.

With --trace 1 it makes SETUP_REPEATS traced set-ups, MIN_ROUNDS rounds with
coarse spans and MIN_ROUNDS with the per-event counters too (tracing.py),
and reports the per-layer metrics in PER_LAYER.

The mean answer over the rounds is checked against the workload's oracle,
and each oracle must reject perturbed copies of that answer. Lines above the
last describe the run: the manifest, each point's answer (the saturated
fabric point's dp_prob and drop_ratio are shown but not gated), each metric
with its unit and the fail ratio. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A full record
(manifest, set-ups, answers, spans) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-layer metric -> (unit, which end-to-end metric it should move on
# which workload).
_SETUP = "moves setup_s on every workload"
_LOOP = "moves wall_s on sim"
_GEN = "moves wall_s on ctmc, mostly its large point"
_SOLVE = "moves wall_s on ctmc, mostly its small point, and peak_rss_mb"
PER_LAYER = {
    "setup.import_s": ("s", _SETUP),
    "hlf.build_s": ("s", _SETUP),
    "net.validate_calls": ("count", _SETUP),
    "net.validate_s": ("s", _SETUP),
    "engine.compile_s": ("s", _SETUP),
    "engine.simulate_s": ("s", _LOOP),
    "engine.events_per_s": ("1/s", _LOOP),
    "engine.degree_s": ("s", _LOOP),
    "engine.fire_s": ("s", _LOOP),
    "engine.events": ("count", _LOOP),
    "engine.degree_calls_per_event": ("calls/event", _LOOP),
    "engine.heap_pushes": ("count", _LOOP),
    "engine.heap_pops": ("count", _LOOP),
    "engine.stale_pops": ("count", _LOOP),
    "engine.events_per_push": ("events/push", _LOOP),
    "engine.exp_draws":
        ("count", _LOOP + "; unchanged while the RNG draw order is kept"),
    "ctmc.generate_s": ("s", _GEN),
    "ctmc.states": ("count", _GEN),
    "ctmc.nnz": ("count", _GEN),
    "ctmc.vanishing_calls": ("count", _GEN),
    "ctmc.degree_calls": ("count", _GEN),
    "ctmc.assemble_s": ("s", _SOLVE),
    "ctmc.linsolve_s": ("s", _SOLVE),
    "metrics.report_s": ("s", "moves wall_s on sim; near zero"),
    "experiments.evaluate_overhead_s":
        ("s", "moves wall_s on sim; near zero"),
    "trace.base_wall_s": ("s", "wall time of the rounds with spans only"),
    "trace.counted_wall_s": ("s", "wall time of the rounds with counters"),
    "trace.overhead": ("ratio", "counted over spans-only wall time, minus 1"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim", "ctmc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy loads here and inherited by
    the set-up probes: the workloads are single-process, and a threaded
    dense solve on a shared host spreads several times wider than a serial
    one."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_setup(args) -> tuple[float, dict]:
    """One set-up in a fresh interpreter; returns its seconds from process
    start to compiled nets (the monotonic clock is shared by processes) and
    the probe's result line."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload,
           str(args.seed), str(args.trace), repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code "
                           f"{proc.returncode}")
    line = json.loads(proc.stdout.splitlines()[-1])
    return line.pop("setup_s"), line


def measure(args, points, min_rounds: int) -> tuple[list, list]:
    """Rounds until another would pass --seconds, with the set-ups spread
    over the run. Returns (set-ups, rounds)."""
    setups, rounds = [], []
    t0 = time.perf_counter()
    while True:
        if len(setups) * args.seconds <= SETUP_REPEATS * (
                time.perf_counter() - t0):
            setups.append(run_setup(args))
        rounds.append(run_round(points, len(rounds)))
        typical = statistics.median(wall for wall, _ in rounds)
        if (len(rounds) >= min_rounds
                and time.perf_counter() - t0 + typical > args.seconds):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(run_setup(args))
    return setups, rounds


def run_round(points, k: int) -> tuple[float, list]:
    """Answer every point in round k; a point that raises yields None."""
    outcomes = []
    t0 = time.perf_counter()
    for point in points:
        try:
            outcomes.append(workloads.answer(point, k))
        except Exception:  # noqa: BLE001 - a raising point is a failed point
            traceback.print_exc()
            outcomes.append(None)
    return time.perf_counter() - t0, outcomes


def end_to_end(setups, rounds) -> dict:
    return {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(wall for wall, _ in rounds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setups, base, counted) -> dict:
    """Per-layer numbers: set-up layers from the median traced probe;
    coarse layer times from the spans-only rounds; counts and per-call
    timers from the counted rounds (those timers include their own
    overhead). `base` and `counted` are (rounds, tracer)."""
    (base_rounds, bt), (counted_rounds, ct) = base, counted
    typical = sorted(setups, key=lambda setup: setup[0])[
        len(setups) // 2][1]

    def events(rounds):
        return sum(o.events for _, outs in rounds for o in outs
                   if o is not None)

    def wall(rounds):
        return sum(w for w, _ in rounds)

    def sim(counter):
        return ct.counted("engine.simulate", counter)

    generate = 0.0
    for solve in bt.named("ctmc.solve"):
        for child in bt.children(solve):
            if child.name == "ctmc.stationary":
                generate += child.start - solve.start
            elif child.name == "engine.compile":
                generate -= child.seconds
    n_events = events(counted_rounds)
    simulate_s = bt.total("engine.simulate")
    pushes = sim("heap_pushes")
    return {
        "setup.import_s": typical["import_s"],
        "hlf.build_s": typical["hlf.build_s"],
        "net.validate_calls": typical["net.validate_calls"],
        "net.validate_s": typical["net.validate_s"],
        "engine.compile_s": typical["engine.compile_s"],
        "engine.simulate_s": simulate_s,
        "engine.events_per_s":
            events(base_rounds) / simulate_s if simulate_s else 0.0,
        "engine.degree_s": sim("degree_s"),
        "engine.fire_s": sim("fire_s"),
        "engine.events": n_events,
        "engine.degree_calls_per_event":
            sim("degree_calls") / n_events if n_events else 0.0,
        "engine.heap_pushes": pushes,
        "engine.heap_pops": sim("heap_pops"),
        "engine.stale_pops": sim("stale_pops"),
        "engine.events_per_push": n_events / pushes if pushes else 0.0,
        "engine.exp_draws": sim("exp_draws"),
        "ctmc.generate_s": generate,
        "ctmc.assemble_s": bt.self_time("ctmc.stationary"),
        "ctmc.linsolve_s": bt.total("ctmc.linsolve"),
        "ctmc.states": bt.note("ctmc.stationary", "states"),
        "ctmc.nnz": bt.note("ctmc.stationary", "nnz"),
        "ctmc.vanishing_calls": ct.counted("ctmc.solve", "vanishing_calls"),
        "ctmc.degree_calls": ct.counted("ctmc.solve", "degree_calls"),
        "metrics.report_s": bt.total("metrics.report"),
        "experiments.evaluate_overhead_s":
            bt.self_time("experiments.evaluate"),
        "trace.base_wall_s": wall(base_rounds),
        "trace.counted_wall_s": wall(counted_rounds),
        "trace.overhead": wall(counted_rounds) / wall(base_rounds) - 1.0,
    }


def check_answers(points, rounds) -> tuple[int, int, list, list]:
    """Check each point's mean answer over the rounds. Returns (attempted,
    failed, per-point summaries, points whose oracle passed a perturbed
    answer); every evaluation of a point that raised or failed counts."""
    attempted = failed = 0
    summaries, means = [], []
    for i, point in enumerate(points):
        outs = [outcomes[i] for _, outcomes in rounds]
        done = [o for o in outs if o is not None]
        mean = workloads.pooled(done) if done else None
        problems = point.check(mean) if mean else []
        if len(done) < len(outs):
            problems.append(f"{len(outs) - len(done)} evaluations raised")
        attempted += len(outs)
        failed += len(outs) if problems else 0
        means.append(mean)
        summaries.append({
            "point": point.name, "rounds": len(outs), "problems": problems,
            "mean": mean, "seconds": [o.seconds for o in done],
            "events": [o.events for o in done]})
    return attempted, failed, summaries, workloads.checker_self_test(
        points, means)


def main(argv) -> int:
    global tracing, workloads
    args = parse_args(argv)
    if not (SRC / "hlfspn" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'hlfspn'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    started = time.perf_counter()

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import tracing
    import workloads

    points = workloads.make_points(args.workload, args.seed)
    min_rounds = workloads.MIN_ROUNDS[args.workload]
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
        "python_threads": threading.active_count(),
        "git_commit": git_commit(),
    }
    print("manifest " + json.dumps(manifest), flush=True)

    tracers, groups = [], []
    if args.trace:
        setups = [run_setup(args) for _ in range(SETUP_REPEATS)]
        for counters in (False, True):
            tracer = tracing.Tracer(counters=counters)
            with tracer:
                groups.append([run_round(points, k)
                               for k in range(min_rounds)])
            tracers.append(tracer)
        rounds = groups[0] + groups[1]
    else:
        setups, rounds = measure(args, points, min_rounds)

    attempted, failed, summaries, lax = check_answers(points, rounds)
    for s in summaries:
        secs, events = s["seconds"], sum(s["events"])
        rate = (f", {events / sum(secs):.0f} events/s" if events else "")
        mean = " ".join(f"{k}={v:.6g}" for k, v in (s["mean"] or {}).items())
        median = statistics.median(secs) if secs else math.nan
        print(f"point {s['point']}: {s['rounds']} rounds, median "
              f"{median:.3f} s{rate}; mean {mean}")
        for problem in s["problems"]:
            print(f"point {s['point']}: FAILED {problem}")
    for name in lax:
        print(f"oracle self-test: {name} accepted a perturbed answer")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")

    if args.trace:
        values = per_layer(setups, (groups[0], tracers[0]),
                           (groups[1], tracers[1]))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        for name, value in values.items():
            print(f"{name} = {value:.6g} {units[name]}  "
                  f"({PER_LAYER[name][1]})")
    else:
        values = end_to_end(setups, rounds)
        units = END_TO_END_UNITS
        for name, value in values.items():
            print(f"{name} = {value:.6g} {units[name]}")

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "manifest": manifest,
        "points": {p.name: {"cfg": repr(p.cfg), "sim": repr(p.sim)}
                   for p in points},
        "setups": setups, "round_walls_s": [wall for wall, _ in rounds],
        "answers": summaries, "metrics": values, "self_test_failures": lax,
        "spans": [t.dump(started) for t in tracers],
        "untraced_names": sorted({m for t in tracers for m in t.missing}),
    }, indent=1, default=str))

    print(json.dumps({
        "correct": failed == 0 and not lax,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
