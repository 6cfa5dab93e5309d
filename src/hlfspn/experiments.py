"""Experiment specs, sweeps, factorial designs and the four built-in case
studies.

Specs are INI documents::

    [base]
    block_size = 1
    timeout_s = 10
    arrival_rate_tps = 100

    [sim]
    warmup_time = 20
    batch_count = 10
    batch_length = 5
    seed = 1

    [sweep]
    parameter = arrival_rate_tps
    values = 2.5, 17.5, 32.5
    parameter2 = cp          # optional second axis
    values2 = 2, 4, 6

    [doe]                    # mutually exclusive with [sweep]
    factors = block_size:1:10, timeout_s:0.1:100
    response = mrt_s

    [outputs]
    results = results.csv
    metrics = mrt_s, tp_tps  # optional; default: all

A sweep's points (the cartesian product of its axes) and a DoE's 2^k
corners (standard order) are evaluated by one runner, `run_points`. Points
run independently (optionally in parallel); rows always come back in point
order with a per-point seed of base seed + index, so a spec plus seed
reproduces byte-identical CSVs.
"""

from __future__ import annotations

import configparser
import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Sequence

from .doe import (DesignError, Factor, effects, factorial_design,
                  interaction_table)
from .hlf import (ConfigError, HlfConfig, HlfNetHandle, build_hlf_net,
                  coerce_field)
from .metrics import METRIC_NAMES, MetricReport, metric_report, standard_queries
from .spn.engine import SimConfig, SimulationResult, simulate_stationary
from .spn.net import SpnError


class SpecError(SpnError):
    """Malformed experiment spec."""


def apply_param(cfg: HlfConfig, name: str, value) -> HlfConfig:
    """Set one model parameter by (possibly aliased) name."""
    try:
        field, v = coerce_field(name, value)
    except ConfigError as exc:
        raise SpecError(str(exc)) from exc
    return replace(cfg, **{field: v})


@dataclass(frozen=True)
class ExperimentSpec:
    base: HlfConfig
    sim: SimConfig
    sweep: tuple[tuple[str, tuple[float, ...]], ...] = ()
    doe_factors: tuple[Factor, ...] = ()
    doe_response: str = "mrt_s"
    metrics: tuple[str, ...] = METRIC_NAMES
    outputs: dict = dc_field(default_factory=dict)
    mrt_mode: str = "effective"

    def __post_init__(self):
        if self.sweep and self.doe_factors:
            raise SpecError("a spec may contain a sweep or a doe, not both")
        if self.mrt_mode not in ("literal", "effective"):
            raise SpecError(f"unknown MRT mode {self.mrt_mode!r}")
        if self.doe_response not in METRIC_NAMES:
            raise SpecError(f"unknown response metric {self.doe_response!r}")
        for m in self.metrics:
            if m not in METRIC_NAMES:
                raise SpecError(f"unknown metric {m!r}")


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_experiment(text: str) -> ExperimentSpec:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SpecError(f"spec parse error: {exc}") from exc

    cfg = HlfConfig()
    mode = "effective"
    if parser.has_section("base"):
        for key, val in parser.items("base"):
            if key == "mrt_mode":
                mode = val.strip()
                continue
            try:
                cfg = apply_param(cfg, key, val)
            except (SpecError, ConfigError) as exc:
                raise SpecError(f"[base] {key}: {exc}") from exc

    sim_kwargs = {}
    sim_items = parser.items("sim") if parser.has_section("sim") else []
    try:
        for key, val in sim_items:
            if key in ("batch_count", "seed", "max_events",
                       "max_immediate_steps"):
                sim_kwargs[key] = int(val)
            elif key in ("warmup_time", "batch_length", "confidence_level"):
                sim_kwargs[key] = float(val)
            else:
                raise SpecError(f"[sim] unknown key {key!r}")
        sim = SimConfig(**sim_kwargs)
    except ValueError as exc:
        raise SpecError(f"[sim]: {exc}") from exc

    sweep: list[tuple[str, tuple[float, ...]]] = []
    if parser.has_section("sweep"):
        sec = parser["sweep"]
        for suffix in ("", "2"):
            pname = sec.get("parameter" + suffix)
            pvals = sec.get("values" + suffix)
            if pname is None and pvals is None:
                continue
            if pname is None or pvals is None:
                raise SpecError(
                    f"[sweep] parameter{suffix} and values{suffix} must "
                    "appear together")
            try:
                values = tuple(float(v) for v in _split_list(pvals))
            except ValueError as exc:
                raise SpecError(f"[sweep] values{suffix}: {exc}") from exc
            if not values:
                raise SpecError(f"[sweep] values{suffix} is empty")
            sweep.append((pname.strip(), values))

    doe_factors: list[Factor] = []
    doe_response = "mrt_s"
    if parser.has_section("doe"):
        sec = parser["doe"]
        for item in _split_list(sec.get("factors", "")):
            parts = item.split(":")
            if len(parts) != 3:
                raise SpecError(f"[doe] factor {item!r}: expected name:low:high")
            try:
                doe_factors.append(Factor(parts[0], float(parts[1]),
                                          float(parts[2])))
            except ValueError as exc:
                raise SpecError(f"[doe] factor {item!r}: {exc}") from exc
        if not doe_factors:
            raise SpecError("[doe] section without factors")
        try:
            factorial_design(doe_factors)
        except DesignError as exc:
            raise SpecError(f"[doe] factors: {exc}") from exc
        doe_response = sec.get("response", "mrt_s").strip()

    outputs = {}
    metrics = METRIC_NAMES
    if parser.has_section("outputs"):
        outputs = {k: v.strip() for k, v in parser.items("outputs")
                   if k != "metrics"}
        if parser.has_option("outputs", "metrics"):
            metrics = tuple(_split_list(parser.get("outputs", "metrics")))

    return ExperimentSpec(base=cfg, sim=sim, sweep=tuple(sweep),
                          doe_factors=tuple(doe_factors),
                          doe_response=doe_response,
                          metrics=metrics, outputs=outputs, mrt_mode=mode)


def load_experiment(path) -> ExperimentSpec:
    return parse_experiment(Path(path).read_text())


# ---------------------------------------------------------------------------
# Point evaluation

def evaluate_config(cfg: HlfConfig, sim: SimConfig,
                    mode: str = "effective"
                    ) -> tuple[MetricReport, SimulationResult, HlfNetHandle]:
    """Build, simulate, and score one configuration."""
    handle = build_hlf_net(cfg)
    result = simulate_stationary(handle.net, standard_queries(handle), sim)
    report = metric_report(result, handle, mode=mode)
    return report, result, handle


def _point_worker(args):
    cfg, sim, mode = args
    report, result, _ = evaluate_config(cfg, sim, mode)
    return report, result.total_time, result.event_count


@dataclass(frozen=True)
class ResultRow:
    point: dict             # point parameter name -> value
    report: MetricReport
    seed: int
    simulated_time: float
    event_count: int


def run_points(spec: ExperimentSpec, points: Sequence[dict],
               jobs: int = 1) -> list[ResultRow]:
    """Evaluate spec.base with each point's parameters applied, in order.

    Point i runs with seed spec.sim.seed + i, so results do not depend on
    `jobs`; with jobs > 1 the points run in a process pool.
    """
    tasks = []
    for i, point in enumerate(points):
        cfg = spec.base
        for name, value in point.items():
            cfg = apply_param(cfg, name, value)
        sim = replace(spec.sim, seed=spec.sim.seed + i)
        tasks.append((cfg, sim, spec.mrt_mode))

    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_point_worker, tasks))
    else:
        outcomes = [_point_worker(t) for t in tasks]

    return [ResultRow(point=point, report=report, seed=sim.seed,
                      simulated_time=ttime, event_count=events)
            for point, (_, sim, _), (report, ttime, events)
            in zip(points, tasks, outcomes)]


def run_sweep(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Evaluate every sweep point (cartesian product, spec order)."""
    grids = [[(name, v) for v in values] for name, values in spec.sweep]
    points = [dict(combo) for combo in itertools.product(*grids)]
    return run_points(spec, points, jobs)


def write_rows_csv(path, rows: Sequence[ResultRow],
                   metrics: Sequence[str] = METRIC_NAMES) -> None:
    """Stable-order CSV: sweep columns, metric/CI pairs, bookkeeping."""
    param_cols = list(rows[0].point.keys()) if rows else []
    header = param_cols[:]
    for m in metrics:
        header += [m, m + "_ci"]
    header += ["seed", "simulated_time_s", "events"]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            out = [_fmt(row.point[c]) for c in param_cols]
            for m in metrics:
                metric = getattr(row.report, m)
                out += [_fmt(metric.value), _fmt(metric.ci)]
            out += [row.seed, _fmt(row.simulated_time), row.event_count]
            writer.writerow(out)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


# ---------------------------------------------------------------------------
# DoE over the model

def run_doe(spec: ExperimentSpec, jobs: int = 1):
    """Simulate all 2^k corners (standard order) and return
    (design, responses, rows)."""
    design = factorial_design(list(spec.doe_factors))
    rows = run_points(spec, [design.settings(i)
                             for i in range(design.n_runs)], jobs)
    responses = [getattr(row.report, spec.doe_response).value
                 for row in rows]
    return design, responses, rows


def write_effects_csv(path, design, responses) -> None:
    table = effects(design, responses)
    ranking = {tuple(sorted(t)): r + 1
               for r, (t, _) in enumerate(table.ranking())}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "effect", "abs_rank"])
        for term, eff in zip(table.terms, table.effects):
            writer.writerow(["*".join(term), _fmt(eff),
                             ranking[tuple(sorted(term))]])


def write_interaction_csv(path, design, responses, factor_a: str,
                          factor_b: str) -> None:
    cells = interaction_table(design, responses, factor_a, factor_b)
    names = {f.name: f for f in design.factors}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_level", "b_level", "mean_response"])
        for (sa, sb), mean in sorted(cells.items()):
            writer.writerow([_fmt(names[factor_a].level(sa)),
                             _fmt(names[factor_b].level(sb)), _fmt(mean)])


def run_experiment(spec: ExperimentSpec, out_dir, jobs: int = 1) -> list[Path]:
    """Execute a parsed spec, writing its CSV artifacts; returns the paths."""
    out_dir = Path(out_dir)
    written: list[Path] = []
    if spec.doe_factors:
        design, responses, rows = run_doe(spec, jobs=jobs)
        eff_path = out_dir / spec.outputs.get("effects", "effects.csv")
        write_effects_csv(eff_path, design, responses)
        written.append(eff_path)
        runs_path = out_dir / spec.outputs.get("runs", "doe_runs.csv")
        write_rows_csv(runs_path, rows, spec.metrics)
        written.append(runs_path)
        prefix = spec.outputs.get("interactions_prefix", "interaction")
        names = [f.name for f in design.factors]
        for a, b in itertools.combinations(names, 2):
            p = out_dir / f"{prefix}_{a}_{b}.csv"
            write_interaction_csv(p, design, responses, a, b)
            written.append(p)
    else:
        rows = run_sweep(spec, jobs=jobs)
        path = out_dir / spec.outputs.get("results", "results.csv")
        write_rows_csv(path, rows, spec.metrics)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Built-in case studies

def _frange(start: float, stop: float, step: float) -> list[float]:
    out = []
    v = start
    while v <= stop + 1e-9:
        out.append(round(v, 9))
        v += step
    return out


CASE_STUDY_IDS = (1, 2, 3, 4)


def case_study_specs(case_id: int, seed: int = 1,
                     batch_count: int = 10) -> dict[str, ExperimentSpec]:
    """Built-in experiment specs, keyed by output CSV stem.

    Values the reference scenarios state are pinned; grids they leave
    open (case 2's timeout axis, case 3's lower bound, DoE levels) use
    the documented defaults below. Each sweep writes <stem>.csv.
    """
    if case_id not in CASE_STUDY_IDS:
        raise SpecError(f"unknown case study {case_id}")
    warmup, length = {1: (20.0, 10.0), 2: (300.0, 100.0), 3: (50.0, 20.0),
                      4: (60.0, 30.0)}[case_id]
    if case_id == 4:
        batch_count = max(batch_count, 5)
    try:
        sim = SimConfig(warmup_time=warmup, batch_count=batch_count,
                        batch_length=length, seed=seed)
    except ValueError as exc:
        raise SpecError(f"--batches {batch_count}: {exc}") from exc
    arrivals = tuple(_frange(2.5, 200.0, 15.0))
    if case_id == 1:
        specs = {}
        for cp in (2, 4, 6):
            base = HlfConfig(block_size=1, timeout_s=10.0, cp=cp)
            specs[f"cs1_cp{cp}"] = ExperimentSpec(
                base=base, sim=sim,
                sweep=(("arrival_rate_tps", arrivals),),
                outputs={"results": f"cs1_cp{cp}.csv"})
        return specs
    if case_id == 2:
        base = HlfConfig(timeout_s=100.0).with_arrival_rate(100.0)
        block_sweep = ExperimentSpec(
            base=base, sim=sim,
            sweep=(("block_size", tuple(float(b) for b in range(1, 11))),),
            outputs={"results": "cs2_block.csv"})
        # timeout grid is not enumerated by the scenario; log-spaced 1-100 s
        timeouts = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
        timeout_sweep = ExperimentSpec(
            base=apply_param(base, "block_size", 10), sim=sim,
            sweep=(("timeout_s", timeouts),),
            outputs={"results": "cs2_timeout.csv"})
        return {"cs2_block": block_sweep, "cs2_timeout": timeout_sweep}
    if case_id == 3:
        base = HlfConfig(block_size=6, timeout_s=1.0).with_arrival_rate(100.0)
        # "zero" timeout approximated by 10 ms; exact zero is disallowed
        timeouts = (0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5,
                    0.75, 1.0, 1.5, 2.0)
        return {"cs3": ExperimentSpec(
            base=base, sim=sim, sweep=(("timeout_s", timeouts),),
            outputs={"results": "cs3.csv"})}
    base = HlfConfig().with_arrival_rate(100.0)
    factors = (
        Factor("block_size", 1, 10),
        Factor("timeout_s", 0.1, 100.0),
        Factor("ep", 2, 6),
        Factor("op", 2, 6),
        Factor("cp", 2, 6),
    )
    return {"cs4": ExperimentSpec(base=base, sim=sim, doe_factors=factors,
                                  doe_response="mrt_s",
                                  outputs={"effects": "cs4_effects.csv",
                                           "runs": "cs4_runs.csv",
                                           "interactions_prefix":
                                               "cs4_interaction"})}
