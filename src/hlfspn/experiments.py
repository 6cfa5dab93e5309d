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

Every key and value, in a section, a sweep, a DoE level or a command-line
flag, is read by one function, `configure`, and every point is checked when
the spec is built. A DoE is a sweep in which each axis holds a factor's two
levels: `ExperimentSpec.points`, the cartesian product of the axes, lists
its 2^k corners in standard order. One runner, `run_sweep`, evaluates the
points of either kind, with one of two evaluators: `evaluate_config`
simulates and `solve_config` solves the CTMC exactly. For a DoE,
`run_experiment` estimates the effects (`doe.effects`) from the responses.
Points run independently (optionally in parallel); rows always come back in
point order with a per-point seed of base seed + index, so a spec plus seed
reproduces byte-identical CSVs.
"""

from __future__ import annotations

import configparser
import csv
import itertools
from dataclasses import dataclass, field as dc_field, fields, replace
from decimal import Decimal
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .doe import effects
from .hlf import (ConfigError, HlfConfig, HlfNetHandle, arrival_delay,
                  build_hlf_net)
from .metrics import METRIC_NAMES, MetricReport, metric_report, standard_queries
from .spn.ctmc import ExactResult, solve_ctmc
from .spn.engine import SimConfig, SimulationResult, simulate_stationary
from .spn.net import SpnError


class SpecError(SpnError):
    """Malformed experiment spec."""


# case-insensitive aliases of HlfConfig fields: the paper's names and the
# per-node forms
_ALIASES = {"block": "block_size", "time_out": "timeout_s",
            "ad": "arrival_delay_s",
            **{f"{f}_1": f for f in ("eq", "oq", "cq", "ep", "op", "cp")}}


def configure(cfg, items, where: str = ""):
    """A copy of cfg (an HlfConfig or a SimConfig) with each (key, value) of
    items set; the copy is made, and validated, once.

    Keys are case-insensitive and may be aliases; ``arrival_rate_tps`` sets
    ``arrival_delay_s`` to its reciprocal. Values may be strings or numbers,
    read as floats; an integer field takes a value only if it is integral
    (``6``, ``6.0`` and ``6e0`` alike). Two keys that set one field are an
    error. Every error is a SpecError whose message starts with `where`.
    """
    kinds = {f.name: f.type for f in fields(cfg)}
    changes: dict[str, object] = {}
    keys: dict[str, str] = {}
    for key, value in items:
        key = key.strip()
        name = _ALIASES.get(key.lower(), key.lower())
        field = "arrival_delay_s" if name == "arrival_rate_tps" else name
        if field not in kinds:
            raise SpecError(f"{where}unknown model parameter {key!r}")
        if field in keys:
            raise SpecError(f"{where}{keys[field]!r} and {key!r} both set "
                            f"{field}")
        keys[field] = key
        if kinds[field] == "str":
            changes[field] = str(value).strip()
            continue
        try:
            v = float(value)
        except ValueError as exc:
            raise SpecError(f"{where}{name}: {exc}") from None
        if kinds[field] == "int":
            exact = Decimal(str(value).strip())  # exact past 2**53
            if not v.is_integer() or exact != exact.to_integral_value():
                raise SpecError(f"{where}{name} must be an integer, "
                                f"got {value}")
            v = int(exact)
        elif name == "arrival_rate_tps":
            try:
                v = arrival_delay(v)
            except ConfigError as exc:
                raise SpecError(f"{where}{exc}") from None
        changes[field] = v
    try:
        return replace(cfg, **changes)
    except (ConfigError, ValueError) as exc:  # HlfConfig's, SimConfig's
        raise SpecError(f"{where}{exc}") from exc


@dataclass(frozen=True)
class ExperimentSpec:
    """A base configuration and the axes of a sweep; with `doe_response`
    set, a DoE whose axes are its factors' (low, high) levels."""

    base: HlfConfig
    sim: SimConfig
    sweep: tuple[tuple[str, tuple[float, ...]], ...] = ()
    doe_response: Optional[str] = None
    metrics: tuple[str, ...] = METRIC_NAMES
    outputs: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        where = "[sweep] "
        if self.doe_response is not None:
            where = "[doe] "
            if self.doe_response not in METRIC_NAMES:
                raise SpecError("[doe] unknown response metric "
                                f"{self.doe_response!r}")
            # checked before points() lists 2^k corners
            if not 1 <= len(self.sweep) <= 12:
                raise SpecError(f"[doe] factors: factor count "
                                f"{len(self.sweep)} outside supported "
                                "range 1..12")
            for name, levels in self.sweep:
                if len(levels) != 2 or levels[0] == levels[1]:
                    raise SpecError(f"[doe] factor {name!r}: needs two "
                                    f"distinct levels, got {levels}")
        # every point is checked here, before any of them runs
        for point in self.points():
            configure(self.base, point, where)
        if not self.metrics:
            raise SpecError("[outputs] metrics is empty")
        for i, m in enumerate(self.metrics):
            if m not in METRIC_NAMES:
                raise SpecError(f"[outputs] unknown metric {m!r}")
            if m in self.metrics[:i]:
                raise SpecError(f"[outputs] metrics lists {m!r} twice")
        for key, name in self.outputs.items():
            if not name:  # it would name the output directory itself
                raise SpecError(f"[outputs] {key} is empty")

    def points(self) -> list[tuple[tuple[str, float], ...]]:
        """Each point as (parameter, value) pairs: the cartesian product of
        the axes in spec order, the last axis varying fastest (one empty
        point without a sweep). For a DoE that is standard order."""
        return list(itertools.product(
            *([(name, v) for v in values] for name, values in self.sweep)))


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# the sections of a spec and their keys; [base] takes HlfConfig fields, and
# each [outputs] key but metrics names a file, by default the one given here
_OUTPUT_FILES = {"results": "results.csv", "effects": "effects.csv",
                 "runs": "doe_runs.csv", "interactions_prefix": "interaction"}
_SECTION_KEYS = {
    "base": None, "sim": tuple(f.name for f in fields(SimConfig)),
    "doe": ("factors", "response"),
    "sweep": ("parameter", "values", "parameter2", "values2"),
    "outputs": ("metrics", *_OUTPUT_FILES)}


def parse_experiment(text: str) -> ExperimentSpec:
    # no section is a default one: [DEFAULT] is an unknown section, and its
    # keys reach no other (a header cannot name the empty string)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SpecError(f"spec parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise SpecError(f"unknown section [{section}]; expected "
                            + ", ".join(f"[{s}]" for s in _SECTION_KEYS))
        known = _SECTION_KEYS[section]
        for key in parser[section] if known is not None else ():
            if key not in known:
                raise SpecError(f"[{section}] unknown key {key!r}")

    items = {section: parser.items(section) for section in parser.sections()}
    cfg = configure(HlfConfig(), items.get("base", ()), "[base] ")
    sim = configure(SimConfig(), items.get("sim", ()), "[sim] ")

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

    doe_response = None
    if parser.has_section("doe"):
        sec = parser["doe"]
        factors = []
        for item in _split_list(sec.get("factors", "")):
            parts = item.split(":")
            if len(parts) != 3:
                raise SpecError(f"[doe] factor {item!r}: expected name:low:high")
            try:
                factors.append((parts[0], (float(parts[1]), float(parts[2]))))
            except ValueError as exc:
                raise SpecError(f"[doe] factor {item!r}: {exc}") from exc
        if not factors:
            raise SpecError("[doe] section without factors")
        if sweep:
            raise SpecError("a spec may contain a sweep or a doe, not both")
        sweep = factors
        doe_response = sec.get("response", "mrt_s").strip()

    outputs = {}
    metrics = METRIC_NAMES
    if parser.has_section("outputs"):
        outputs = {k: v.strip() for k, v in parser.items("outputs")
                   if k != "metrics"}
        if parser.has_option("outputs", "metrics"):
            metrics = tuple(_split_list(parser.get("outputs", "metrics")))

    return ExperimentSpec(base=cfg, sim=sim, sweep=tuple(sweep),
                          doe_response=doe_response,
                          metrics=metrics, outputs=outputs)


def load_experiment(path) -> ExperimentSpec:
    """Parse the UTF-8 spec file at `path`; a file that cannot be read or
    decoded is a SpecError naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise SpecError(f"cannot read spec {path}: {reason}") from None
    return parse_experiment(text)


# ---------------------------------------------------------------------------
# Point evaluation

def evaluate_config(cfg: HlfConfig, sim: SimConfig
                    ) -> tuple[MetricReport, SimulationResult, HlfNetHandle]:
    """Build, simulate, and score one configuration."""
    handle = build_hlf_net(cfg)
    result = simulate_stationary(handle.net, standard_queries(handle), sim)
    report = metric_report(result, handle)
    return report, result, handle


def solve_config(cfg: HlfConfig, sim: SimConfig, max_states: int
                 ) -> tuple[MetricReport, ExactResult, HlfNetHandle]:
    """Build, solve exactly, and score one configuration; `sim` is unused."""
    handle = build_hlf_net(cfg)
    result = solve_ctmc(handle.net, standard_queries(handle), max_states)
    return metric_report(result, handle), result, handle


@dataclass(frozen=True)
class ResultRow:
    point: dict             # point parameter name -> value
    report: MetricReport
    seed: int
    result: SimulationResult | ExactResult


def _point_worker(args):
    evaluate, point, cfg, sim = args
    report, result, _ = evaluate(cfg, sim)  # the handle stays here
    return ResultRow(dict(point), report, sim.seed, result)


def run_sweep(spec: ExperimentSpec, jobs: int = 1,
              evaluate=evaluate_config) -> Iterator[ResultRow]:
    """Yield the row of `evaluate(cfg, sim)` at each point of spec.points(),
    in order. Point i runs with seed spec.sim.seed + i, so results do not
    depend on `jobs`; with jobs > 1 the points run in a process pool of at
    most one worker per point, otherwise each as its row is asked for.
    """
    tasks = [(evaluate, point, configure(spec.base, point),
              replace(spec.sim, seed=spec.sim.seed + i))
             for i, point in enumerate(spec.points())]
    if jobs > 1 and len(tasks) > 1:
        # imported here: the pool and multiprocessing cost every other
        # import of the package about 10 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(_point_worker, tasks))
    else:
        rows = map(_point_worker, tasks)
    yield from rows


def write_rows_csv(path, rows: Sequence[ResultRow],
                   metrics: Sequence[str] = METRIC_NAMES) -> None:
    """Stable-order CSV: sweep columns, metric/CI pairs, bookkeeping."""
    param_cols = list(rows[0].point.keys()) if rows else []
    header = param_cols[:]
    for m in metrics:
        header += [m, m + "_ci"]
    header += ["seed", "simulated_time_s", "events"]
    lines = []
    for row in rows:
        out = [_fmt(row.point[c]) for c in param_cols]
        for m in metrics:
            metric = getattr(row.report, m)
            out += [_fmt(metric.value), _fmt(metric.ci)]
        out += [row.seed, _fmt(row.result.total_time), row.result.event_count]
        lines.append(out)
    _write_csv(path, header, lines)


def _write_csv(path, header: Sequence[str], rows) -> None:
    """Write a header row and then rows, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


# ---------------------------------------------------------------------------
# DoE outputs

def write_effects_csv(path, names: Sequence[str], responses) -> None:
    """One row per term of the factors `names`: its effect and its rank by
    absolute effect, 1 for the largest. Equal effects share a rank, and the
    ranks after them skip as many places (standard competition ranking: 1,
    2, 2, 4)."""
    table = effects(names, responses)
    sizes = [abs(e) for _, e in table]
    _write_csv(path, ["term", "effect", "abs_rank"],
               [["*".join(term), _fmt(eff),
                 1 + sum(s > abs(eff) for s in sizes)]
                for term, eff in table])


def write_interaction_csv(path, points, responses, a: str, b: str) -> None:
    """The mean response at each pair of levels of factors a and b, in the
    order each pair first appears among the points (dicts or (parameter,
    value) pairs); for a DoE, the order of their signs."""
    cells: dict[tuple, list[float]] = {}
    for point, response in zip(points, responses):
        levels = dict(point)
        cells.setdefault((levels[a], levels[b]), []).append(response)
    # np.mean sums pairwise: Python's sum() rounds differently from 8
    # values on, which would change the CSV's bytes
    _write_csv(path, ["a_level", "b_level", "mean_response"],
               [[_fmt(la), _fmt(lb), _fmt(float(np.mean(ys)))]
                for (la, lb), ys in cells.items()])


def run_experiment(spec: ExperimentSpec, out_dir, jobs: int = 1) -> list[Path]:
    """Execute a parsed spec, writing its CSV artifacts; returns the paths."""
    out_dir = Path(out_dir)
    files = {**_OUTPUT_FILES, **spec.outputs}
    rows = list(run_sweep(spec, jobs=jobs))
    if spec.doe_response is None:
        path = out_dir / files["results"]
        write_rows_csv(path, rows, spec.metrics)
        return [path]
    names = [name for name, _ in spec.sweep]
    points = [row.point for row in rows]
    responses = [getattr(row.report, spec.doe_response).value
                 for row in rows]
    eff_path = out_dir / files["effects"]
    write_effects_csv(eff_path, names, responses)
    runs_path = out_dir / files["runs"]
    write_rows_csv(runs_path, rows, spec.metrics)
    written = [eff_path, runs_path]
    for a, b in itertools.combinations(names, 2):
        p = out_dir / f"{files['interactions_prefix']}_{a}_{b}.csv"
        write_interaction_csv(p, points, responses, a, b)
        written.append(p)
    return written


# ---------------------------------------------------------------------------
# Built-in case studies

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
    sim = configure(
        SimConfig(warmup_time=warmup, batch_length=length, seed=seed),
        [("batch_count", batch_count)], f"--batches {batch_count}: ")
    arrivals = tuple(2.5 + 15.0 * i for i in range(14))  # 2.5 to 197.5
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
            base=replace(base, block_size=10), sim=sim,
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
    factors = (("block_size", (1, 10)), ("timeout_s", (0.1, 100.0)),
               ("ep", (2, 6)), ("op", (2, 6)), ("cp", (2, 6)))
    return {"cs4": ExperimentSpec(base=base, sim=sim, sweep=factors,
                                  doe_response="mrt_s",
                                  outputs={"effects": "cs4_effects.csv",
                                           "runs": "cs4_runs.csv",
                                           "interactions_prefix":
                                               "cs4_interaction"})}
