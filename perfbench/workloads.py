"""The benchmark's workloads: configurations drawn from the seed, the public
calls that answer each point, and the oracle the answers must pass.

A run answers every point of its workload in rounds. Simulated points use
seed + round as the simulator seed, so the same --seed gives the same inputs
round by round, and the oracle checks the mean answer over the rounds:
MIN_ROUNDS short simulations pool to as much simulated time as one long one.

Every call into the program goes through a module attribute
(``hlf.build_hlf_net``, ``engine.simulate_stationary``, ...), so that the
tracer in ``tracing.py`` can wrap those names without touching ``src/``.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from hlfspn import experiments, hlf, metrics
from hlfspn.spn import ctmc, engine
from hlfspn.spn.net import ExpectedTokens, FiringRate

# Rounds whose mean answer the oracle checks; a run makes at least these.
MIN_ROUNDS = {"sim": 10, "ctmc": 1}

# Criterion-1 degenerate configuration: one endorser behaving as M/M/c/K.
MMCK_C, MMCK_WAIT, MMCK_MU, MMCK_LAMBDA = 3, 5, 10.0, 35.0
MMCK_SIM = dict(warmup_time=10.0, batch_count=20, batch_length=10.0)
# Relative tolerances on the mean of 10 rounds (2,000 simulated seconds), at
# least twice the worst error seen over 12 seeds.
MMCK_REL_TOL = {"mean_in_system": 0.04, "dp_prob": 0.08, "u_end": 0.02,
                "tp_tps": 0.03}

FABRIC_SIM = dict(warmup_time=5.0, batch_count=10, batch_length=2.5)
FABRIC_REL_TOL = 0.04  # on tp_tps; worst error seen over 12 seeds: 0.015

# Exact identities hold to rounding; 1e-6 leaves room for the linear solve.
CTMC_REL_TOL = 1e-6
CTMC_LAMBDA = 20.0
CTMC_LAMBDA_JITTER = 0.05


@dataclass
class Outcome:
    """What one point evaluation returned, as plain numbers."""
    values: dict
    seconds: float
    events: int = 0


@dataclass(frozen=True)
class Point:
    name: str
    cfg: hlf.HlfConfig
    run: Callable[[hlf.HlfConfig, Optional[engine.SimConfig]], Outcome]
    check: Callable[[dict], list]
    perturbs: tuple  # each maps a correct answer to one the check rejects
    sim: Optional[engine.SimConfig] = None


def answer(point: Point, k: int) -> Outcome:
    """Answer `point` in round k."""
    sim = (dataclasses.replace(point.sim, seed=point.sim.seed + k)
           if point.sim else None)
    return point.run(point.cfg, sim)


def pooled(outcomes: list) -> dict:
    """Mean of each answer value over the rounds."""
    return {key: statistics.fmean(o.values[key] for o in outcomes)
            for key in outcomes[0].values}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _within(problems: list, name: str, got: float, want: float,
            tol: float) -> None:
    if not (math.isfinite(got) and _rel(got, want) <= tol):
        problems.append(f"{name} = {got!r}, expected {want!r} within "
                        f"{tol:.0e} relative")


def _scale(key: str, factor: float) -> Callable[[dict], dict]:
    return lambda values: dict(values, **{key: values[key] * factor})


# ---------------------------------------------------------------------------
# mmck: closed-form M/M/c/K oracle

def mmck_exact(lam: float, mu: float, c: int, k: int) -> dict:
    """Stationary M/M/c/K quantities from the birth-death distribution."""
    a = lam / mu
    w = [a ** n / math.factorial(n) if n <= c
         else a ** n / (math.factorial(c) * c ** (n - c))
         for n in range(k + 1)]
    total = sum(w)
    pi = [x / total for x in w]
    block = pi[k]
    return {
        "mean_in_system": sum(n * p for n, p in enumerate(pi)),
        "dp_prob": block,
        "u_end": sum(min(n, c) * p for n, p in enumerate(pi)) / c,
        "tp_tps": lam * (1.0 - block),
    }


def mmck_config() -> hlf.HlfConfig:
    mu = MMCK_MU
    return hlf.HlfConfig(
        n_endorsers=1, n_committers=1,
        ep=MMCK_C, eq=MMCK_WAIT, te1=1.0 / mu, te2=1.0 / mu,
        te3=1e-3, te4=1e-3, te5=1e-3, te6=1e-3, te7=1e-3, te8=1e-3,
        oq=400, cq=400, op=6, cp=6,
        block_size=1, timeout_s=1000.0,
        arrival_dist="exponential", timeout_dist="exponential",
    ).with_arrival_rate(MMCK_LAMBDA)


def _run_mmck(cfg: hlf.HlfConfig, sim: engine.SimConfig) -> Outcome:
    t0 = time.perf_counter()
    handle = hlf.build_hlf_net(cfg)
    queries = metrics.standard_queries(handle)
    result = engine.simulate_stationary(handle.net, queries, sim)
    report = metrics.metric_report(result, handle)
    t1 = time.perf_counter()
    mean_n = (result.value(ExpectedTokens(handle.endorser_queue_fills[0]))
              + result.value(ExpectedTokens(handle.endorser_proc_fills[0])))
    values = {"mean_in_system": mean_n, "dp_prob": report.dp_prob.value,
              "u_end": report.u_end.value, "tp_tps": report.tp_tps.value}
    return Outcome(values, t1 - t0, result.event_count)


def _check_mmck(values: dict) -> list:
    exact = mmck_exact(MMCK_LAMBDA, MMCK_MU, MMCK_C, MMCK_C + MMCK_WAIT)
    problems: list = []
    for key, want in exact.items():
        _within(problems, key, values[key], want, MMCK_REL_TOL[key])
    return problems


# ---------------------------------------------------------------------------
# fabric: the paper's deterministic-arrival network

def _run_fabric(cfg: hlf.HlfConfig, sim: engine.SimConfig) -> Outcome:
    t0 = time.perf_counter()
    report, result, handle = experiments.evaluate_config(cfg, sim)
    t1 = time.perf_counter()
    lam = cfg.arrival_rate_tps
    values = {
        "tp_tps": report.tp_tps.value,
        "block_call_rate": report.block_call_rate.value,
        "timeout_call_rate": report.timeout_call_rate.value,
        "dp_prob": report.dp_prob.value,
        "drop_ratio": result.value(FiringRate(handle.entry_drop)) / lam,
    }
    return Outcome(values, t1 - t0, result.event_count)


def _fabric_checker(tp_want: float, regime: str) -> Callable[[dict], list]:
    """tp_tps near its expected plateau; `regime` names the cut that must
    dominate ("timeout", "block", or "" for no regime check)."""
    def check(values: dict) -> list:
        problems: list = []
        _within(problems, "tp_tps", values["tp_tps"], tp_want, FABRIC_REL_TOL)
        blk, tmo = values["block_call_rate"], values["timeout_call_rate"]
        if regime == "timeout" and not tmo > blk:
            problems.append(f"timeout-cut regime expected: timeout_call_rate "
                            f"{tmo!r} <= block_call_rate {blk!r}")
        if regime == "block" and not blk > tmo:
            problems.append(f"full-block regime expected: block_call_rate "
                            f"{blk!r} <= timeout_call_rate {tmo!r}")
        return problems
    return check


def _swap_cuts(values: dict) -> dict:
    return dict(values, block_call_rate=values["timeout_call_rate"],
                timeout_call_rate=values["block_call_rate"])


# ---------------------------------------------------------------------------
# ctmc: exact solves with flow identities as the oracle
#
# small: 1,200 tangible states, below ctmc._DENSE_LIMIT (4000), so the dense
# lstsq path; large: 5,768 states on the sparse path. Together about 3 s, so
# a 55-s run holds over ten rounds.

def ctmc_config(lam: float, **caps) -> hlf.HlfConfig:
    return hlf.HlfConfig(
        n_endorsers=1, n_committers=1, block_size=2, timeout_s=0.5,
        ep=2, cp=2, arrival_dist="exponential", timeout_dist="exponential",
        **caps).with_arrival_rate(lam)


def _run_ctmc(cfg: hlf.HlfConfig, sim: None) -> Outcome:
    t0 = time.perf_counter()
    handle = hlf.build_hlf_net(cfg)
    queries = metrics.standard_queries(handle)
    result = ctmc.solve_ctmc(handle.net, queries)
    report = metrics.metric_report(result, handle)
    t1 = time.perf_counter()
    values = {
        "states": result.n_states,
        "tp_tps": report.tp_tps.value,
        "flow_tps": cfg.arrival_rate_tps * (1.0 - report.dp_prob.value),
        "block_call_rate": report.block_call_rate.value,
        "ti6_rate": result.value(FiringRate(handle.full_block_cut)),
    }
    return Outcome(values, t1 - t0)


def _ctmc_checker(states: int) -> Callable[[dict], list]:
    def check(values: dict) -> list:
        problems: list = []
        if values["states"] != states:
            problems.append(f"states = {values['states']}, expected {states}")
        _within(problems, "tp_tps vs lambda(1 - dp_prob)", values["tp_tps"],
                values["flow_tps"], CTMC_REL_TOL)
        _within(problems, "block_call_rate vs rate(TI6)",
                values["block_call_rate"], values["ti6_rate"], CTMC_REL_TOL)
        return problems
    return check


# ---------------------------------------------------------------------------

def make_points(workload: str, seed: int) -> list:
    """The workload's points; `seed` fixes every simulator seed and the
    CTMC arrival rate, so equal seeds give equal inputs."""
    rng = random.Random(seed)
    if workload == "sim":
        sim = engine.SimConfig(seed=rng.randrange(1, 2 ** 31), **MMCK_SIM)
        points = [Point("mmck", mmck_config(), _run_mmck, _check_mmck,
                        (_scale("tp_tps", 1.2), _scale("dp_prob", 0.8)), sim)]
        # fabric: (name, arrival rate, parameters, block-cut regime to check)
        specs = [
            ("timeout-cut", 40.0, dict(block_size=6, timeout_s=0.05),
             "timeout"),
            ("full-block", 60.0, dict(block_size=6, timeout_s=1.0), "block"),
            ("saturated", 175.0, dict(block_size=1, cp=6), ""),
        ]
        for name, lam, kw, regime in specs:
            cfg = hlf.HlfConfig(**kw).with_arrival_rate(lam)
            sim = engine.SimConfig(seed=rng.randrange(1, 2 ** 31),
                                   **FABRIC_SIM)
            # delivered rate: the offered rate, capped by commit capacity
            plateau = min(lam, cfg.cp / cfg.te7)
            perturbs = (_scale("tp_tps", 1.2),) + ((_swap_cuts,) if regime
                                                   else ())
            points.append(Point(name, cfg, _run_fabric,
                                _fabric_checker(plateau, regime), perturbs,
                                sim))
        return points
    if workload == "ctmc":
        lam = CTMC_LAMBDA * (1.0 + CTMC_LAMBDA_JITTER * (2 * rng.random() - 1))
        perturbs = (_scale("tp_tps", 1.0 + 1e-4),
                    _scale("block_call_rate", 1.0 - 1e-4),
                    _scale("states", 2))
        return [
            Point("ctmc-small", ctmc_config(lam, eq=2, oq=2, cq=3, op=2),
                  _run_ctmc, _ctmc_checker(1200), perturbs),
            Point("ctmc-large", ctmc_config(lam, eq=4, oq=4, cq=5, op=3),
                  _run_ctmc, _ctmc_checker(5768), perturbs),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def checker_self_test(points: list, answers: list) -> list:
    """Feed each checker perturbed copies of a real answer; every copy must
    be rejected. Returns the points whose checker accepted one."""
    return [p.name for p, values in zip(points, answers)
            if values is not None and any(not p.check(f(values))
                                          for f in p.perturbs)]
