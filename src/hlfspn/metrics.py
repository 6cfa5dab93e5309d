"""Steady-state performance metrics over simulation or exact results.

Each metric is a plain formula over a reward-value lookup `v`, a function
from a reward query to its value. `metric_report` evaluates every formula
once on the result's point estimates, which gives the value, and once on
each batch of the result's batch series, which gives the CI: the t-interval
half-width of the per-batch values. An exact result has no batch series, so
its CIs are 0.

The formulas are listed once, in CSV column order, in `_FORMULAS`, from
which `METRIC_NAMES` is derived, and so is `standard_queries`, the rewards a
run collects: every query some formula reads, plus the full-block cut rate,
which only the benchmark's ctmc check reads.

`dp_prob` is the fraction of arrivals discarded. `mrt_s` divides the
in-flight count by lambda (1 - p_full), where p_full is the time-average
probability that every endorser queue is full (T_DROP's guard holds).
p_full and `dp_prob` agree under Poisson arrivals (PASTA: Wolff, Oper. Res.
1982), but not under deterministic ones (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .hlf import HlfNetHandle
from .spn.engine import t_halfwidth
from .spn.net import (
    ExpectedTokens,
    FiringRate,
    ProbabilityOf,
    RewardQuery,
    SpnError,
)

Lookup = Callable[[RewardQuery], float]


class MissingQueryError(SpnError):
    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            "result lacks required queries: "
            + ", ".join(str(q) for q in self.missing))


class UndefinedMetricError(SpnError):
    """A metric is undefined for the given inputs (e.g. the discard
    probability of a run without arrivals)."""


@dataclass(frozen=True)
class Metric:
    value: float
    ci: float


@dataclass(frozen=True)
class MetricReport:
    """The full metric set; field names match the CSV columns."""
    mrt_s: Metric
    tip: Metric
    dp_prob: Metric
    u_end: Metric
    u_ord: Metric
    u_com: Metric
    tp_tps: Metric
    block_call_rate: Metric
    timeout_call_rate: Metric


def all_queues_full(handle: HlfNetHandle) -> ProbabilityOf:
    """Time-average probability that every endorser queue is full, which
    is when T_DROP's guard holds."""
    return ProbabilityOf(handle.net.transition(handle.entry_drop).guard)


def transactions_in_progress(v: Lookup, handle: HlfNetHandle) -> float:
    """Sum of expected token counts over every in-flight place."""
    return sum(v(ExpectedTokens(p)) for p in handle.in_progress_places)


def discard_probability(v: Lookup, handle: HlfNetHandle) -> float:
    """Fraction of arriving transactions that are discarded: the drop rate
    over the arrival rate."""
    return v(FiringRate(handle.entry_drop)) / v(FiringRate(handle.arrival))


def mrt(v: Lookup, handle: HlfNetHandle) -> float:
    """Little's-law mean response time: the in-flight count over the offered
    rate times (1 - the time-average probability that every endorser queue
    is full)."""
    rate = handle.cfg.arrival_rate_tps * (1.0 - v(all_queues_full(handle)))
    return transactions_in_progress(v, handle) / rate


def stage_utilization(v: Lookup, caps: Sequence[str], size: int) -> float:
    """Busy fraction of a stage's processing capacity, averaged over the
    stage's nodes: `caps` holds each node's free-slot place, and `size` is
    the slots per node."""
    return sum((size - v(ExpectedTokens(p))) / size for p in caps) / len(caps)


def throughput(v: Lookup, handle: HlfNetHandle) -> float:
    """Delivered transactions per second: mean over the committers of
    E(busy commit slots) / commit service mean."""
    fills = handle.committer_proc_fills
    return sum(v(ExpectedTokens(p)) / handle.cfg.commit_mean(i + 1)
               for i, p in enumerate(fills)) / len(fills)


def block_call_rate(v: Lookup, handle: HlfNetHandle) -> float:
    """Rate of block cuts by reaching full block size."""
    return v(ExpectedTokens(handle.full_block)) / handle.cfg.te4


def timeout_call_rate(v: Lookup, handle: HlfNetHandle) -> float:
    """Rate of block cuts by timer expiry."""
    return v(ExpectedTokens(handle.partial_block)) / handle.cfg.te5


# every metric's formula over (v, handle), in CSV column order
_FORMULAS: dict[str, Callable[[Lookup, HlfNetHandle], float]] = {
    "mrt_s": mrt,
    "tip": transactions_in_progress,
    "dp_prob": discard_probability,
    "u_end": lambda v, h: stage_utilization(v, h.endorser_proc_caps,
                                            h.cfg.ep),
    "u_ord": lambda v, h: stage_utilization(v, (h.orderer_proc_cap,),
                                            h.cfg.op),
    "u_com": lambda v, h: stage_utilization(v, h.committer_proc_caps,
                                            h.cfg.cp),
    "tp_tps": throughput,
    "block_call_rate": block_call_rate,
    "timeout_call_rate": timeout_call_rate,
}
METRIC_NAMES = tuple(_FORMULAS)


def standard_queries(handle: HlfNetHandle) -> list[RewardQuery]:
    """Every reward query a metric formula reads, in first-read order, plus
    the full-block cut rate.

    Each formula is evaluated once on a lookup that records the queries it
    asks for and answers 0.5, a value at which every formula is defined.
    """
    read: dict[RewardQuery, None] = {}

    def record(query: RewardQuery) -> float:
        read[query] = None
        return 0.5

    for formula in _FORMULAS.values():
        formula(record, handle)
    # no metric reads rate(TI6); the ctmc check of perfbench/workloads.py
    # reads it from a standard_queries result
    read[FiringRate(handle.full_block_cut)] = None
    return list(read)


def metric_report(result, handle: HlfNetHandle) -> MetricReport:
    """Every metric's value and CI half-width (see the module docstring).

    A formula that is undefined on some batch (dp_prob on a batch without
    arrivals, or mrt_s on one whose endorser queues are full throughout)
    gets CI inf; one undefined on the point estimates raises
    UndefinedMetricError.
    """
    queries = standard_queries(handle)
    missing = [q for q in queries if not result.has(q)]
    if missing:
        raise MissingQueryError(missing)
    batches = [dict(zip(queries, values)) for values
               in zip(*(result.batch_values(q) for q in queries))]
    metrics = {}
    for name, formula in _FORMULAS.items():
        try:
            value = formula(result.value, handle)
        except ZeroDivisionError:
            raise UndefinedMetricError(
                f"{name} is undefined: the run has no arrival, or its "
                "endorser queues are full throughout") from None
        try:
            series = [formula(batch.__getitem__, handle) for batch in batches]
        except ZeroDivisionError:
            ci = math.inf
        else:
            ci = t_halfwidth(series, result.confidence_level) \
                if batches else 0.0
        metrics[name] = Metric(value, ci)
    return MetricReport(**metrics)
