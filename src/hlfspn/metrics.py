"""Steady-state performance metrics over simulation or exact results.

All functions are pure: they read reward estimates out of a result record
through the net handle's canonical names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .hlf import HlfNetHandle
from .spn.net import (
    And,
    Atom,
    ExpectedTokens,
    FiringRate,
    IntRhs,
    ProbabilityOf,
    RewardQuery,
    SpnError,
)


class MissingQueryError(SpnError):
    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            "result lacks required queries: "
            + ", ".join(str(q) for q in self.missing))

    def __reduce__(self):
        return type(self), (self.missing,)


class UndefinedMetricError(SpnError):
    """A metric is undefined for the given inputs (e.g. MRT at zero
    effective arrival rate)."""


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


METRIC_NAMES = ("mrt_s", "tip", "dp_prob", "u_end", "u_ord", "u_com",
                "tp_tps", "block_call_rate", "timeout_call_rate")


def discard_predicate(handle: HlfNetHandle):
    """All endorser entry queues full (their capacity places empty)."""
    pred = None
    for name in handle.endorser_queue_caps:
        atom = Atom(name, "=", IntRhs(0))
        pred = atom if pred is None else And(pred, atom)
    return pred


def standard_queries(handle: HlfNetHandle) -> list[RewardQuery]:
    """Every reward the full metric report needs."""
    queries: list[RewardQuery] = []
    for p in handle.in_progress_places:
        queries.append(ExpectedTokens(p))
    queries.append(ProbabilityOf(discard_predicate(handle)))
    for p in (*handle.endorser_proc_caps, handle.orderer_proc_cap,
              *handle.committer_proc_caps):
        queries.append(ExpectedTokens(p))
    for t in (handle.full_block_service, handle.partial_block_service,
              handle.entry_drop, *handle.commit_services,
              handle.full_block_cut, handle.timeout_cut):
        queries.append(FiringRate(t))
    return list(dict.fromkeys(queries))  # dedupe, preserving order


def _get(result, query: RewardQuery):
    if not result.has(query):
        raise MissingQueryError([query])
    return result.value(query), result.halfwidth(query)


def _get_all(result, queries):
    missing = [q for q in queries if not result.has(q)]
    if missing:
        raise MissingQueryError(missing)
    return [(result.value(q), result.halfwidth(q)) for q in queries]


def transactions_in_progress(result, handle: HlfNetHandle) -> Metric:
    """Sum of expected token counts over every in-flight place."""
    pairs = _get_all(result, [ExpectedTokens(p)
                              for p in handle.in_progress_places])
    total = sum(v for v, _ in pairs)
    ci = math.sqrt(sum(h * h for _, h in pairs))
    return Metric(total, ci)


def discard_probability(result, handle: HlfNetHandle) -> Metric:
    v, h = _get(result, ProbabilityOf(discard_predicate(handle)))
    return Metric(min(max(v, 0.0), 1.0), h)


def mrt(result, handle: HlfNetHandle, arrival_rate_tps: float,
        mode: str = "effective") -> Metric:
    """Little's-law mean response time.

    "literal" divides the in-flight count by the offered rate; "effective"
    (default) divides by the non-discarded rate.
    """
    if arrival_rate_tps <= 0:
        raise UndefinedMetricError("arrival rate must be positive")
    if mode not in ("literal", "effective"):
        raise ValueError(f"bad MRT mode {mode!r}")
    tip = transactions_in_progress(result, handle)
    rate = arrival_rate_tps
    if mode == "effective":
        dp = discard_probability(result, handle).value
        rate = arrival_rate_tps * (1.0 - dp)
        if rate <= 0:
            raise UndefinedMetricError(
                "effective arrival rate is zero (all transactions discarded)")
    return Metric(tip.value / rate, tip.ci / rate)


_STAGES = ("endorse", "order", "commit")


def stage_utilization(result, handle: HlfNetHandle, stage: str,
                      node: Optional[int] = None) -> Metric:
    """Busy fraction of a stage's processing capacity: node-level when
    node is given (1-based), else the mean over the stage's nodes."""
    if stage not in _STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {_STAGES}")
    if stage == "endorse":
        caps = handle.endorser_proc_caps
        size = handle.cfg.ep
    elif stage == "order":
        caps = (handle.orderer_proc_cap,)
        size = handle.cfg.op
    else:
        caps = handle.committer_proc_caps
        size = handle.cfg.cp
    if size <= 0:
        raise UndefinedMetricError(f"stage {stage} has zero capacity")
    if node is not None:
        if not 1 <= node <= len(caps):
            raise ValueError(f"stage {stage!r} has no node {node}")
        caps = (caps[node - 1],)
    pairs = _get_all(result, [ExpectedTokens(p) for p in caps])
    us = [(size - v) / size for v, _ in pairs]
    cis = [h / size for _, h in pairs]
    n = len(us)
    return Metric(sum(us) / n, math.sqrt(sum(c * c for c in cis)) / n)


def throughput(result, handle: HlfNetHandle) -> Metric:
    """Delivered transactions per second: mean over the committers of
    E(busy commit slots) / commit service mean."""
    cfg = handle.cfg
    pairs = _get_all(result, [ExpectedTokens(p)
                              for p in handle.committer_proc_fills])
    tps = [v / cfg.commit_mean(i + 1) for i, (v, _) in enumerate(pairs)]
    cis = [h / cfg.commit_mean(i + 1) for i, (_, h) in enumerate(pairs)]
    n = len(tps)
    return Metric(sum(tps) / n, math.sqrt(sum(c * c for c in cis)) / n)


def block_call_rate(result, handle: HlfNetHandle) -> Metric:
    """Rate of block cuts by reaching full block size."""
    v, h = _get(result, ExpectedTokens(handle.full_block))
    return Metric(v / handle.cfg.te4, h / handle.cfg.te4)


def timeout_call_rate(result, handle: HlfNetHandle) -> Metric:
    """Rate of block cuts by timer expiry."""
    v, h = _get(result, ExpectedTokens(handle.partial_block))
    return Metric(v / handle.cfg.te5, h / handle.cfg.te5)


def metric_report(result, handle: HlfNetHandle,
                  arrival_rate_tps: Optional[float] = None,
                  mode: str = "effective") -> MetricReport:
    rate = arrival_rate_tps if arrival_rate_tps is not None \
        else handle.cfg.arrival_rate_tps
    return MetricReport(
        mrt_s=mrt(result, handle, rate, mode),
        tip=transactions_in_progress(result, handle),
        dp_prob=discard_probability(result, handle),
        u_end=stage_utilization(result, handle, "endorse"),
        u_ord=stage_utilization(result, handle, "order"),
        u_com=stage_utilization(result, handle, "commit"),
        tp_tps=throughput(result, handle),
        block_call_rate=block_call_rate(result, handle),
        timeout_call_rate=timeout_call_rate(result, handle),
    )
