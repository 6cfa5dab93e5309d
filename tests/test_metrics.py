"""Metric formulas over a reward-value lookup, and the report's values and
CIs over fabricated and simulated result records."""

import math

import pytest
from scipy import stats as scipy_stats

from hlfspn.hlf import HlfConfig, build_hlf_net
from hlfspn.metrics import (
    METRIC_NAMES,
    MissingQueryError,
    UndefinedMetricError,
    all_queues_full,
    block_call_rate,
    discard_probability,
    metric_report,
    mrt,
    stage_utilization,
    standard_queries,
    throughput,
    timeout_call_rate,
    transactions_in_progress,
)
from hlfspn.spn import (
    Estimate,
    ExactResult,
    ExpectedTokens,
    FiringRate,
    SimConfig,
    SimulationResult,
    simulate_stationary,
)


@pytest.fixture(scope="module")
def handle():
    return build_hlf_net(HlfConfig().with_arrival_rate(50.0))


def lookup(handle, overrides=None):
    """Every standard query at 0, except the overrides, with 50 arrivals
    per second."""
    values = {q: 0.0 for q in standard_queries(handle)}
    values[FiringRate(handle.arrival)] = 50.0
    values.update(overrides or {})
    return values.__getitem__


def simulation_result(batches: dict, confidence_level=0.95):
    """A simulation result record holding the given batch series."""
    estimates = {q: Estimate(sum(vals) / len(vals), math.nan, tuple(vals))
                 for q, vals in batches.items()}
    return SimulationResult(estimates=estimates, total_time=0.0,
                            event_count=0, confidence_level=confidence_level)


def exact_result(values: dict):
    """An exact result record holding the given values."""
    return ExactResult({q: Estimate(v, 0.0) for q, v in values.items()},
                       n_states=1)


class TestFormulas:
    def test_tip_sums_in_flight_places(self, handle):
        v = lookup(handle, {ExpectedTokens(p): 2.0
                            for p in handle.in_progress_places})
        n = len(handle.in_progress_places)
        assert transactions_in_progress(v, handle) == pytest.approx(2.0 * n)

    def test_discard_probability_is_drops_over_arrivals(self, handle):
        v = lookup(handle, {FiringRate(handle.entry_drop): 5.0,
                            FiringRate(handle.arrival): 20.0})
        assert discard_probability(v, handle) == 0.25

    def test_all_queues_full_is_the_drop_guard(self, handle):
        guard = handle.net.transition(handle.entry_drop).guard
        assert all_queues_full(handle).predicate == guard
        assert all_queues_full(handle) in standard_queries(handle)

    def test_mrt_modes(self, handle):
        v = lookup(handle, {ExpectedTokens("P_GT"): 10.0,
                            all_queues_full(handle): 0.5,
                            FiringRate(handle.entry_drop): 10.0})
        # divided by 50 * (1 - P(all queues full)), not by
        # 50 * (1 - dp_prob)
        assert mrt(v, handle) == pytest.approx(0.4)

    def test_stage_utilization_is_busy_fraction(self, handle):
        # 2 of 6 commit slots free on node 1, 6 of 6 free on node 2
        v = lookup(handle, {
            ExpectedTokens(handle.committer_proc_caps[0]): 2.0,
            ExpectedTokens(handle.committer_proc_caps[1]): 6.0,
        })
        assert stage_utilization(v, handle.committer_proc_caps,
                                 handle.cfg.cp) == pytest.approx(2.0 / 6.0)

    def test_throughput_mean_over_committers(self, handle):
        v = lookup(handle, {
            ExpectedTokens(handle.committer_proc_fills[0]): 4.0,
            ExpectedTokens(handle.committer_proc_fills[1]): 2.0,
        })
        # (4 / 0.08 + 2 / 0.08) / 2
        assert throughput(v, handle) == pytest.approx(37.5)

    def test_call_rates_divide_by_service_means(self, handle):
        v = lookup(handle, {
            ExpectedTokens(handle.full_block): 0.01,
            ExpectedTokens(handle.partial_block): 0.002,
        })
        assert block_call_rate(v, handle) == pytest.approx(5.0)
        assert timeout_call_rate(v, handle) == pytest.approx(1.0)

    def test_mrt_undefined_cases(self, handle):
        # no arrival at all, and endorser queues full throughout
        for arrivals, full in ((0.0, 0.0), (50.0, 1.0)):
            estimates = {q: 0.0 for q in standard_queries(handle)}
            estimates[FiringRate(handle.arrival)] = arrivals
            estimates[all_queues_full(handle)] = full
            with pytest.raises(UndefinedMetricError):
                metric_report(exact_result(estimates), handle)

    def test_missing_query_raises(self, handle):
        with pytest.raises(MissingQueryError):
            metric_report(exact_result({}), handle)

    def test_report_covers_all_metric_names(self, handle):
        # an exact result has no batch series: every CI is 0
        estimates = {q: 0.0 for q in standard_queries(handle)}
        estimates[FiringRate(handle.arrival)] = 50.0
        estimates[ExpectedTokens("P_GT")] = 1.0
        report = metric_report(exact_result(estimates), handle)
        for name in METRIC_NAMES:
            metric = getattr(report, name)
            assert math.isfinite(metric.value)
            assert metric.ci == 0.0
            assert metric.batch_values == ()
        assert report.tip.value == 1.0

    def test_standard_queries_have_no_duplicates(self, handle):
        queries = standard_queries(handle)
        assert len(queries) == len(set(queries))
        assert queries[-1] == FiringRate(handle.full_block_cut)

    def test_every_collected_query_is_read(self, handle):
        # moving any collected reward moves some metric, except rate(TI6),
        # which the benchmark's ctmc check reads
        queries = standard_queries(handle)

        def values(estimates):
            report = metric_report(exact_result(estimates), handle)
            return [getattr(report, name).value for name in METRIC_NAMES]

        base = {q: 0.5 for q in queries}
        unread = [q for q in queries
                  if values({**base, q: 0.25}) == values(base)]
        assert unread == [FiringRate(handle.full_block_cut)]


class TestReport:
    def test_ci_is_t_interval_of_per_batch_formula(self, handle):
        # two in-flight places whose batch means move against each other:
        # the per-batch sum is far steadier than either place alone
        places = handle.in_progress_places
        batches = {q: [0.0] * 4 for q in standard_queries(handle)}
        batches[FiringRate(handle.arrival)] = [50.0] * 4
        batches[FiringRate(handle.entry_drop)] = [0.0, 5.0, 10.0, 5.0]
        batches[ExpectedTokens(places[0])] = [1.0, 3.0, 2.0, 6.0]
        batches[ExpectedTokens(places[1])] = [5.0, 3.0, 4.0, 1.0]
        report = metric_report(simulation_result(batches, 0.9), handle)

        def t_ci(series):
            n = len(series)
            mean = sum(series) / n
            var = sum((x - mean) ** 2 for x in series) / (n - 1)
            return scipy_stats.t.ppf(0.95, n - 1) * math.sqrt(var / n)

        tips = [6.0, 6.0, 6.0, 7.0]
        assert report.tip.value == pytest.approx(6.25)
        assert report.tip.ci == pytest.approx(t_ci(tips))
        dps = [0.0, 0.1, 0.2, 0.1]
        assert report.dp_prob.value == pytest.approx(0.1)
        assert report.dp_prob.ci == pytest.approx(t_ci(dps))
        mrts = [t / 50.0 for t in tips]
        assert report.mrt_s.ci == pytest.approx(t_ci(mrts))
        assert report.tip.batch_values == pytest.approx(tips)
        assert report.dp_prob.batch_values == pytest.approx(dps)
        assert report.mrt_s.batch_values == pytest.approx(mrts)
        # each metric's series is its formula on each batch: the value of
        # an exact result holding that batch's rewards
        for k in range(4):
            batch = metric_report(
                exact_result({q: vals[k] for q, vals in batches.items()}),
                handle)
            for name in METRIC_NAMES:
                assert getattr(report, name).batch_values[k] \
                    == getattr(batch, name).value, (name, k)

    def test_batch_without_arrival_gives_infinite_ci(self, handle):
        batches = {q: [0.0, 0.0, 0.0] for q in standard_queries(handle)}
        batches[FiringRate(handle.arrival)] = [50.0, 0.0, 50.0]
        batches[ExpectedTokens("P_GT")] = [1.0, 2.0, 3.0]
        report = metric_report(simulation_result(batches), handle)
        assert report.dp_prob.value == 0.0
        assert report.dp_prob.ci == math.inf
        assert math.isfinite(report.mrt_s.ci)
        assert math.isfinite(report.tip.ci)

    def test_batch_with_queues_full_throughout_gives_infinite_mrt_ci(
            self, handle):
        batches = {q: [0.0, 0.0] for q in standard_queries(handle)}
        batches[FiringRate(handle.arrival)] = [50.0, 50.0]
        batches[FiringRate(handle.entry_drop)] = [50.0, 0.0]
        batches[all_queues_full(handle)] = [1.0, 0.0]
        report = metric_report(simulation_result(batches), handle)
        assert report.dp_prob.value == 0.5
        assert math.isfinite(report.dp_prob.ci)
        assert report.mrt_s.ci == math.inf



class TestShortBatches:
    def test_batches_shorter_than_the_arrival_period(self):
        # one arrival a second, half-second batches: every other batch has
        # no arrival, so dp_prob is undefined on it
        handle = build_hlf_net(HlfConfig().with_arrival_rate(1.0))
        sim = SimConfig(warmup_time=2.0, batch_count=8, batch_length=0.5,
                        seed=3)
        res = simulate_stationary(handle.net, standard_queries(handle), sim)
        arrivals = res.batch_values(FiringRate(handle.arrival))
        assert 0.0 in arrivals
        report = metric_report(res, handle)
        assert report.dp_prob.value == 0.0
        assert report.dp_prob.ci == math.inf
        assert math.isfinite(report.mrt_s.ci)
        assert math.isfinite(report.tip.ci)

    def test_run_without_arrivals_raises(self):
        handle = build_hlf_net(HlfConfig().with_arrival_rate(0.01))
        sim = SimConfig(warmup_time=0.0, batch_count=2, batch_length=1.0)
        res = simulate_stationary(handle.net, standard_queries(handle), sim)
        with pytest.raises(UndefinedMetricError):
            metric_report(res, handle)
