"""Transaction-flow model: configuration, structure, behavior."""

import math

import pytest

from hlfspn.experiments import SpecError, parse_experiment
from hlfspn.hlf import ConfigError, HlfConfig, build_hlf_net
from hlfspn.metrics import (
    discard_probability,
    metric_report,
    standard_queries,
    throughput,
)
from hlfspn.spn import (
    Atom,
    ExpectedTokens,
    FiringRate,
    ProbabilityOf,
    SimConfig,
    simulate_stationary,
    validate_net,
)
from hlfspn.spn.engine import t_halfwidth


class TestConfig:
    def test_reference_defaults(self):
        cfg = HlfConfig()
        assert cfg.n_endorsers == 2
        assert cfg.n_committers == 2
        assert cfg.block_size == 1
        assert cfg.timeout_s == 10.0
        assert (cfg.eq, cfg.oq, cfg.cq) == (100, 100, 100)
        assert (cfg.ep, cfg.op, cfg.cp) == (6, 6, 6)
        assert (cfg.te1, cfg.te2, cfg.te3) == (0.005, 0.005, 0.005)
        assert (cfg.te4, cfg.te5) == (0.002, 0.002)
        assert cfg.te6 == 0.01
        assert (cfg.te7, cfg.te8) == (0.08, 0.08)
        assert cfg.arrival_delay_s is None
        assert cfg.arrival_dist == "deterministic"
        assert cfg.timeout_dist == "deterministic"

    def test_arrival_rate_round_trip(self):
        cfg = HlfConfig().with_arrival_rate(50.0)
        assert cfg.arrival_delay_s == pytest.approx(0.02)
        assert cfg.arrival_rate_tps == pytest.approx(50.0)

    def test_arrival_rate_requires_delay(self):
        with pytest.raises(ConfigError):
            HlfConfig().arrival_rate_tps

    @pytest.mark.parametrize("kwargs", [
        {"n_endorsers": 0},
        {"block_size": 0},
        {"eq": 0},
        {"timeout_s": 0.0},
        {"timeout_s": math.inf, "timeout_dist": "exponential"},
        {"te1": -1.0},
        {"arrival_delay_s": 0.0},
        {"arrival_dist": "uniform"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            HlfConfig(**kwargs)

    @pytest.mark.parametrize("field", [
        "timeout_s", *(f"te{i}" for i in range(1, 9)), "arrival_delay_s"])
    def test_nan_values_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            HlfConfig(**{field: math.nan})
        if field != "timeout_s":  # an infinite timeout is accepted
            with pytest.raises(ConfigError, match=field):
                HlfConfig(**{field: math.inf})

    @pytest.mark.parametrize("field", [
        "n_endorsers", "n_committers", "block_size",
        "eq", "oq", "cq", "ep", "op", "cp"])
    def test_integer_fields_reject_non_integral_values(self, field):
        for value in (2.5, math.nan, math.inf):
            with pytest.raises(ConfigError, match=field):
                HlfConfig(**{field: value})

    def test_integral_floats_are_stored_as_integers(self):
        cfg = HlfConfig(n_endorsers=2.0, eq=100.0).with_arrival_rate(10)
        assert type(cfg.n_endorsers) is int and type(cfg.eq) is int
        net = build_hlf_net(cfg).net
        eq = next(p for p in net.places if p.name == "EQ_1")
        assert eq.initial_tokens == 100 and type(eq.initial_tokens) is int

    def test_bad_arrival_rates_rejected(self):
        # 1e-320 is positive, but its reciprocal overflows
        for tps in (0.0, -1.0, math.nan, math.inf, 1e-320):
            with pytest.raises(ConfigError, match="^arrival_rate_tps must "
                               "be finite and positive$"):
                HlfConfig().with_arrival_rate(tps)

    def test_parse_accepts_rate_as_reciprocal_delay(self):
        cfg = parse_base("arrival_rate_tps = 100\nblock_size = 10\n")
        assert cfg.arrival_delay_s == pytest.approx(0.01)
        assert cfg.block_size == 10

    def test_parse_accepts_documented_aliases(self):
        cfg = parse_base("BLOCK = 4\nTIME_OUT = 2.5\nAD = 0.02\n")
        assert cfg.block_size == 4
        assert cfg.timeout_s == 2.5
        assert cfg.arrival_delay_s == 0.02

    def test_parse_comments_and_errors(self):
        cfg = parse_base("# note\nblock_size = 2  # inline\n")
        assert cfg.block_size == 2
        with pytest.raises(SpecError):
            parse_base("no_such_key = 1\n")
        with pytest.raises(SpecError):
            parse_base("just words\n")
        with pytest.raises(SpecError):
            parse_base("block_size = 0\n")


def parse_base(lines: str) -> HlfConfig:
    """The model configuration of a spec whose [base] section holds
    `lines`."""
    return parse_experiment("[base]\n" + lines).base


class TestStructure:
    def test_build_requires_arrival_delay(self):
        with pytest.raises(ConfigError):
            build_hlf_net(HlfConfig())

    def test_default_net_validates_clean(self):
        handle = build_hlf_net(HlfConfig().with_arrival_rate(100.0))
        assert validate_net(handle.net) == []

    def test_scales_with_node_counts(self):
        cfg = HlfConfig(n_endorsers=3, n_committers=4).with_arrival_rate(10.0)
        handle = build_hlf_net(cfg)
        assert validate_net(handle.net) == []
        places = {p.name for p in handle.net.places}
        transitions = {t.name for t in handle.net.transitions}
        assert {"EQ_1", "EQ_2", "EQ_3", "CQ_4"} <= places
        assert "EQ_4" not in places and "CQ_5" not in places
        assert {"TE1", "TE2", "TE2_3", "TE7", "TE8", "TE8_3",
                "TE8_4"} <= transitions

    def test_capacity_places_start_full(self):
        cfg = HlfConfig(eq=7, ep=3, oq=9, op=4, cq=11,
                        cp=5).with_arrival_rate(10.0)
        handle = build_hlf_net(cfg)
        marking = {p.name: p.initial_tokens for p in handle.net.places}
        for i in (1, 2):
            assert marking[f"EQ_{i}"] == 7
            assert marking[f"CQ_{i}"] == 11
        for p in handle.endorser_proc_caps:
            assert marking[p] == 3
        assert marking["OQ_1"] == 9
        assert marking[handle.orderer_proc_cap] == 4
        for p in handle.committer_proc_caps:
            assert marking[p] == 5
        assert marking["CLK_RUN"] == 1
        assert marking["CLK_EXP"] == 0

    def test_block_size_is_an_arc_constant(self):
        cfg = HlfConfig(block_size=4, timeout_s=2.0).with_arrival_rate(10.0)
        cut = build_hlf_net(cfg).net.transition("TI6")
        assert cut.input_arcs[0].count == 4
        assert cut.output_arcs[1].count == 4
        assert cut.guard.left == Atom("OPF3_1", ">=", 4)

    def test_in_progress_places_exist(self):
        handle = build_hlf_net(HlfConfig().with_arrival_rate(10.0))
        names = {p.name for p in handle.net.places}
        assert set(handle.in_progress_places) <= names
        # tip sums them in this order, so the CSV bytes depend on it
        assert handle.in_progress_places == (
            "P_GT", "EQF_1", "EQF_2", "EPF_1", "EPF_2", "OQF1_1", "OPF2_1",
            "OPF3_1", "FULLBLK_1", "PARTBLK_1", "OPF5_1", "BLKTX_1",
            "CQF_1", "CQF_2", "CPF_1", "CPF_2")

    def test_deterministic_and_exponential_timing_variants(self):
        from hlfspn.spn import Deterministic, Exponential
        det = build_hlf_net(HlfConfig().with_arrival_rate(10.0))
        assert isinstance(det.net.transition(det.arrival).kind, Deterministic)
        exp_cfg = HlfConfig(arrival_dist="exponential",
                            timeout_dist="exponential").with_arrival_rate(10.0)
        exp = build_hlf_net(exp_cfg)
        assert isinstance(exp.net.transition(exp.arrival).kind, Exponential)


# the timeout cut's firing rate, which no metric reads
TIMEOUT_CUT_RATE = FiringRate("TI7")


def quick_report(cfg, seed=5, warmup=20.0, batches=8, length=10.0,
                 extra=()):
    """The metric report, the result and the handle of one simulation that
    also collects the `extra` queries."""
    handle = build_hlf_net(cfg)
    sim = SimConfig(warmup_time=warmup, batch_count=batches,
                    batch_length=length, seed=seed)
    result = simulate_stationary(
        handle.net, [*standard_queries(handle), *extra], sim)
    return metric_report(result, handle), result, handle


class TestBehavior:
    def test_light_load_flows_without_loss(self):
        report, _, _ = quick_report(
            HlfConfig().with_arrival_rate(20.0))
        assert report.dp_prob.value == 0.0
        assert report.tp_tps.value == pytest.approx(20.0, rel=0.05)
        # endorse + order stages once, commit once per committer replica
        expected = 0.005 + 0.005 + 0.002 + 0.01 + 2 * 0.08
        assert report.mrt_s.value == pytest.approx(expected, rel=0.15)

    def test_unit_blocks_give_block_rate_equal_to_throughput(self):
        # BLOCK = 1: every delivered transaction is its own block
        report, _, _ = quick_report(
            HlfConfig().with_arrival_rate(20.0))
        assert report.block_call_rate.value == pytest.approx(
            report.tp_tps.value, rel=0.1)
        assert report.timeout_call_rate.value == 0.0

    def test_timeout_path_idle_under_high_timeout(self):
        # blocks are cut long before a 10 s timer can expire, and every
        # cut resets the timer, so the timeout route stays unused
        _, result, _ = quick_report(
            HlfConfig().with_arrival_rate(20.0),
            warmup=10.0, batches=6, length=20.0, extra=[TIMEOUT_CUT_RATE])
        assert result.value(TIMEOUT_CUT_RATE) == 0.0

    def test_timeout_fires_at_timer_rate_when_blocks_never_fill(self):
        # block size above the arrival volume per timeout window: the
        # accumulator drains via the timer only, once per TIME_OUT
        cfg = HlfConfig(block_size=50, timeout_s=1.0).with_arrival_rate(5.0)
        report, result, _ = quick_report(cfg, warmup=10.0, batches=10,
                                         length=20.0, extra=[TIMEOUT_CUT_RATE])
        rate = result.value(TIMEOUT_CUT_RATE)
        assert rate == pytest.approx(1.0, rel=0.1)
        assert report.block_call_rate.value == 0.0

    def test_full_cut_impossible_when_accumulator_smaller_than_block(self):
        # the accumulator can hold at most op tokens, so BLOCK = op + 1
        # is unreachable and only the timeout path emits blocks
        cfg = HlfConfig(block_size=7, op=6, timeout_s=5.0)
        report, result, handle = quick_report(
            cfg.with_arrival_rate(50.0), warmup=30.0, batches=8, length=20.0,
            extra=[TIMEOUT_CUT_RATE])
        assert result.value(FiringRate(handle.full_block_cut)) == 0.0
        assert result.value(TIMEOUT_CUT_RATE) > 0.0

    def test_commit_capacity_bounds_throughput(self):
        # commit stage caps delivery at cp / te7 transactions per second
        cfg = HlfConfig(cp=2)
        report, _, _ = quick_report(cfg.with_arrival_rate(100.0),
                                    warmup=30.0, batches=8, length=10.0)
        assert report.tp_tps.value == pytest.approx(25.0, rel=0.05)
        assert report.u_com.value > 0.99
        assert report.dp_prob.value > 0.5

    def test_no_transaction_waits_between_stages(self):
        # saturation propagates by blocking: far beyond capacity a stage
        # hands a transaction on only when the next one can take it, so the
        # hand-over places stay vanishing and never hold a token over time
        cfg = HlfConfig().with_arrival_rate(150.0)
        handle = build_hlf_net(cfg)
        queries = [ExpectedTokens(p) for p in
                   ("ENDORSED", *(f"CIN_{i}"
                                  for i in range(1, cfg.n_committers + 1)))]
        orderer_full = ProbabilityOf(Atom("OQ_1", "=", 0))
        sim = SimConfig(warmup_time=30.0, batch_count=6, batch_length=10.0,
                        seed=5)
        result = simulate_stationary(handle.net, [*queries, orderer_full],
                                     sim)
        assert result.value(orderer_full) > 0.5
        for q in queries:
            assert result.value(q) == 0.0


@pytest.mark.parametrize("cfg", [
    HlfConfig().with_arrival_rate(150.0),
    HlfConfig(cp=2).with_arrival_rate(100.0),
], ids=["default-150tps", "cp2-100tps"])
def test_delivered_rate_conserves_flow_under_deterministic_arrivals(cfg):
    # every arrival is either discarded or delivered, so the committers'
    # throughput must equal lambda (1 - dp_prob) within the CI of the
    # per-batch difference; a time-average P(all entry queues full) would
    # miss this by 10-26 tps here, since deterministic arrivals do not see
    # time averages
    lam = cfg.arrival_rate_tps
    report, result, handle = quick_report(cfg, seed=3, warmup=20.0,
                                          batches=10, length=20.0)
    queries = standard_queries(handle)
    diffs = []
    for values in zip(*(result.batch_values(q) for q in queries)):
        v = dict(zip(queries, values)).__getitem__
        diffs.append(throughput(v, handle)
                     - lam * (1.0 - discard_probability(v, handle)))
    assert report.dp_prob.value > 0.3
    gap = report.tp_tps.value - lam * (1.0 - report.dp_prob.value)
    assert abs(gap) <= t_halfwidth(diffs, 0.95)


def littles_law_pairs(handle) -> list:
    """(impulse reward, rate reward, mean) triples in which the firing rate
    equals the expected token count over the mean: TE7 and TE4 are
    infinite-server exponential transitions, and TI6 puts the one token
    into FULLBLK_1 that TE4 takes out."""
    cfg = handle.cfg
    full = ExpectedTokens(handle.full_block)
    return [(FiringRate("TE7"),
             ExpectedTokens(handle.committer_proc_fills[0]), cfg.te7),
            (FiringRate("TE4"), full, cfg.te4),
            (FiringRate(handle.full_block_cut), full, cfg.te4)]


@pytest.mark.parametrize("cfg", [
    HlfConfig().with_arrival_rate(150.0),
    HlfConfig(cp=2).with_arrival_rate(100.0),
    HlfConfig(block_size=6, timeout_s=1.0).with_arrival_rate(60.0),
], ids=["default-150tps", "cp2-100tps", "block6-60tps"])
def test_rate_and_impulse_rewards_agree_by_littles_law(cfg):
    # a firing count and a token-time integral are settled by different
    # code; each pair must agree within the CI of the per-batch difference
    pairs = littles_law_pairs(build_hlf_net(cfg))
    _, result, _ = quick_report(cfg, seed=3, warmup=20.0, batches=10,
                                length=20.0, extra=[q for q, _, _ in pairs])
    for rate, tokens, mean in pairs:
        diffs = [a - b / mean for a, b in zip(result.batch_values(rate),
                                              result.batch_values(tokens))]
        gap = result.value(rate) - result.value(tokens) / mean
        assert result.value(rate) > 1.0
        assert abs(gap) <= t_halfwidth(diffs, 0.95)
