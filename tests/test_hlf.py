"""Transaction-flow model: configuration, structure, behavior."""

import pytest

from hlfspn.hlf import (
    ConfigError,
    HlfConfig,
    build_hlf_net,
    default_config,
    parse_config,
    serialize_config,
)
from hlfspn.metrics import metric_report, standard_queries
from hlfspn.spn import (
    Atom,
    ExpectedTokens,
    FiringRate,
    IntRhs,
    ProbabilityOf,
    SimConfig,
    simulate_stationary,
    validate_net,
)


class TestConfig:
    def test_reference_defaults(self):
        cfg = default_config()
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
        cfg = default_config().with_arrival_rate(50.0)
        assert cfg.arrival_delay_s == pytest.approx(0.02)
        assert cfg.arrival_rate_tps == pytest.approx(50.0)

    def test_arrival_rate_requires_delay(self):
        with pytest.raises(ConfigError):
            default_config().arrival_rate_tps

    @pytest.mark.parametrize("kwargs", [
        {"n_endorsers": 0},
        {"block_size": 0},
        {"eq": 0},
        {"timeout_s": 0.0},
        {"te1": -1.0},
        {"arrival_delay_s": 0.0},
        {"arrival_dist": "uniform"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            HlfConfig(**kwargs)

    def test_parse_serialize_round_trip(self):
        cfg = HlfConfig(n_committers=3, block_size=5, timeout_s=2.5,
                        cp=4, te7=0.05).with_arrival_rate(40.0)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_parse_accepts_rate_as_reciprocal_delay(self):
        cfg = parse_config("arrival_rate_tps = 100\nblock_size = 10\n")
        assert cfg.arrival_delay_s == pytest.approx(0.01)
        assert cfg.block_size == 10

    def test_parse_accepts_documented_aliases(self):
        cfg = parse_config("BLOCK = 4\nTIME_OUT = 2.5\nAD = 0.02\n")
        assert cfg.block_size == 4
        assert cfg.timeout_s == 2.5
        assert cfg.arrival_delay_s == 0.02

    def test_parse_comments_and_errors(self):
        cfg = parse_config("# note\nblock_size = 2  # inline\n")
        assert cfg.block_size == 2
        with pytest.raises(ConfigError):
            parse_config("no_such_key = 1\n")
        with pytest.raises(ConfigError):
            parse_config("just words\n")
        with pytest.raises(ConfigError):
            parse_config("block_size = 0\n")


class TestStructure:
    def test_build_requires_arrival_delay(self):
        with pytest.raises(ConfigError):
            build_hlf_net(default_config())

    def test_default_net_validates_clean(self):
        handle = build_hlf_net(default_config().with_arrival_rate(100.0))
        assert validate_net(handle.net) == []

    def test_scales_with_node_counts(self):
        cfg = HlfConfig(n_endorsers=3, n_committers=4).with_arrival_rate(10.0)
        handle = build_hlf_net(cfg)
        assert validate_net(handle.net) == []
        assert handle.endorser_queue_caps == ("EQ_1", "EQ_2", "EQ_3")
        assert handle.endorse_services == ("TE1", "TE2", "TE2_3")
        assert handle.commit_services == ("TE7", "TE8", "TE8_3", "TE8_4")

    def test_capacity_places_start_full(self):
        cfg = HlfConfig(eq=7, ep=3, oq=9, op=4, cq=11,
                        cp=5).with_arrival_rate(10.0)
        handle = build_hlf_net(cfg)
        marking = handle.net.initial_marking()
        for p in handle.endorser_queue_caps:
            assert marking[p] == 7
        for p in handle.endorser_proc_caps:
            assert marking[p] == 3
        assert marking[handle.orderer_queue_cap] == 9
        assert marking[handle.orderer_proc_cap] == 4
        for p in handle.committer_queue_caps:
            assert marking[p] == 11
        for p in handle.committer_proc_caps:
            assert marking[p] == 5
        assert marking[handle.clock_run] == 1
        assert marking[handle.clock_expired] == 0

    def test_parameters_exposed(self):
        cfg = HlfConfig(block_size=4, timeout_s=2.0).with_arrival_rate(10.0)
        handle = build_hlf_net(cfg)
        assert handle.net.parameters == {"BLOCK": 4, "TIME_OUT": 2.0}

    def test_in_progress_places_exist(self):
        handle = build_hlf_net(default_config().with_arrival_rate(10.0))
        names = {p.name for p in handle.net.places}
        assert set(handle.in_progress_places) <= names

    def test_deterministic_and_exponential_timing_variants(self):
        from hlfspn.spn import Deterministic, Exponential
        det = build_hlf_net(default_config().with_arrival_rate(10.0))
        assert isinstance(det.net.transition(det.arrival).kind, Deterministic)
        exp_cfg = HlfConfig(arrival_dist="exponential",
                            timeout_dist="exponential").with_arrival_rate(10.0)
        exp = build_hlf_net(exp_cfg)
        assert isinstance(exp.net.transition(exp.arrival).kind, Exponential)


def quick_report(cfg, seed=5, warmup=20.0, batches=8, length=10.0):
    handle = build_hlf_net(cfg)
    sim = SimConfig(warmup_time=warmup, batch_count=batches,
                    batch_length=length, seed=seed)
    result = simulate_stationary(handle.net, standard_queries(handle), sim)
    return metric_report(result, handle), result, handle


class TestBehavior:
    def test_light_load_flows_without_loss(self):
        report, _, _ = quick_report(
            default_config().with_arrival_rate(20.0))
        assert report.dp_prob.value == 0.0
        assert report.tp_tps.value == pytest.approx(20.0, rel=0.05)
        # endorse + order stages once, commit once per committer replica
        expected = 0.005 + 0.005 + 0.002 + 0.01 + 2 * 0.08
        assert report.mrt_s.value == pytest.approx(expected, rel=0.15)

    def test_unit_blocks_give_block_rate_equal_to_throughput(self):
        # BLOCK = 1: every delivered transaction is its own block
        report, _, _ = quick_report(
            default_config().with_arrival_rate(20.0))
        assert report.block_call_rate.value == pytest.approx(
            report.tp_tps.value, rel=0.1)
        assert report.timeout_call_rate.value == 0.0

    def test_timeout_path_idle_under_high_timeout(self):
        # blocks are cut long before a 10 s timer can expire, and every
        # cut resets the timer, so the timeout route stays unused
        _, result, handle = quick_report(
            default_config().with_arrival_rate(20.0),
            warmup=10.0, batches=6, length=20.0)
        assert result.value(FiringRate(handle.timeout_cut)) == 0.0

    def test_timeout_fires_at_timer_rate_when_blocks_never_fill(self):
        # block size above the arrival volume per timeout window: the
        # accumulator drains via the timer only, once per TIME_OUT
        cfg = HlfConfig(block_size=50, timeout_s=1.0).with_arrival_rate(5.0)
        report, result, handle = quick_report(cfg, warmup=10.0, batches=10,
                                              length=20.0)
        rate = result.value(FiringRate(handle.timeout_cut))
        assert rate == pytest.approx(1.0, rel=0.1)
        assert report.block_call_rate.value == 0.0

    def test_full_cut_impossible_when_accumulator_smaller_than_block(self):
        # the accumulator can hold at most op tokens, so BLOCK = op + 1
        # is unreachable and only the timeout path emits blocks
        cfg = HlfConfig(block_size=7, op=6, timeout_s=5.0)
        report, result, handle = quick_report(
            cfg.with_arrival_rate(50.0), warmup=30.0, batches=8, length=20.0)
        assert result.value(FiringRate(handle.full_block_cut)) == 0.0
        assert result.value(FiringRate(handle.timeout_cut)) > 0.0

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
        cfg = default_config().with_arrival_rate(150.0)
        handle = build_hlf_net(cfg)
        queries = [ExpectedTokens(p) for p in
                   ("ENDORSED", *(f"CIN_{i}"
                                  for i in range(1, cfg.n_committers + 1)))]
        orderer_full = ProbabilityOf(Atom("OQ_1", "=", IntRhs(0)))
        sim = SimConfig(warmup_time=30.0, batch_count=6, batch_length=10.0,
                        seed=5)
        result = simulate_stationary(handle.net, [*queries, orderer_full],
                                     sim)
        assert result.value(orderer_full) > 0.5
        for q in queries:
            assert result.value(q) == 0.0
