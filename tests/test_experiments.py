"""Experiment specs, sweeps, and the built-in scenarios."""

import concurrent.futures
import csv
from functools import partial

import pytest

from hlfspn.experiments import (
    CASE_STUDY_IDS,
    ExperimentSpec,
    SpecError,
    case_study_specs,
    configure,
    parse_experiment,
    run_experiment,
    run_sweep,
    solve_config,
    write_effects_csv,
    write_interaction_csv,
    write_rows_csv,
)
from hlfspn.hlf import HlfConfig, build_hlf_net
from hlfspn.metrics import METRIC_NAMES, metric_report, standard_queries
from hlfspn.spn import SimConfig, ctmc, solve_ctmc

SPEC_TEXT = """
[base]
block_size = 2
timeout_s = 5
arrival_rate_tps = 40

[sim]
warmup_time = 5
batch_count = 4
batch_length = 5
seed = 3

[sweep]
parameter = arrival_rate_tps
values = 20, 40

[outputs]
results = out.csv
metrics = mrt_s, tp_tps
"""

FAST_SIM = SimConfig(warmup_time=5.0, batch_count=3, batch_length=5.0,
                     seed=2)


class TestParsing:
    def test_full_spec(self):
        spec = parse_experiment(SPEC_TEXT)
        assert spec.base.block_size == 2
        assert spec.base.timeout_s == 5.0
        assert spec.base.arrival_rate_tps == pytest.approx(40.0)
        assert spec.sim.batch_count == 4
        assert spec.sim.seed == 3
        assert spec.sweep == (("arrival_rate_tps", (20.0, 40.0)),)
        assert spec.metrics == ("mrt_s", "tp_tps")
        assert spec.outputs["results"] == "out.csv"

    def test_aliases_accepted(self):
        cfg = HlfConfig()
        assert configure(cfg, [("BLOCK", 5)]).block_size == 5
        assert configure(cfg, [("TIME_OUT", 2.0)]).timeout_s == 2.0
        assert configure(cfg, [("AD", 0.05)]).arrival_delay_s == 0.05
        assert configure(cfg, [("cp_1", 4)]).cp == 4

    def test_base_accepts_aliases_and_mrt_mode(self):
        spec = parse_experiment(
            "[base]\nBLOCK = 5\nTIME_OUT = 2\nAD = 0.05\n")
        assert spec.base.block_size == 5
        assert spec.base.timeout_s == 2.0
        assert spec.base.arrival_delay_s == 0.05

    def test_inline_comments_are_not_part_of_values(self):
        # the form the module docstring's example uses
        spec = parse_experiment("""
[base]
block_size = 2  # inline
[sweep]
parameter = arrival_rate_tps
values = 2.5, 17.5
parameter2 = cp          # optional second axis
values2 = 2, 4
[outputs]
metrics = mrt_s, tp_tps  # optional; default: all
""")
        assert spec.base.block_size == 2
        assert spec.sweep == (("arrival_rate_tps", (2.5, 17.5)),
                              ("cp", (2.0, 4.0)))
        assert spec.metrics == ("mrt_s", "tp_tps")
        spec = parse_experiment("[doe]    # mutually exclusive with [sweep]\n"
                                "factors = block_size:1:10\n")
        assert spec.sweep == (("block_size", (1.0, 10.0)),)

    @pytest.mark.parametrize("line,message", [
        ("block_size = maybe",
         "[base] block_size: could not convert string to float: 'maybe'"),
        ("block_size = 0", "[base] block_size must be >= 1"),
        ("block_size = 1.5", "[base] block_size must be an integer, got 1.5"),
        ("arrival_rate_tps = 0",
         "[base] arrival_rate_tps must be finite and positive"),
        ("bogus = 1", "[base] unknown model parameter 'bogus'"),
    ])
    def test_base_errors_name_the_key_once(self, line, message):
        with pytest.raises(SpecError) as exc_info:
            parse_experiment(f"[base]\n{line}\n")
        assert str(exc_info.value) == message

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SpecError):
            configure(HlfConfig(), [("bogus", 1.0)])
        with pytest.raises(SpecError):
            configure(HlfConfig(), [("block_size", 1.5)])

    def test_integral_floats_read_as_integers_in_every_section(self):
        spec = parse_experiment("[base]\neq = 1e2\n\n"
                                "[sim]\nbatch_count = 10.0\n"
                                "max_events = 1e6\n"
                                "seed = 12345678901234567891\n")
        assert spec.base.eq == 100 and type(spec.base.eq) is int
        assert spec.sim.batch_count == 10
        assert type(spec.sim.batch_count) is int
        assert spec.sim.max_events == 1_000_000
        assert type(spec.sim.max_events) is int
        assert spec.sim.seed == 12345678901234567891  # not rounded to a float

    def test_sweep_and_doe_are_exclusive(self):
        text = SPEC_TEXT + "\n[doe]\nfactors = block_size:1:10\n"
        with pytest.raises(SpecError):
            parse_experiment(text)

    def test_doe_section(self):
        spec = parse_experiment("""
[base]
arrival_rate_tps = 100
[doe]
factors = block_size:1:10, timeout_s:0.1:100
response = tp_tps
""")
        assert spec.sweep == (("block_size", (1.0, 10.0)),
                              ("timeout_s", (0.1, 100.0)))
        assert spec.doe_response == "tp_tps"

    @pytest.mark.parametrize("text,fragment", [
        ("[sweep]\nparameter = cp\n", "must appear together"),
        ("[sweep]\nparameter = cp\nvalues =\n", "empty"),
        ("[doe]\nfactors = cp:1\n", "name:low:high"),
        ("[doe]\nresponse = x\n", "without factors"),
        ("[sim]\nbogus = 1\n", "unknown key"),
        ("[outputs]\nmetrics = nope\n", "unknown metric"),
    ])
    def test_malformed_specs(self, text, fragment):
        with pytest.raises(SpecError) as exc_info:
            parse_experiment(text)
        assert fragment in str(exc_info.value)


class TestSweeps:
    def test_rows_follow_spec_order_with_indexed_seeds(self):
        spec = ExperimentSpec(
            base=HlfConfig().with_arrival_rate(20.0), sim=FAST_SIM,
            sweep=(("arrival_rate_tps", (10.0, 20.0)),
                   ("cp", (2.0, 6.0))))
        rows = list(run_sweep(spec))
        assert [r.point for r in rows] == [
            {"arrival_rate_tps": 10.0, "cp": 2.0},
            {"arrival_rate_tps": 10.0, "cp": 6.0},
            {"arrival_rate_tps": 20.0, "cp": 2.0},
            {"arrival_rate_tps": 20.0, "cp": 6.0},
        ]
        assert [r.seed for r in rows] == [2, 3, 4, 5]

    def test_parallel_execution_is_equivalent(self):
        spec = ExperimentSpec(
            base=HlfConfig().with_arrival_rate(20.0), sim=FAST_SIM,
            sweep=(("arrival_rate_tps", (10.0, 30.0)),))
        serial = list(run_sweep(spec, jobs=1))
        parallel = list(run_sweep(spec, jobs=2))
        assert len(serial) == len(parallel) == 2
        assert serial == parallel

    def test_the_pool_has_at_most_one_worker_per_point(self, monkeypatch):
        # a process pool forks all its workers at the first submit, so a
        # large --jobs on a few points must not reach it
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        spec = ExperimentSpec(
            base=HlfConfig().with_arrival_rate(20.0), sim=FAST_SIM,
            sweep=(("arrival_rate_tps", (10.0, 30.0)),))
        assert list(run_sweep(spec, jobs=64)) == list(run_sweep(spec, jobs=1))
        assert sizes == [2]

    def test_parallel_doe_is_equivalent(self):
        spec = ExperimentSpec(
            base=HlfConfig().with_arrival_rate(20.0), sim=FAST_SIM,
            sweep=(("cp", (2, 6)),), doe_response="mrt_s")
        serial = list(run_sweep(spec, jobs=1))
        parallel = list(run_sweep(spec, jobs=2))
        assert len(serial) == len(parallel) == 2
        assert serial == parallel

    def test_csv_layout_and_reproducibility(self, tmp_path):
        spec = ExperimentSpec(
            base=HlfConfig().with_arrival_rate(20.0), sim=FAST_SIM,
            sweep=(("arrival_rate_tps", (10.0, 20.0)),),
            metrics=("tp_tps", "dp_prob"))
        rows = list(run_sweep(spec))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(p1, rows, spec.metrics)
        write_rows_csv(p2, list(run_sweep(spec)), spec.metrics)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["arrival_rate_tps", "tp_tps", "tp_tps_ci",
                            "dp_prob", "dp_prob_ci", "seed",
                            "simulated_time_s", "events"]
        assert len(table) == 3
        assert float(table[1][1]) == pytest.approx(10.0, rel=0.1)

    def test_doe_runs_standard_order(self):
        spec = ExperimentSpec(
            base=HlfConfig().with_arrival_rate(20.0), sim=FAST_SIM,
            sweep=(("cp", (2, 6)),), doe_response="tp_tps")
        rows = list(run_sweep(spec))
        assert len(rows) == 2
        assert rows[0].point == {"cp": 2}
        assert rows[1].point == {"cp": 6}

    def test_doe_levels_given_high_first_keep_their_order(self, tmp_path):
        # the first level given is the low (-1) level, whichever is larger
        spec = parse_experiment("""
[base]
arrival_rate_tps = 20
[sim]
warmup_time = 5
batch_count = 3
batch_length = 5
[doe]
factors = cp:6:2, block_size:1:3
[outputs]
metrics = tp_tps
""")
        run_experiment(spec, tmp_path)
        with open(tmp_path / "doe_runs.csv", newline="") as fh:
            runs = [row[:2] for row in csv.reader(fh)]
        assert runs == [["cp", "block_size"], ["6", "1"], ["6", "3"],
                        ["2", "1"], ["2", "3"]]
        with open(tmp_path / "interaction_cp_block_size.csv",
                  newline="") as fh:
            cells = [row[:2] for row in csv.reader(fh)]
        assert cells == [["a_level", "b_level"], ["6", "1"], ["6", "3"],
                         ["2", "1"], ["2", "3"]]


    def test_exact_evaluator_shares_one_chain_across_rates(self,
                                                           monkeypatch):
        # the points run in one process in order, so a sweep over rates
        # compiles and generates its chain once (ctmc._chains)
        monkeypatch.setattr(ctmc, "_chains", {})
        compiled = []
        real = ctmc.compile_net
        monkeypatch.setattr(ctmc, "compile_net",
                            lambda net: compiled.append(net) or real(net))
        spec = ExperimentSpec(
            base=HlfConfig(arrival_dist="exponential",
                           timeout_dist="exponential", n_endorsers=1,
                           n_committers=1, eq=2, oq=2, cq=2, ep=1, op=1,
                           cp=1).with_arrival_rate(5.0),
            sim=FAST_SIM, sweep=(("arrival_rate_tps", (5.0, 8.0, 11.0)),))
        rows = list(run_sweep(spec, evaluate=partial(solve_config,
                                                     max_states=1000)))
        assert len(compiled) == 1
        assert [row.result.n_states for row in rows] == [368] * 3
        for point, row in zip(spec.points(), rows):
            handle = build_hlf_net(configure(spec.base, point))
            result = solve_ctmc(handle.net, standard_queries(handle))
            assert row.report == metric_report(result, handle)


GOLDEN_SPEC = """
[base]
block_size = 6
timeout_s = 0.2

[sim]
warmup_time = 20
batch_count = 2
batch_length = 5
seed = 11

[sweep]
parameter = arrival_rate_tps
values = 10, 50, 150
"""

# One point per regime: 10 tps is cut by the timeout only, 50 tps fills
# every block, 150 tps saturates commit (75 tps) and discards arrivals.
GOLDEN_CSV = """\
arrival_rate_tps,mrt_s,mrt_s_ci,tip,tip_ci,dp_prob,dp_prob_ci,u_end,u_end_ci,\
u_ord,u_ord_ci,u_com,u_com_ci,tp_tps,tp_tps_ci,block_call_rate,\
block_call_rate_ci,timeout_call_rate,timeout_call_rate_ci,seed,\
simulated_time_s,events\r
10,0.3203594927,0.2089506548,3.203594927,2.089506548,0,0,0.004062779861,\
0.00607201283,0.21081634,0.1948753452,0.1528508784,0.07535003047,11.46381588,\
5.651252285,0,0,4.721647761,12.04356496,11,30,4593\r
50,0.254084848,0.03863058466,12.7042424,1.931529233,0,0,0.01984193265,\
0.008277082477,0.5503369133,0.0518019984,0.6693737627,0.01336986647,\
50.2030322,1.002739985,9.094351586,3.057940973,0,0,12,30,20450\r
150,6.386149311,6.788939924,448.1946938,180.1046459,0.4976651101,\
0.3093709217,1,0,1,0,0.9770433305,0.2916921427,73.27824979,21.8769107,\
12.95699729,26.14577873,0,0,13,30,35670\r
"""


def test_fixed_seed_sweep_csv_is_pinned(tmp_path):
    # the simulator's random draw order is part of its output: any change
    # to it (or to the model) shows up here as changed bytes
    written = run_experiment(parse_experiment(GOLDEN_SPEC), tmp_path)
    assert written[0].read_bytes().decode() == GOLDEN_CSV


def test_effects_and_interaction_csvs_are_pinned(tmp_path):
    # a fixed design and synthetic responses: no simulation runs
    spec = ExperimentSpec(
        base=HlfConfig(), sim=FAST_SIM, doe_response="mrt_s",
        sweep=(("block_size", (1, 10)), ("timeout_s", (0.1, 100.0)),
               ("cp", (2, 6))))
    responses = [0.5, 2.0, 1.0, 8.0, 0.25, 4.0, 3.0, 10.0 / 3.0]
    write_effects_csv(tmp_path / "effects.csv",
                      [name for name, _ in spec.sweep], responses)
    write_interaction_csv(tmp_path / "interaction.csv", spec.points(),
                          responses, "block_size", "cp")
    assert (tmp_path / "effects.csv").read_bytes() == (
        b"term,effect,abs_rank\r\n"
        b"block_size,-0.2291666667,7\r\n"
        b"timeout_s,2.145833333,3\r\n"
        b"cp,3.145833333,1\r\n"
        b"block_size*timeout_s,-1.104166667,4\r\n"
        b"block_size*cp,-1.104166667,4\r\n"
        b"timeout_s*cp,0.5208333333,6\r\n"
        b"block_size*timeout_s*cp,-2.229166667,2\r\n")
    assert (tmp_path / "interaction.csv").read_bytes() == (
        b"a_level,b_level,mean_response\r\n"
        b"1,2,0.75\r\n1,6,5\r\n10,2,1.625\r\n10,6,3.666666667\r\n")


class TestCaseStudyCatalog:
    def test_ids(self):
        assert CASE_STUDY_IDS == (1, 2, 3, 4)
        with pytest.raises(SpecError):
            case_study_specs(9)

    def test_first_scenario_grid(self):
        specs = case_study_specs(1)
        assert set(specs) == {"cs1_cp2", "cs1_cp4", "cs1_cp6"}
        name, values = specs["cs1_cp6"].sweep[0]
        assert name == "arrival_rate_tps"
        assert values[0] == 2.5
        assert values[1] - values[0] == pytest.approx(15.0)
        assert values[-1] <= 200.0
        assert specs["cs1_cp6"].base.block_size == 1
        assert specs["cs1_cp6"].base.timeout_s == 10.0
        assert specs["cs1_cp2"].base.cp == 2

    def test_second_scenario_axes(self):
        specs = case_study_specs(2)
        blocks = dict(specs["cs2_block"].sweep)["block_size"]
        assert blocks == tuple(float(b) for b in range(1, 11))
        assert specs["cs2_block"].base.timeout_s == 100.0
        assert specs["cs2_block"].base.arrival_rate_tps == \
            pytest.approx(100.0)
        assert specs["cs2_timeout"].base.block_size == 10

    def test_third_scenario_sweeps_timeout_to_two_seconds(self):
        spec = case_study_specs(3)["cs3"]
        name, values = spec.sweep[0]
        assert name == "timeout_s"
        assert values[0] <= 0.01
        assert values[-1] == 2.0
        assert spec.base.block_size == 6

    def test_fourth_scenario_is_a_five_factor_doe(self):
        spec = case_study_specs(4)["cs4"]
        assert [name for name, _ in spec.sweep] == \
            ["block_size", "timeout_s", "ep", "op", "cp"]
        assert spec.doe_response == "mrt_s"


def test_all_metric_names_are_report_fields():
    from hlfspn.metrics import MetricReport
    import dataclasses
    assert set(METRIC_NAMES) == \
        {f.name for f in dataclasses.fields(MetricReport)}
