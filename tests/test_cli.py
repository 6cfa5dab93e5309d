"""Command-line interface: subcommands, exit codes, artifacts."""

import csv
import hashlib
import pickle
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from hlfspn import cli, experiments
from hlfspn.cli import (
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_PARSE,
    main,
)
from hlfspn.experiments import CASE_STUDY_IDS, case_study_specs
from hlfspn.metrics import MissingQueryError, UndefinedMetricError
from hlfspn.spn import (
    ContractViolationError,
    DivergenceError,
    ExpectedTokens,
    ExplosionError,
    LivelockError,
    NumericalSolveError,
    PartialResultError,
    SingularGeneratorError,
)

TINY_SPEC = """
[base]
arrival_rate_tps = 20

[sim]
warmup_time = 5
batch_count = 3
batch_length = 5
seed = 1

[sweep]
parameter = arrival_rate_tps
values = 10, 20

[outputs]
results = tiny.csv
metrics = tp_tps, dp_prob
"""

SOLVE_SPEC = """
[base]
arrival_rate_tps = 5
arrival_dist = exponential
timeout_dist = exponential
n_endorsers = 1
n_committers = 1
eq = 2
oq = 2
cq = 2
ep = 1
op = 1
cp = 1
"""

DOT_SPEC = "[base]\narrival_rate_tps = 50\nblock_size = 2\n"


class TestRun:
    def test_writes_csv_and_prints_path(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        code = main(["run", str(spec), "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        out_path = tmp_path / "tiny.csv"
        assert str(out_path) in capsys.readouterr().out
        with open(out_path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0][:3] == ["arrival_rate_tps", "tp_tps", "tp_tps_ci"]
        assert len(table) == 3

    def test_seed_override_changes_output(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        main(["run", str(spec), "--out-dir", str(tmp_path / "a")])
        main(["run", str(spec), "--out-dir", str(tmp_path / "b"),
              "--seed", "99"])
        a = (tmp_path / "a" / "tiny.csv").read_text()
        b = (tmp_path / "b" / "tiny.csv").read_text()
        assert a != b

    def test_missing_file_is_a_parse_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_PARSE

    def test_malformed_spec_is_a_parse_error(self, tmp_path):
        spec = tmp_path / "bad.ini"
        spec.write_text("[sweep]\nparameter = cp\n")
        assert main(["run", str(spec)]) == EXIT_PARSE

    def test_unwritable_output_maps_to_output_exit(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the output directory should be")
        assert main(["run", str(spec), "--out-dir", str(blocker)]) == \
            EXIT_OUTPUT

    def test_event_cap_maps_to_divergence_exit(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC.replace("seed = 1",
                                          "seed = 1\nmax_events = 10"))
        assert main(["run", str(spec), "--out-dir",
                     str(tmp_path)]) == EXIT_DIVERGED

    def test_worker_errors_read_as_in_process(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC.replace("seed = 1",
                                          "seed = 1\nmax_events = 10"))
        errs = []
        for jobs in ("1", "2"):
            assert main(["run", str(spec), "--out-dir", str(tmp_path),
                         "--jobs", jobs]) == EXIT_DIVERGED
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "event cap of 10 exceeded" in errs[1]

    def test_run_without_arrivals_maps_to_divergence_exit(self, tmp_path,
                                                          capsys):
        # the first deterministic arrival comes after the last batch, so
        # the discard probability has no arrival to divide by
        spec = tmp_path / "spec.ini"
        spec.write_text("[base]\narrival_rate_tps = 0.01\n\n[sim]\n"
                        "warmup_time = 0\nbatch_count = 2\n"
                        "batch_length = 1\n")
        assert main(["run", str(spec), "--out-dir",
                     str(tmp_path)]) == EXIT_DIVERGED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: no usable estimate:")


@pytest.mark.parametrize("spec_text,argv,key", [
    ("[sim]\nbatch_count = three\n", ["run"], "batch_count"),
    ("[doe]\nfactors = block_size:1:2, block_size:1:3\n", ["run"],
     "[doe] 'block_size' and 'block_size'"),
    ("[doe]\nfactors = " + ", ".join(f"x{i}:0:1" for i in range(13)),
     ["run"], "factors"),
    (None, ["case-study", "3", "--batches", "1"], "--batches"),
    (None, ["case-study", "3", "--confidence", "1.5"], "--confidence"),
    ("[base]\narrival_rate_tps = 20\n\n[sim]\nbatch_length = nan\n",
     ["run"], "batch_length"),
    ("[base]\narrival_rate_tps = 20\n\n[sim]\nwarmup_time = nan\n",
     ["run"], "warmup_time"),
    (None, ["case-study", "3", "--jobs", "0"], "--jobs"),
    (TINY_SPEC, ["run", "--jobs", "-1"], "--jobs"),
    (SOLVE_SPEC, ["solve", "--max-states", "0"], "--max-states"),
    ("[base]\narrival_rate_tps = 20\n\n[Sim]\nbatch_count = 2\n",
     ["run"], "[Sim]"),
    (TINY_SPEC.replace("parameter =", "paramter2 = cp\nparameter ="),
     ["run"], "paramter2"),
    ("[base]\narrival_rate_tps = 20\nmrt_mode = literal\n", ["run"],
     "mrt_mode"),
    (TINY_SPEC.replace("parameter = arrival_rate_tps", "parameter = cp")
     .replace("values = 10, 20", "values = 2, 4\nparameter2 = CP\n"
              "values2 = 4, 5"), ["run"], "'cp' and 'CP'"),
    (TINY_SPEC.replace("values = 10, 20", "values = 10, 20\n"
                       "parameter2 = arrival_rate_tps\nvalues2 = 4, 5"),
     ["run"], "'arrival_rate_tps' and 'arrival_rate_tps'"),
    ("[doe]\nfactors = arrival_rate_tps:10:20, ad:0.5:1\n", ["run"],
     "'arrival_rate_tps' and 'ad'"),
    ("[base]\narrival_rate_tps = 20\n\n[sim]\nwarmup_time = inf\n",
     ["run"], "warmup_time"),
    ("[base]\narrival_rate_tps = 20\n\n[sim]\nbatch_length = inf\n",
     ["run"], "batch_length"),
    ("[base]\narrival_rate_tps = 20\nte7 = inf\n", ["run"], "te7"),
    ("[base]\narrival_rate_tps = 20\nblock = 2\nblock_size = 6\n", ["run"],
     "[base] 'block' and 'block_size'"),
    ("[base]\narrival_rate_tps = 10\nad = 0.5\n", ["run"],
     "[base] 'arrival_rate_tps' and 'ad'"),
    (TINY_SPEC.replace("parameter = arrival_rate_tps",
                       "parameter = block_size")
     .replace("values = 10, 20", "values = 2, 2.5"), ["run"],
     "[sweep] block_size must be an integer"),
    ("[base]\narrival_rate_tps = 20\n\n[doe]\nfactors = cp:0:6\n", ["run"],
     "[doe] cp must be >= 1"),
    ("[base]\narrival_rate_tps = 20\ntimeout_s = inf\n"
     "timeout_dist = exponential\n", ["run"], "[base] timeout_s"),
    ("[DEFAULT]\nblock_size = 3\n", ["run"], "unknown section [DEFAULT]"),
    ("[DEFAULT]\nblock_size = 3\n\n[base]\narrival_rate_tps = 20\n\n"
     "[sim]\nbatch_count = 2\n", ["run"], "unknown section [DEFAULT]"),
    ("[DEFAULT]\n[base]\narrival_rate_tps = 20\n", ["run"],
     "unknown section [DEFAULT]"),
    (TINY_SPEC.replace("metrics = tp_tps, dp_prob", "metrics ="), ["run"],
     "[outputs] metrics is empty"),
    (TINY_SPEC.replace("metrics = tp_tps, dp_prob", "metrics = mrt_s, mrt_s"),
     ["run"], "[outputs] metrics lists 'mrt_s' twice"),
    (TINY_SPEC.replace("results = tiny.csv", "results ="), ["run"],
     "[outputs] results is empty"),
    (TINY_SPEC.replace("values = 10, 20", "values = 10, inf"), ["run"],
     "[sweep] arrival_rate_tps must be finite and positive"),
    ("[base]\narrival_rate_tps = 1e-320\n", ["run"],
     "[base] arrival_rate_tps must be finite and positive"),
    ("[base]\narrival_rate_tps = 20\n\n[doe]\nfactors = cp:1:2\n"
     "response = nope\n", ["run"], "[doe] unknown response metric 'nope'"),
    (TINY_SPEC.replace("metrics = tp_tps, dp_prob", "metrics = mrt_s, nope"),
     ["run"], "[outputs] unknown metric 'nope'"),
    (TINY_SPEC.replace("values = 10, 20", "values = 2, x"), ["run"],
     "[sweep] values: could not convert"),
    ("[base]\narrival_rate_tps = 20\n\n[doe]\nfactors = cp:2:x\n", ["run"],
     "[doe] factor 'cp:2:x'"),
    ("[base]\narrival_rate_tps = 20\n\n[sim]\nmax_events = 0\n", ["run"],
     "[sim] max_events must be positive"),
], ids=["sim-int", "doe-duplicate", "doe-13-factors", "batches",
        "confidence", "sim-nan-length", "sim-nan-warmup", "jobs-0",
        "jobs-negative", "max-states-0", "unknown-section", "unknown-key",
        "mrt-mode", "sweep-alias", "sweep-same-name", "doe-alias",
        "sim-inf-warmup", "sim-inf-length", "te7-inf", "base-block-alias",
        "base-rate-and-delay", "sweep-non-integer", "doe-zero-capacity",
        "exponential-inf-timeout", "default-section",
        "default-section-with-sim", "empty-default-section", "no-metrics",
        "repeated-metric", "empty-results", "sweep-inf-rate",
        "base-tiny-rate", "doe-unknown-response", "unknown-metric",
        "sweep-non-number", "doe-non-number", "sim-max-events-0"])
def test_malformed_input_exits_with_one_error_line(tmp_path, capsys,
                                                   monkeypatch, spec_text,
                                                   argv, key):
    def no_run(*args, **kwargs):
        raise AssertionError("the input should be rejected before a run")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(experiments, "solve_ctmc", no_run)
    if spec_text is not None:
        spec = tmp_path / "spec.ini"
        spec.write_text(spec_text)
        argv = [*argv, str(spec)]
    if argv[0] != "solve":  # solve writes no file
        argv = [*argv, "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert key in err


@pytest.mark.parametrize("key", ["te7", "timeout_s", "arrival_delay_s"])
def test_nan_model_parameter_is_a_parse_error(tmp_path, capsys, key):
    rate = "" if key == "arrival_delay_s" else "arrival_rate_tps = 20\n"
    spec = tmp_path / "spec.ini"
    # timeout_s = inf is accepted
    for value in ("nan",) if key == "timeout_s" else ("nan", "inf"):
        spec.write_text(f"[base]\n{rate}block_size = 6\n{key} = {value}\n\n"
                        "[sim]\nwarmup_time = 0\nbatch_count = 2\n"
                        "batch_length = 2\n\n[outputs]\nresults = out.csv\n")
        assert main(["run", str(spec), "--out-dir", str(tmp_path)]) == \
            EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and key in err[0]
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["run", "solve", "export-dot"])
def test_unreadable_spec_is_a_parse_error(tmp_path, capsys, command):
    # a spec that is not UTF-8, and a directory in place of a spec
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("[base]\n# d\xe9lai\narrival_rate_tps = 20\n"
                       .encode("latin-1"))
    for path in (latin1, tmp_path):
        assert main([command, str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read spec {path}: ")
        assert len(err.splitlines()) == 1


class TestExportDot:
    def test_deterministic_and_complete(self, tmp_path, capsys):
        cfg = tmp_path / "spec.ini"
        cfg.write_text(DOT_SPEC)
        assert main(["export-dot", str(cfg)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["export-dot", str(cfg)]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("digraph")
        for name in ("P_GT", "EQ_1", "OPF3_1", "CLK_RUN", "TI6", "TI7",
                     "TE6", "CPF_2"):
            assert f'"{name}"' in first
        # the spec's block size of 2 on TI6's arcs and guard
        assert '"OPF3_1" -> "TI6" [label="2"]' in first
        assert '"TI6" -> "BLKTX_1" [label="2"]' in first
        assert "#OPF3_1 >= 2" in first

    @pytest.mark.parametrize("base, lines, sha256", [
        pytest.param(
            "block_size = 4\ntimeout_s = 2\narrival_rate_tps = 40\n"
            "n_endorsers = 3\nn_committers = 3\n", 173,
            "889dbb878e4a441fb3693fc72987b6c7296642b484b13c8968d4cc58125b273b",
            id="3x3"),
        pytest.param(
            "arrival_rate_tps = 100\n", 137,
            "722480dc582fb6e074217cac2386d10c2a6e46ab2752376614a5a6db23c345ba",
            id="default"),
        pytest.param(  # the benchmark's exponential 1x1 net
            "n_endorsers = 1\nn_committers = 1\nblock_size = 2\n"
            "timeout_s = 0.5\nep = 2\ncp = 2\neq = 4\noq = 4\ncq = 5\n"
            "op = 3\narrival_rate_tps = 20\narrival_dist = exponential\n"
            "timeout_dist = exponential\n", 101,
            "df713f05c60d7d3af440067c0c3ed662b53a725c862bbc52548db55a93de9c85",
            id="1x1-exponential"),
    ])
    def test_whole_net_dot_is_pinned(self, tmp_path, capsys, base, lines,
                                     sha256):
        # line count and SHA-256 of `hlfspn export-dot` on each spec, the
        # 3x3 one recorded when arc counts and guard thresholds were still
        # wrapped values and the others before the net builder shared one
        # stage sub-net; a refactor of the net model, its builder or the
        # renderer keeps every byte
        cfg = tmp_path / "spec.ini"
        cfg.write_text("[base]\n" + base)
        assert main(["export-dot", str(cfg)]) == EXIT_OK
        dot = capsys.readouterr().out
        assert len(dot.splitlines()) == lines
        assert hashlib.sha256(dot.encode()).hexdigest() == sha256

    def test_bad_config_is_a_parse_error(self, tmp_path):
        cfg = tmp_path / "spec.ini"
        cfg.write_text("[base]\nblock_size = maybe\n")
        assert main(["export-dot", str(cfg)]) == EXIT_PARSE

    def test_arrival_rate_fallback_and_sweep_rejection(self, tmp_path,
                                                       capsys):
        # the rate sets only the arrival delay, which the DOT labels show
        cfg = tmp_path / "spec.ini"
        cfg.write_text("[base]\nblock_size = 2\n")
        assert main(["export-dot", str(cfg), "--arrival-rate", "50"]) == \
            EXIT_OK
        fallback = capsys.readouterr().out
        cfg.write_text(DOT_SPEC)
        assert main(["export-dot", str(cfg), "--arrival-rate", "10"]) == \
            EXIT_OK
        assert capsys.readouterr().out == fallback
        cfg.write_text(TINY_SPEC)
        assert main(["export-dot", str(cfg)]) == EXIT_PARSE
        assert "export-dot expects a single-point spec" in \
            capsys.readouterr().err


class TestSolve:
    def test_exact_metrics_for_small_exponential_model(self, tmp_path,
                                                       capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC)
        assert main(["solve", str(spec)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tangible states:" in out
        assert "tp_tps = " in out
        tp = float([line for line in out.splitlines()
                    if line.startswith("tp_tps")][0].split("=")[1])
        assert tp == pytest.approx(5.0, rel=0.1)

    def test_deterministic_timing_is_rejected_with_hint(self, tmp_path,
                                                        capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("[base]\narrival_rate_tps = 20\n")
        assert main(["solve", str(spec)]) == EXIT_PARSE
        assert "exponential" in capsys.readouterr().err

    def test_doe_spec_rejected(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC + "\n[doe]\nfactors = cp:1:2\n")
        assert main(["solve", str(spec)]) == EXIT_PARSE
        assert "solve expects a single-point or [sweep] spec (no [doe])" \
            in capsys.readouterr().err

    def test_sweep_prints_each_points_single_point_block(self, tmp_path,
                                                          capsys):
        spec = tmp_path / "spec.ini"
        blocks = []
        for rate in ("5", "8"):
            spec.write_text(SOLVE_SPEC.replace("arrival_rate_tps = 5",
                                               f"arrival_rate_tps = {rate}"))
            assert main(["solve", str(spec)]) == EXIT_OK
            blocks.append(f"point: arrival_rate_tps = {rate}\n"
                          + capsys.readouterr().out)
        spec.write_text(SOLVE_SPEC + "\n[sweep]\nparameter = "
                        "arrival_rate_tps\nvalues = 5, 8\n")
        assert main(["solve", str(spec)]) == EXIT_OK
        assert capsys.readouterr().out == "".join(blocks)

    @pytest.mark.parametrize("sweep,flags,code,sha256,err", [
        ("", [], EXIT_OK,
         "b1d6cff331fc6d69a5176342bcd70dfce56257f85b8c35b981ac86576ce66476",
         ""),
        ("parameter = arrival_rate_tps\nvalues = 5, 8\n"
         "parameter2 = cq\nvalues2 = 2, 3\n", [], EXIT_OK,
         "a9ce86733bce5e22a1319a0990f14d348b31aa67813918b42949a0e5e20c9ec1",
         ""),
        ("parameter = cq\nvalues = 2, 4\n", ["--max-states", "400"],
         EXIT_DIVERGED,
         "58dcf999c710d05940f9463bf2e6f566e591091d442e813a568a3744f89a42e7",
         "error: no usable estimate: tangible state space exceeds 400 "
         "states (reached 401)\n"),
    ], ids=["single-point", "rate-by-capacity", "second-point-fails"])
    def test_solve_output_is_pinned(self, tmp_path, capsys, sweep, flags,
                                    code, sha256, err):
        # SHA-256 of `hlfspn solve`'s stdout, recorded when solve ran its
        # own loop over the points; a point that fails stops the run after
        # the points before it and its own `point:` line
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC + (f"\n[sweep]\n{sweep}" if sweep else ""))
        assert main(["solve", str(spec), *flags]) == code
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256
        assert captured.err == err

    def test_one_closed_class_that_fails_numerically(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC.replace("arrival_rate_tps = 5",
                                           "arrival_rate_tps = 1e300")
                        .replace("= 2", "= 1"))
        assert main(["solve", str(spec)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "one closed class, whose rates span 0.1 to 1e+300" in err
        assert "more than one closed class" not in err

    @pytest.mark.parametrize("flags", [
        ["--jobs", "2"], ["--seed", "3"], ["--out-dir", "out"],
        ["--confidence", "0.9"], ["--mode", "literal"],
    ])
    def test_simulation_flags_rejected_by_argparse(self, tmp_path, flags):
        # an exact solve draws no samples and writes no CSV; no subcommand
        # takes an MRT mode
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC)
        commands = [["solve", str(spec)]]
        if flags[0] == "--mode":
            commands += [["run", str(spec)], ["case-study", "1"]]
        for argv in commands:
            with pytest.raises(SystemExit) as info:
                main([*argv, *flags])
            assert info.value.code == 2


class TestCaseStudy:
    @pytest.mark.parametrize("case_id", CASE_STUDY_IDS)
    def test_mode_and_confidence_reach_every_spec(self, tmp_path,
                                                  monkeypatch, case_id):
        specs = []

        def capture(spec, out_dir, jobs=1):
            specs.append(spec)
            return []

        monkeypatch.setattr(cli, "run_experiment", capture)
        assert main(["case-study", str(case_id), "--out-dir", str(tmp_path),
                     "--confidence", "0.9"]) == EXIT_OK
        assert len(specs) == len(case_study_specs(case_id))
        for spec in specs:
            assert spec.sim.confidence_level == 0.9

    def test_seed_overrides_the_catalog_seed(self, tmp_path, monkeypatch):
        specs = []

        def capture(spec, out_dir, jobs=1):
            specs.append(spec)
            return []

        monkeypatch.setattr(cli, "run_experiment", capture)
        assert main(["case-study", "2", "--out-dir", str(tmp_path),
                     "--seed", "5"]) == EXIT_OK
        assert specs == [replace(spec, sim=replace(spec.sim, seed=5))
                         for spec in case_study_specs(2).values()]

    def test_defaults_run_the_catalog_specs(self, tmp_path, monkeypatch,
                                            capsys):
        specs = []

        def capture(spec, out_dir, jobs=1):
            specs.append(spec)
            return [tmp_path / spec.outputs["results"]]

        monkeypatch.setattr(cli, "run_experiment", capture)
        assert main(["case-study", "1", "--out-dir", str(tmp_path),
                     "--batches", "4"]) == EXIT_OK
        assert specs == list(case_study_specs(1, batch_count=4).values())
        assert capsys.readouterr().out.split() == [
            str(tmp_path / f"cs1_cp{cp}.csv") for cp in (2, 4, 6)]


class TestExitCodes:
    def test_state_space_cap_maps_to_divergence_exit(self, tmp_path,
                                                      capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC)
        assert main(["solve", str(spec), "--max-states", "10"]) == \
            EXIT_DIVERGED
        assert "exceeds 10 states" in capsys.readouterr().err

    @pytest.mark.parametrize("error,code", [
        (LivelockError(["TI5"]), EXIT_DIVERGED),
        (UndefinedMetricError("effective arrival rate is zero"),
         EXIT_DIVERGED),
        (SingularGeneratorError(), EXIT_DIVERGED),
        (NumericalSolveError(0.1, 1e300), EXIT_DIVERGED),
    ])
    def test_model_errors_map_to_documented_exits(self, tmp_path, capsys,
                                                  monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(experiments, "solve_ctmc", fail)
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC)
        assert main(["solve", str(spec)]) == code
        assert str(error) in capsys.readouterr().err


@pytest.mark.parametrize("error,attrs", [
    (PartialResultError(10), {"max_events": 10, "result": None}),
    (LivelockError(["TI5", "TI6"]), {"transitions": ["TI5", "TI6"]}),
    (DivergenceError("OQ_1"), {"place": "OQ_1"}),
    (ExplosionError(11, 10), {"count": 11, "max_states": 10}),
    (SingularGeneratorError(), {}),
    (MissingQueryError([ExpectedTokens("Q")]),
     {"missing": [ExpectedTokens("Q")]}),
    (ContractViolationError("unknown place 'Q'"), {}),
    (UndefinedMetricError("effective arrival rate is zero"), {}),
    (NumericalSolveError(0.1, 1e300), {"low": 0.1, "high": 1e300}),
])
def test_errors_survive_pickling(error, attrs):
    # a --jobs worker's exception reaches the parent process pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name, value in attrs.items():
        assert getattr(copy, name) == value


class TestParser:
    def test_unknown_case_study_id_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["case-study", "9"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        commands = [shlex.split(line)[1:]
                    for line in readme.read_text().splitlines()
                    if line.startswith("hlfspn ")]
        assert len(commands) >= 4
        for argv in commands:
            cli.build_parser().parse_args(argv)

    def test_readme_library_example_runs(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        code = readme.read_text().split("## Library\n\n```python\n")[1]
        exec(compile(code.split("```")[0], "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("MetricReport(mrt_s=")
