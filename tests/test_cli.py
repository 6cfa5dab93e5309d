"""Command-line interface: subcommands, exit codes, artifacts."""

import csv
import pickle

import pytest

from hlfspn import cli
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
    DivergenceError,
    EvaluationError,
    ExpectedTokens,
    ExplosionError,
    LivelockError,
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

TINY_CONFIG = "arrival_rate_tps = 50\nblock_size = 2\n"


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


@pytest.mark.parametrize("spec_text,argv", [
    ("[sim]\nbatch_count = three\n", ["run"]),
    ("[doe]\nfactors = block_size:1:2, block_size:1:3\n", ["run"]),
    ("[doe]\nfactors = " + ", ".join(f"x{i}:0:1" for i in range(13)),
     ["run"]),
    (None, ["case-study", "3", "--batches", "1"]),
    (None, ["case-study", "3", "--confidence", "1.5"]),
], ids=["sim-int", "doe-duplicate", "doe-13-factors", "batches",
        "confidence"])
def test_malformed_input_exits_with_one_error_line(tmp_path, capsys,
                                                   monkeypatch, spec_text,
                                                   argv):
    def no_run(*args, **kwargs):
        raise AssertionError("the input should be rejected before a run")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    if spec_text is not None:
        spec = tmp_path / "spec.ini"
        spec.write_text(spec_text)
        argv = [*argv, str(spec)]
    assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestExportDot:
    def test_deterministic_and_complete(self, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(TINY_CONFIG)
        assert main(["export-dot", str(cfg)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["export-dot", str(cfg)]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("digraph")
        for name in ("P_GT", "EQ_1", "OPF3_1", "CLK_RUN", "TI6", "TI7",
                     "TE6", "CPF_2"):
            assert f'"{name}"' in first

    def test_bad_config_is_a_parse_error(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("block_size = maybe\n")
        assert main(["export-dot", str(cfg)]) == EXIT_PARSE


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

    def test_sweep_spec_rejected(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        assert main(["solve", str(spec)]) == EXIT_PARSE

    def test_mode_overrides_the_spec(self, tmp_path, monkeypatch):
        modes = []
        real = cli.metric_report

        def spy(result, handle, mode):
            modes.append(mode)
            return real(result, handle, mode=mode)

        monkeypatch.setattr(cli, "metric_report", spy)
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC)
        assert main(["solve", str(spec)]) == EXIT_OK
        assert main(["solve", str(spec), "--mode", "literal"]) == EXIT_OK
        assert modes == ["effective", "literal"]

    @pytest.mark.parametrize("flags", [
        ["--jobs", "2"], ["--seed", "3"], ["--out-dir", "out"],
        ["--confidence", "0.9"],
    ])
    def test_simulation_flags_rejected_by_argparse(self, tmp_path, flags):
        # an exact solve draws no samples and writes no CSV
        spec = tmp_path / "spec.ini"
        spec.write_text(SOLVE_SPEC)
        with pytest.raises(SystemExit) as info:
            main(["solve", str(spec), *flags])
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
                     "--mode", "literal", "--confidence", "0.9"]) == EXIT_OK
        assert len(specs) == len(case_study_specs(case_id))
        for spec in specs:
            assert spec.mrt_mode == "literal"
            assert spec.sim.confidence_level == 0.9

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
        (EvaluationError("undeclared parameter 'BLOCK'"), EXIT_PARSE),
    ])
    def test_model_errors_map_to_documented_exits(self, tmp_path, capsys,
                                                  monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "solve_ctmc", fail)
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
