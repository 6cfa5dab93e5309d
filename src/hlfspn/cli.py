"""Command-line harness.

Subcommands::

    hlfspn run <spec.ini>          sweep or DoE experiment -> CSV
    hlfspn case-study <1|2|3|4>    built-in scenario -> CSV set
    hlfspn export-dot <config>     model config -> DOT on stdout
    hlfspn solve <spec.ini>        exact CTMC rewards (exponential-only)

Exit codes: 0 success, 2 parse or validation error, 3 no usable estimate
(see README), 4 output path not writable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    CASE_STUDY_IDS,
    SpecError,
    case_study_specs,
    load_experiment,
    run_experiment,
)
from .hlf import ConfigError, build_hlf_net, parse_config
from .metrics import METRIC_NAMES, metric_report, standard_queries
from .spn.ctmc import UnsupportedModelError, solve_ctmc
from .spn.net import EvaluationError, SpnError
from .spn.textfmt import to_dot

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIVERGED = 3
EXIT_OUTPUT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlfspn",
        description="Stochastic Petri net performance model of a "
                    "permissioned blockchain transaction flow.")
    sub = parser.add_subparsers(dest="command", required=True)

    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=("literal", "effective"),
                      default=None, help="MRT mode (default effective)")
    common = argparse.ArgumentParser(add_help=False, parents=[mode])
    common.add_argument("--seed", type=int, default=None,
                        help="override the base random seed")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel sweep points (default 1)")
    common.add_argument("--out-dir", default=".",
                        help="directory for CSV outputs")
    common.add_argument("--confidence", type=float, default=None,
                        help="confidence level for CIs, e.g. 0.95")

    p_run = sub.add_parser("run", parents=[common],
                           help="run a sweep or DoE spec")
    p_run.add_argument("spec", help="experiment spec (INI)")

    p_cs = sub.add_parser("case-study", parents=[common],
                          help="run a built-in case study")
    p_cs.add_argument("id", type=int, choices=CASE_STUDY_IDS)
    p_cs.add_argument("--batches", type=int, default=10,
                      help="batches per point (default 10)")

    p_dot = sub.add_parser("export-dot",
                           help="render a model config as DOT")
    p_dot.add_argument("config", help="flat key=value model config file")
    p_dot.add_argument("--arrival-rate", type=float, default=None,
                       help="arrival rate in tps if the config leaves it unset")

    p_solve = sub.add_parser("solve", parents=[mode],
                             help="exact CTMC rewards for a single-point spec")
    p_solve.add_argument("spec", help="experiment spec (INI), no sweep/doe")
    p_solve.add_argument("--max-states", type=int, default=50_000)
    return parser


def _apply_overrides(spec, args):
    sim = spec.sim
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    if args.confidence is not None:
        try:
            sim = replace(sim, confidence_level=args.confidence)
        except ValueError as exc:
            raise SpecError(f"--confidence {args.confidence}: {exc}") from exc
    spec = replace(spec, sim=sim)
    if args.mode is not None:
        spec = replace(spec, mrt_mode=args.mode)
    return spec


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "case-study":
            return _cmd_case_study(args)
        if args.command == "export-dot":
            return _cmd_export_dot(args)
        return _cmd_solve(args)
    except (SpecError, ConfigError, EvaluationError, UnsupportedModelError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnsupportedModelError):
            print("hint: set arrival_dist = exponential and timeout_dist = "
                  "exponential in [base]", file=sys.stderr)
        return EXIT_PARSE
    except SpnError as exc:
        print(f"error: no usable estimate: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def _cmd_run(args) -> int:
    spec = _apply_overrides(load_experiment(args.spec), args)
    written = run_experiment(spec, args.out_dir, jobs=args.jobs)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_case_study(args) -> int:
    seed = args.seed if args.seed is not None else 1
    specs = case_study_specs(args.id, seed=seed, batch_count=args.batches)
    for spec in specs.values():
        spec = _apply_overrides(spec, args)
        for path in run_experiment(spec, args.out_dir, jobs=args.jobs):
            print(path)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    if cfg.arrival_delay_s is None:
        rate = args.arrival_rate if args.arrival_rate is not None else 100.0
        cfg = cfg.with_arrival_rate(rate)
    handle = build_hlf_net(cfg)
    sys.stdout.write(to_dot(handle.net))
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec = load_experiment(args.spec)
    if spec.sweep or spec.doe_factors:
        raise SpecError("solve expects a single-point spec (no sweep/doe)")
    handle = build_hlf_net(spec.base)
    result = solve_ctmc(handle.net, standard_queries(handle),
                        max_states=args.max_states)
    report = metric_report(result, handle, mode=args.mode or spec.mrt_mode)
    print(f"tangible states: {result.n_states}")
    for name in METRIC_NAMES:
        print(f"{name} = {getattr(report, name).value:.10g}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
