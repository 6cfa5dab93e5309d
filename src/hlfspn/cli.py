"""Command-line harness.

Subcommands (all but export-dot evaluate points with `run_sweep`)::

    hlfspn run <spec.ini>          sweep or DoE, simulated -> CSV
    hlfspn case-study <1|2|3|4>    built-in scenario, simulated -> CSV set
    hlfspn export-dot <spec.ini>   the [base] model -> DOT on stdout
    hlfspn solve <spec.ini>        exact CTMC rewards per point
                                   (exponential-only, no [doe])

Exit codes: 0 success, 2 parse or validation error, 3 no usable estimate
(see README), 4 output path not writable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial

from .experiments import (
    CASE_STUDY_IDS,
    SpecError,
    case_study_specs,
    configure,
    load_experiment,
    run_experiment,
    run_sweep,
    solve_config,
)
from .hlf import ConfigError, build_hlf_net
from .metrics import METRIC_NAMES
from .spn.ctmc import UnsupportedModelError
from .spn.net import SpnError
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

    common = argparse.ArgumentParser(add_help=False)
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
                           help="render a single-point spec's model as DOT")
    p_dot.add_argument("spec", help="experiment spec (INI), no sweep/doe")
    p_dot.add_argument("--arrival-rate", type=float, default=None,
                       help="arrival rate in tps if [base] leaves it unset")

    p_solve = sub.add_parser(
        "solve", help="exact CTMC rewards for each point of a spec")
    p_solve.add_argument("spec", help="experiment spec (INI), no doe")
    p_solve.add_argument("--max-states", type=int, default=50_000)
    return parser


def _apply_overrides(spec, args):
    sim = spec.sim
    for flag, key in (("seed", "seed"), ("confidence", "confidence_level")):
        value = getattr(args, flag)
        if value is not None:
            sim = configure(sim, [(key, value)], f"--{flag} {value}: ")
    return replace(spec, sim=sim)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("jobs", "max_states"):
            value = getattr(args, flag, 1)
            if value < 1:
                raise SpecError(f"--{flag.replace('_', '-')} {value}: "
                                "must be at least 1")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "case-study":
            return _cmd_case_study(args)
        if args.command == "export-dot":
            return _cmd_export_dot(args)
        return _cmd_solve(args)
    except (SpecError, ConfigError, UnsupportedModelError) as exc:
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
    for path in run_experiment(spec, args.out_dir, jobs=args.jobs):
        print(path)
    return EXIT_OK


def _cmd_case_study(args) -> int:
    specs = case_study_specs(args.id, batch_count=args.batches)
    for spec in specs.values():
        spec = _apply_overrides(spec, args)
        for path in run_experiment(spec, args.out_dir, jobs=args.jobs):
            print(path)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    spec = load_experiment(args.spec)
    if spec.sweep:
        raise SpecError("export-dot expects a single-point spec "
                        "(no sweep/doe)")
    cfg = spec.base
    if cfg.arrival_delay_s is None:
        rate = args.arrival_rate if args.arrival_rate is not None else 100.0
        cfg = configure(cfg, [("arrival_rate_tps", rate)],
                        f"--arrival-rate {rate}: ")
    handle = build_hlf_net(cfg)
    sys.stdout.write(to_dot(handle.net))
    return EXIT_OK


def _cmd_solve(args) -> int:
    """Solve each point of a single-point or [sweep] spec with run_sweep's
    exact evaluator, in order in one process: points of one structure share
    its chain (see spn.ctmc). A sweep point's lines follow one naming it."""
    spec = load_experiment(args.spec)
    if spec.doe_response is not None:
        raise SpecError("solve expects a single-point or [sweep] spec "
                        "(no [doe])")
    rows = run_sweep(spec, evaluate=partial(solve_config,
                                            max_states=args.max_states))
    for point in spec.points():
        if point:
            print("point: " + ", ".join(f"{name} = {value:.10g}"
                                        for name, value in point))
        row = next(rows)  # solved here, after its `point:` line
        print(f"tangible states: {row.result.n_states}")
        for name in METRIC_NAMES:
            print(f"{name} = {getattr(row.report, name).value:.10g}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
