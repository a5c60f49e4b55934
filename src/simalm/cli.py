"""Command-line interface for the experiment harness.

Subcommands: generate, solve, table, seqsim, bounds. main draws the
instance once per call, from the configuration seed with prepare_bundle,
and hands that bundle to the subcommand; only generate writes the instance
files, and no subcommand reads them. Exit codes: 0 success, 2 configuration
error, 3 convergence-cap failure.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .experiments import (ExperimentConfig, bound_inputs_for_run,
                          prepare_bundle, run_seq_vs_sim, run_solve, run_table,
                          save_bundle, write_seqsim, write_table, _schedule)
from .bounds import bound_report
from .inner_apg import BudgetError
from .outer_alm import BOUND_COLUMNS, ScheduleError, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="simalm",
        description="portfolio experiments for the learning-while-optimizing "
                    "multiplier scheme")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("generate", "draw the instance and compute reference quantities"),
        ("solve", "run one regime at one accuracy and write its trace"),
        ("table", "run the accuracy sweep and write the results table"),
        ("seqsim", "compare sequential baselines with the interleaved run"),
        ("bounds", "evaluate theoretical constants and bound curves"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--epsilon", type=float, nargs="+",
                       help="override the accuracy list")
        p.add_argument("--regime", choices=["constant", "increasing"])
        p.add_argument("--spec", choices=["known", "learned"],
                       help="parameter specification")
    return parser


def _load_config(args):
    if args.config:
        config = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.epsilon is not None:
        overrides["epsilon"] = tuple(args.epsilon)
    if args.regime is not None:
        overrides["regime"] = args.regime
    if args.spec is not None:
        overrides["specification"] = args.spec
    return dataclasses.replace(config, **overrides)


def _cmd_generate(config, bundle, out):
    save_bundle(bundle, out)
    print(f"instance written to {out} "
          f"(f*={bundle.reference.f_value:.6g}, tau_hat={bundle.tau_hat:.4f}, "
          f"binding sectors: {int(bundle.binding.sum())}/{config.s})")
    return EXIT_OK


def _cmd_solve(config, bundle, out):
    status = EXIT_OK
    for eps in config.epsilon:
        trace, curves = run_solve(config, eps, bundle)
        name = f"trace_{config.regime}_{config.specification}_eps{eps:g}.csv"
        trace.to_csv(out / name, bound_curves=curves)
        last = trace.records[-1]
        print(f"eps={eps:g}: rel_subopt={last.f_rel_subopt:.3e} "
              f"infeas={last.infeas_at_theta_star:.3e} outer={len(trace)} "
              f"inner={trace.total_inner} -> {name}")
        if not trace.converged:
            status = EXIT_CAP
    return status


def _cmd_table(config, bundle, out):
    rows = run_table(config, bundle)
    stem = f"table_{config.regime}_{config.specification}"
    write_table(rows, out / f"{stem}.csv", out / f"{stem}_timing.csv")
    for r in rows:
        print(f"eps={r.epsilon:g}: rel_subopt={r.rel_subopt:.3e} "
              f"infeas={r.infeas:.3e} outer={r.outer} inner={r.inner_total}"
              f"{' FLAGGED' if r.flagged else ''}")
    return EXIT_CAP if any(r.flagged for r in rows) else EXIT_OK


def _cmd_seqsim(config, bundle, out):
    curves = run_seq_vs_sim(config, bundle)
    write_seqsim(curves, out / "seqsim.csv")
    for name in sorted(curves):
        print(f"{name}: final |f - f*| = {curves[name]['plateau']:.3e}")
    return EXIT_OK


def _cmd_bounds(config, bundle, out):
    reports = []
    for eps in config.epsilon:
        inputs = bound_inputs_for_run(bundle, _schedule(config, bundle, eps),
                                      config.specification)
        reports.append((eps, bound_report(inputs)))
    names = sorted(reports[0][1]["constants"])
    write_csv(out / f"bound_constants_{config.regime}.csv", ("epsilon", *names),
              ((eps, *(report["constants"][n] for n in names))
               for eps, report in reports))
    write_csv(out / f"bound_curves_{config.regime}.csv",
              ("epsilon", "k", *BOUND_COLUMNS),
              ((eps, k, *row) for eps, report in reports
               for k, row in enumerate(zip(*(report["curves"][n]
                                             for n in BOUND_COLUMNS)), 1)))
    print(f"bound files written to {out}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "table": _cmd_table,
    "seqsim": _cmd_seqsim,
    "bounds": _cmd_bounds,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](config, prepare_bundle(config), out)
    except (ScheduleError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetError, RuntimeError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
