"""Command-line interface.

Subcommands: simulate, reproduce, select, prop1, diagnose, plot.
Exit codes: 0 success, 2 configuration error, 3 the run finished but
some grid cells recorded failures (the table is still written).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import nested_mean, rng
from .blas import keep_heap
from .diagnostics import diagnostics_report
from .errors import CvArbiterError
from .harness import (
    DEFAULT_MASTER_SEED,
    ExperimentConfig,
    FrequencyTable,
    reproduce_case,
    run_experiment,
    select_from_csv,
)
from .plots import emit_plot
from .scenarios import resolve_scenario


THREADS_HELP = ("worker processes for the replications (forked; one runs them inline); "
                "default: the config's value, else one per usable core")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cv-arbiter",
        description="Cross-validation selection among regression procedures "
        "and the Monte Carlo laboratory around it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.add_argument("--out", default=None, help="output path prefix (.csv/.json)")

    p = sub.add_parser("reproduce", help="run the benchmark study grid for one case")
    p.add_argument("--case", required=True, choices=["1", "2", "3"])
    p.add_argument("--scale", default="desk", choices=["desk", "full"])
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.add_argument("--out", default=None)
    p.add_argument("--reps", type=int, default=None, help="override the scale's replication count")
    p.add_argument("--schemes", default=None, help="comma list restricting the schemes")
    p.add_argument("--ratios", default=None, help="comma list restricting the schedules")
    p.add_argument("--n-grid", default=None, help="comma list restricting the sample sizes")

    p = sub.add_parser("select", help="select a procedure for a two-column CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--procs", required=True, help="comma-separated procedure ids")
    p.add_argument("--scheme", default="rlt:100")
    p.add_argument("--schedule", default="ratio:5:5")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prop1", help="exact nested mean-model CV analysis")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--n1", type=int, default=50)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="also cross-check the closed forms against enumeration")

    p = sub.add_parser("diagnose", help="finite-sample probes for procedures on a scenario")
    p.add_argument("--proc", action="append", required=True,
                   help="procedure id; repeat for pairwise probes")
    p.add_argument("--case", default="case1")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.1)

    p = sub.add_parser("plot", help="render SVG panels from a results JSON")
    p.add_argument("--in", dest="table", required=True)
    p.add_argument("--out", required=True)
    return parser


def _comma_list(text: str | None, convert=str) -> list | None:
    """A comma-list flag's values, None when the flag is absent; an empty
    string is an empty list, which the grid check rejects."""
    if text is None:
        return None
    return [convert(v) for v in text.split(",")] if text else []


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


def _finish_table(table: FrequencyTable, out: str | None) -> int:
    if out:
        csv_path, json_path = table.write(out)
        print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    else:
        sys.stdout.write(table.to_csv())
    return 3 if table.has_errors else 0


def main(argv=None) -> int:
    keep_heap()  # fits and draws reuse the heap instead of re-faulting it
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = ExperimentConfig.from_file(args.config)
            if args.threads is not None:
                config.threads = args.threads
            return _finish_table(run_experiment(config), args.out or config.output)

        if args.command == "reproduce":
            table = reproduce_case(
                args.case, scale=args.scale, master_seed=args.seed,
                threads="auto" if args.threads is None else args.threads,
                reps=args.reps,
                schemes=_comma_list(args.schemes),
                ratios=_comma_list(args.ratios),
                n_grid=_comma_list(args.n_grid, int),
            )
            return _finish_table(table, args.out)

        if args.command == "select":
            report = select_from_csv(
                args.data, args.procs.split(","), args.scheme, args.schedule, args.seed
            )
            _emit(report)
            return 0

        if args.command == "prop1":
            stream = rng.stream(args.seed, "prop1", args.n, args.n1, args.mu, args.sigma)
            payload = {
                "n": args.n,
                "n1": args.n1,
                "mu": args.mu,
                "sigma": args.sigma,
                "reps": args.reps,
                "selection_prob": nested_mean.selection_prob(
                    args.n, args.n1, args.mu, args.sigma, args.reps, stream
                ),
                "f_reference": nested_mean.f_reference_prob(args.n, args.n1),
            }
            if args.verify:
                payload["d_tilde_checks"] = nested_mean.enumeration_check()
            _emit(payload)
            return 0

        if args.command == "diagnose":
            scenario = resolve_scenario(args.case)
            report = diagnostics_report(
                args.proc, args.case, scenario, args.n, args.reps, args.seed,
                c=args.c, alpha=args.alpha,
            )
            _emit(report.to_dict())
            return 0

        if args.command == "plot":
            with open(args.table) as fh:
                table = FrequencyTable.from_dict(json.load(fh))
            written = emit_plot(table, args.out)
            print("\n".join(written), file=sys.stderr)
            return 0

    except (CvArbiterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
