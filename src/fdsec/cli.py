"""Command line front end: trial, sweep, and summarize subcommands."""

import argparse
import csv
import os
import sys
from types import SimpleNamespace

from .channel import SystemConfig
from .harness import (
    SweepSpec,
    check_schemes,
    load_config,
    run_trials,
    summarize,
    sweep,
    write_default_config,
    write_summary,
    write_sweep_csv,
    write_sweep_dat,
    write_trials_csv,
)

SWEEP_PARAMS = {"gamma_dl": "gamma_dl_req_db", "antennas": "n_antennas"}


def _at_least(minimum):
    """argparse type of an integer that must be at least ``minimum`` (--seed,
    --jobs, --trials)."""
    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _config(path):
    """argparse type of --config: the SystemConfig of a config file."""
    try:
        return load_config(path)
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"{path}: {err}") from None


def _schemes(text):
    """argparse type of --scheme: a comma list of known schemes, none twice."""
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    try:
        check_schemes(schemes)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{text!r}: {err}") from None
    return schemes


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdsec",
        description="Secure full-duplex resource allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trial = sub.add_parser("trial", help="run Monte Carlo trials for one scheme set")
    trial.add_argument("--config", type=_config, default=SystemConfig(),
                       help="flat key=value config file")
    trial.add_argument("--seed", type=_at_least(0), default=0, help="base seed")
    trial.add_argument("--trials", type=_at_least(1), default=1, help="number of seeds")
    trial.add_argument("--scheme", type=_schemes, default="optimal",
                       help="comma list from {optimal,baseline1,baseline2,hd}")
    trial.add_argument("--jobs", type=_at_least(1), default=1)
    trial.add_argument("--out", default=".", help="output directory")

    swp = sub.add_parser("sweep", help="sweep a parameter and aggregate")
    swp.add_argument("--config", type=_config, default=SystemConfig(),
                     help="flat key=value config file")
    swp.add_argument("--sweep", choices=sorted(SWEEP_PARAMS), required=True)
    swp.add_argument("--values", required=True, help="comma-separated sweep values")
    swp.add_argument("--trials", type=_at_least(1), default=100)
    swp.add_argument("--scheme", type=_schemes, default="optimal,baseline1,baseline2",
                     help="comma list of schemes to compare")
    swp.add_argument("--seed", type=_at_least(0), default=0)
    swp.add_argument("--jobs", type=_at_least(1), default=1)
    swp.add_argument("--out", default=".", help="output directory")

    summ = sub.add_parser("summarize", help="summarize an existing trials.csv")
    summ.add_argument("--out", default=".", help="directory holding trials.csv")

    cfg = sub.add_parser("write-config", help="print a default config file")
    cfg.add_argument("--out", default="-", help="path or - for stdout")
    return parser


def cmd_trial(args):
    seeds = [args.seed + i for i in range(args.trials)]
    results = run_trials(args.config, seeds, args.scheme, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    write_trials_csv(os.path.join(args.out, "trials.csv"), results, args.config)
    write_summary(os.path.join(args.out, "summary.txt"), summarize(results))
    for r in results:
        print(f"seed={r.seed} scheme={r.scheme} status={r.status} "
              f"objective_dbm={r.objective_dbm:.3f} iters={r.iterations}")
    print(f"wrote {os.path.join(args.out, 'trials.csv')}")


def cmd_sweep(args):
    points, trials = sweep(args.spec)
    os.makedirs(args.out, exist_ok=True)
    write_trials_csv(os.path.join(args.out, "trials.csv"), trials, args.config)
    write_sweep_csv(os.path.join(args.out, "sweep.csv"), points)
    write_sweep_dat(os.path.join(args.out, "sweep.dat"), points)
    write_summary(os.path.join(args.out, "summary.txt"), summarize(trials))
    for p in points:
        print(f"{p.parameter}={p.value:g} scheme={p.scheme} feas={p.feasibility_rate:.2f} "
              f"failed={p.failed} "
              f"mean_dbm={p.mean_power_dbm:.3f} (n={p.common_feasible})")
    print(f"wrote sweep outputs under {args.out}")


def cmd_summarize(args):
    path = os.path.join(args.out, "trials.csv")
    with open(path) as fh:
        rows = [SimpleNamespace(scheme=rec["scheme"], feasible=rec["status"] == "optimal",
                                objective_w=float(rec["objective_w"]),
                                objective_dbm=float(rec["objective_dbm"]))
                for rec in csv.DictReader(fh)]
    out = os.path.join(args.out, "summary.txt")
    write_summary(out, summarize(rows))
    with open(out) as fh:
        sys.stdout.write(fh.read())


def cmd_write_config(args):
    if args.out == "-":
        write_default_config(sys.stdout)
    else:
        with open(args.out, "w") as fh:
            write_default_config(fh)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        # argparse types check every other flag; what --values must hold depends on --sweep
        try:
            args.spec = SweepSpec(
                parameter=SWEEP_PARAMS[args.sweep],
                values=tuple(float(v) for v in args.values.split(",")), trials=args.trials,
                schemes=args.scheme, base_config=args.config, base_seed=args.seed,
                jobs=args.jobs)
        except ValueError as err:
            parser.error(f"argument --values {args.values!r}: {err}")
    {
        "trial": cmd_trial,
        "sweep": cmd_sweep,
        "summarize": cmd_summarize,
        "write-config": cmd_write_config,
    }[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
