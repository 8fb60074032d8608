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


def _positive(text):
    """argparse type of a count that must be at least 1 (--jobs, --trials)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdsec",
        description="Secure full-duplex resource allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trial = sub.add_parser("trial", help="run Monte Carlo trials for one scheme set")
    trial.add_argument("--config", help="flat key=value config file")
    trial.add_argument("--seed", type=int, default=0, help="base seed")
    trial.add_argument("--trials", type=_positive, default=1, help="number of seeds")
    trial.add_argument("--scheme", default="optimal",
                       help="comma list from {optimal,baseline1,baseline2,hd}")
    trial.add_argument("--jobs", type=_positive, default=1)
    trial.add_argument("--out", default=".", help="output directory")

    swp = sub.add_parser("sweep", help="sweep a parameter and aggregate")
    swp.add_argument("--config", help="flat key=value config file")
    swp.add_argument("--sweep", choices=sorted(SWEEP_PARAMS), required=True)
    swp.add_argument("--values", required=True, help="comma-separated sweep values")
    swp.add_argument("--trials", type=_positive, default=100)
    swp.add_argument("--scheme", default="optimal,baseline1,baseline2",
                     help="comma list of schemes to compare")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--jobs", type=_positive, default=1)
    swp.add_argument("--out", default=".", help="output directory")

    summ = sub.add_parser("summarize", help="summarize an existing trials.csv")
    summ.add_argument("--out", default=".", help="directory holding trials.csv")

    cfg = sub.add_parser("write-config", help="print a default config file")
    cfg.add_argument("--out", default="-", help="path or - for stdout")
    return parser


def _load_cfg(path):
    return load_config(path) if path else SystemConfig()


def _schemes(arg):
    schemes = tuple(s.strip() for s in arg.split(",") if s.strip())
    try:
        check_schemes(schemes)
    except ValueError as err:
        raise SystemExit(f"--scheme {arg!r}: {err}") from None
    return schemes


def cmd_trial(args):
    cfg = _load_cfg(args.config)
    schemes = _schemes(args.scheme)
    seeds = [args.seed + i for i in range(args.trials)]
    results = run_trials(cfg, seeds, schemes, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    write_trials_csv(os.path.join(args.out, "trials.csv"), results, cfg)
    write_summary(os.path.join(args.out, "summary.txt"), summarize(results))
    for r in results:
        print(f"seed={r.seed} scheme={r.scheme} status={r.status} "
              f"objective_dbm={r.objective_dbm:.3f} iters={r.iterations}")
    print(f"wrote {os.path.join(args.out, 'trials.csv')}")


def cmd_sweep(args):
    cfg = _load_cfg(args.config)
    spec = SweepSpec(
        parameter=SWEEP_PARAMS[args.sweep],
        values=tuple(float(v) for v in args.values.split(",")),
        trials=args.trials,
        schemes=_schemes(args.scheme),
        base_config=cfg,
        base_seed=args.seed,
        jobs=args.jobs,
    )
    points, trials = sweep(spec)
    os.makedirs(args.out, exist_ok=True)
    write_trials_csv(os.path.join(args.out, "trials.csv"), trials, cfg)
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
    args = build_parser().parse_args(argv)
    {
        "trial": cmd_trial,
        "sweep": cmd_sweep,
        "summarize": cmd_summarize,
        "write-config": cmd_write_config,
    }[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
