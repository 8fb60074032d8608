"""Print the checks' verdict and margins for a range of workload inputs.

    python3 bench/screen.py --workload paper-hd --first 0 --count 200 --strata 6

One line per trial: seed, gamma_DL, scheme, status, IPM iterations, the
failed properties, and the margins the tolerances in checks.py cut:
worst normalised row slack, largest lambda_2/lambda_1, (dual - primal) /
primal, and for infeasibility verdicts the ray's cone violation and
b share plus the UL precheck. A sweep workload adds one line per failed
per-seed sweep property. With ``--strata S [--tail T]`` it ends with
the passing seeds (for a sweep workload, the starts of windows of passing
seeds) in S strata by IPM iterations, as workloads.py holds them.
"""

import argparse
import os
import sys
import textwrap

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (puts the program's sources on sys.path)
import checks  # noqa: E402


def describe(inst, failed):
    report = inst.report
    line = [f"{inst.seed:5d}", f"{inst.cfg.gamma_dl_req_default_db:5.1f}", f"{inst.scheme:9s}",
            f"{report.status:18s}", f"{report.iterations:3d}", ",".join(failed) or "ok"]
    if report.status == "primal_infeasible":
        violation, b_share = checks.ray_margins(inst.problem, report.multipliers)
        line += [f"ray {violation:.2e} b {b_share:.2e}",
                 f"precheck {checks.ul_precheck(inst.chan, inst.cfg, inst.receivers.r)}"]
    elif report.status == "optimal" and inst.alloc is not None:
        a = inst.alloc
        obj = checks.objective(inst.cfg, a.W, a.V, a.P)
        line += [f"row {checks.worst_row_margin(inst.chan, inst.cfg, a.W, a.V, a.P, inst.receivers.r):.2e}",
                 f"eig {max(checks.eig_ratio(w) for w in a.W):.2e}",
                 f"dual {(report.dual_obj - obj) / obj:.2e}"]
    return " ".join(line)


def strata(costs, count, tail=0):
    """Split {input: cost} into ``count`` strata by cost.

    The ``tail`` costliest inputs form the last stratum and the rest are
    split into equal strata, so a rare very costly input is drawn in every
    run's first cycle instead of in some runs only.
    """
    ranked = sorted(costs, key=lambda s: (costs[s], s))
    bulk, top = (ranked[:-tail], ranked[-tail:]) if tail else (ranked, [])
    n, parts = len(bulk), count - bool(top)
    out = [tuple(sorted(bulk[i * n // parts:(i + 1) * n // parts])) for i in range(parts)]
    return out + ([tuple(sorted(top))] if top else [])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--strata", type=int, default=0)
    parser.add_argument("--tail", type=int, default=0)
    args = parser.parse_args()
    from fdsec.harness import evaluate_instance

    wl = workloads.WORKLOADS[args.workload]
    seeds = range(args.first, args.first + args.count)
    iters, bad = {}, set()
    for seed in seeds:
        passed = {}
        for cfg, scheme in wl.tasks():
            inst = evaluate_instance(cfg, seed, scheme)
            failed = checks.check_instance(inst)
            print(describe(inst, failed), flush=True)
            iters[seed] = iters.get(seed, 0) + inst.report.iterations
            if failed:
                bad.add(seed)
            elif inst.report.status == "optimal" and inst.alloc is not None:
                passed[(cfg.gamma_dl_req_default_db, scheme)] = inst.qos.objective
        if wl.sweep:
            for gamma, scheme, reason in checks.check_seed_sweep(passed):
                print(f"{seed:5d} {gamma:5.1f} {scheme:9s} {reason}", flush=True)
                bad.add(seed)
    if args.strata:
        span = max(wl.window, 1)
        costs = {s: sum(iters[s + i] for i in range(span)) for s in seeds
                 if s + span - 1 in seeds and not bad.intersection(range(s, s + span))}
        print(f"# {len(bad)} of {len(seeds)} seeds fail a check: {sorted(bad)}")
        for stratum in strata(costs, args.strata, args.tail):
            print(textwrap.fill(repr(stratum) + ",", 92, initial_indent="    ",
                                subsequent_indent="     "))


if __name__ == "__main__":
    main()
