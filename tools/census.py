"""Census of trial outcomes on the benchmark's candidate inputs.

    python3 tools/census.py --seeds 200 > census.tsv
    python3 tools/census.py --seeds 200 --diff OLD_TREE NEW_TREE

For seeds 0 to N-1 of each workload in ``bench/workloads.py``, one
tab-separated line per trial: workload, seed, gamma_DL in dB, scheme,
solver status, IPM iterations, ``primal_obj``, ``dual_obj``, the QoS
objective and ``min_margin`` (each as float hex, so equal text means equal
bits), and the verdicts of ``bench/checks.check_instance`` ("ok" when none
fails). ``paper-optimal`` and ``paper-hd`` run one
``harness.evaluate_instance`` per trial, as the benchmark does.
``gamma-sweep`` runs each seed's four gamma values of one scheme as one
``harness.evaluate_batch`` call, the lockstep batch a sweep of that seed
makes; a tree without that function runs them one by one.

``--tree DIR`` takes the program and the checks from another checkout.
``--diff OLD NEW`` runs the census in both trees, one after the other,
prints every trial whose line differs and exits with status 1 if any does.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-optimal", "paper-hd", "gamma-sweep")
COLUMNS = ("workload", "seed", "gamma_dl_db", "scheme", "status", "iterations",
           "primal_obj", "dual_obj", "objective_w", "min_margin", "checks")


def census(tree, seeds, names):
    """Yield one census line per trial, running the program of ``tree``."""
    sys.path.insert(0, os.path.join(tree, "bench"))
    import checks
    import workloads  # puts the tree's src first on sys.path

    import fdsec.harness as harness

    batch = getattr(harness, "evaluate_batch", None)
    for name in names:
        wl = workloads.WORKLOADS[name]
        for seed in range(seeds):
            by_scheme = {}
            for cfg, scheme in wl.tasks():
                by_scheme.setdefault(scheme, []).append((cfg, seed, scheme))
            for tasks in by_scheme.values():
                if wl.sweep and batch is not None:
                    insts = batch(tasks)
                else:
                    insts = [harness.evaluate_instance(*task) for task in tasks]
                for inst in insts:
                    yield line(name, inst, checks.check_instance(inst))


def line(name, inst, failed):
    rep = inst.report
    objective = float("nan") if inst.alloc is None else inst.qos.objective
    values = (name, inst.seed, f"{inst.cfg.gamma_dl_req_default_db:g}", inst.scheme,
              rep.status, rep.iterations, float(rep.primal_obj).hex(),
              float(rep.dual_obj).hex(), float(objective).hex(),
              float(inst.min_margin).hex(), ",".join(failed) or "ok")
    return "\t".join(str(v) for v in values)


def run_tree(tree, seeds, names):
    """Census lines of another tree, from a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--tree", tree,
           "--seeds", str(seeds), *[arg for n in names for arg in ("--workload", n)]]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[1:]


def diff(old, new, seeds, names):
    """Print the trials whose census lines differ; return their count."""
    before = {tuple(ln.split("\t")[:4]): ln for ln in run_tree(old, seeds, names)}
    after = {tuple(ln.split("\t")[:4]): ln for ln in run_tree(new, seeds, names)}
    differ = 0
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            differ += 1
            print(f"- {before.get(key, '(missing)')}\n+ {after.get(key, '(missing)')}")
    counts = {}
    for ln in after.values():
        status = ln.split("\t")[4]
        counts[status] = counts.get(status, 0) + 1
    print(f"{len(after)} trials, {differ} differ; statuses {counts}")
    return differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds 0 to N-1 of each workload")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default all")
    parser.add_argument("--tree", default=os.path.dirname(HERE),
                        help="checkout whose src and bench run (default: this one)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare the census of two checkouts")
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    if args.diff:
        sys.exit(1 if diff(*(os.path.abspath(t) for t in args.diff), args.seeds, names) else 0)
    print("\t".join(COLUMNS), flush=True)
    for text in census(os.path.abspath(args.tree), args.seeds, names):
        print(text, flush=True)


if __name__ == "__main__":
    main()
