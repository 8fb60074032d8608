"""Census of trial outcomes on the benchmark's candidate inputs.

    python3 tools/census.py --seeds 200 > census.tsv
    python3 tools/census.py --seeds 200 --diff OLD_TREE NEW_TREE

For seeds 0 to N-1 of each workload in ``bench/workloads.py``, one
tab-separated line per trial: workload, seed, gamma_DL in dB, scheme,
solver status, IPM iterations, ``primal_obj``, ``dual_obj``, the QoS
objective and ``min_margin`` (each as float hex, so equal text means equal
bits), a short SHA-1 of the bytes of the report's arrays (``multipliers``,
``psd_duals``, ``orthant_dual`` and the primal blocks), and the verdicts of
``bench/checks.check_instance`` ("ok" when none fails). Equal lines thus
mean bit-equal reports. ``paper-optimal`` and ``paper-hd`` run one
``harness.evaluate_instance`` per trial, as the benchmark does.
``gamma-sweep`` runs each seed's four gamma values of one scheme as one
``harness.evaluate_batch`` call, the lockstep batch a sweep of that seed
makes; a tree without that function runs them one by one.

``--tree DIR`` takes the program and the checks from another checkout.
``--diff OLD NEW`` runs the census in both trees at once (one process
each; ``OPENBLAS_NUM_THREADS=1`` keeps them off each other's cores) and
prints every trial whose line differs. It then reports, per workload, what
decides the benchmark's ``correct`` flag in NEW's ``bench/``: the pool
trials (the strata seeds, and for a window workload the ``window`` seeds
from each) whose checks go from "ok" to failing, the probes that do so,
and the ``checks.check_seed_sweep`` breaks on each sweep pool seed's
passing trials, as ``bench/run.py`` records them. It exits with status 2
when a pool trial regresses or a pool seed gains a break, else 1 when a
line differs, else 0.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from contextlib import ExitStack

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-optimal", "paper-hd", "gamma-sweep")
COLUMNS = ("workload", "seed", "gamma_dl_db", "scheme", "status", "iterations",
           "primal_obj", "dual_obj", "objective_w", "min_margin", "report_sha1", "checks")


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
              float(inst.min_margin).hex(), report_digest(rep), ",".join(failed) or "ok")
    return "\t".join(str(v) for v in values)


def report_digest(rep):
    """First 12 hex digits of a SHA-1 over the bytes of every report array."""
    arrays = (rep.multipliers, *rep.psd_duals, rep.orthant_dual, *rep.primal.psd,
              rep.primal.orthant)
    sha = hashlib.sha1()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()[:12]


def run_trees(trees, seeds, names):
    """Census lines of each tree, keyed by trial, each tree in a fresh
    interpreter and all at once."""
    with ExitStack() as files:
        runs = []
        for tree in trees:
            cmd = [sys.executable, os.path.abspath(__file__), "--tree", tree,
                   "--seeds", str(seeds), *[arg for n in names for arg in ("--workload", n)]]
            out = files.enter_context(tempfile.TemporaryFile("w+"))
            runs.append((subprocess.Popen(cmd, stdout=out, text=True), out))
        for proc, _ in runs:
            proc.wait()
        lines = []
        for proc, out in runs:
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
            out.seek(0)
            lines.append({tuple(ln.split("\t")[:4]): ln for ln in out.read().splitlines()[1:]})
    return lines


def by_seed(lines):
    """{(workload, seed): [census fields of each trial]}."""
    out = {}
    for key, ln in lines.items():
        out.setdefault((key[0], int(key[1])), []).append(dict(zip(COLUMNS, ln.split("\t"))))
    return out


def pool_report(tree, before, after, names):
    """Print the pool trials and probes of ``tree``'s benchmark whose
    checks go from ok to failing, and the per-seed sweep breaks on its
    pool seeds; return the number of pool regressions and new breaks."""
    sys.path.insert(0, os.path.join(tree, "bench"))
    import checks
    import workloads

    old, new = by_seed(before), by_seed(after)

    def breaks(trials):
        passed = {(float(t["gamma_dl_db"]), t["scheme"]): float.fromhex(t["objective_w"])
                  for t in trials if t["checks"] == "ok" and t["status"] == "optimal"}
        return set(checks.check_seed_sweep(passed))

    regressions = 0
    for name in names:
        wl = workloads.WORKLOADS[name]
        starts = {s for stratum in wl.strata for s in stratum}
        pool = {s + i for s in starts for i in range(max(wl.window, 1))}
        pooled, probed = [], []
        censused = 0
        for seed in sorted(pool | set(wl.probes)):
            was = {(t["gamma_dl_db"], t["scheme"]): t["checks"] for t in old.get((name, seed), [])}
            for t in new.get((name, seed), []):
                censused += seed in pool
                if was.get((t["gamma_dl_db"], t["scheme"])) == "ok" and t["checks"] != "ok":
                    (pooled if seed in pool else probed).append(
                        f"seed {seed}, {t['gamma_dl_db']} dB, {t['scheme']} ({t['checks']})")
        print(f"{name}: {len(pooled)} of {censused} pool trials "
              f"({len(pool) * len(wl.tasks())} in the pool) go from ok to failing")
        for text in pooled:
            print(f"  {text}")
        for text in probed:
            print(f"  probe {text}")
        regressions += len(pooled)
        if wl.sweep:
            sweep_breaks = []
            for seed in sorted(pool):
                now = breaks(new.get((name, seed), []))
                fresh = now - breaks(old.get((name, seed), []))
                regressions += len(fresh)
                sweep_breaks += [f"seed {seed}, {g:g} dB, {scheme}: {reason}"
                                 + (" (new)" if (g, scheme, reason) in fresh else "")
                                 for g, scheme, reason in sorted(now)]
            print(f"{name}: {len(sweep_breaks)} check_seed_sweep breaks on pool seeds")
            for text in sweep_breaks:
                print(f"  {text}")
    return regressions


def diff(old, new, seeds, names):
    """Print the trials whose census lines differ and the pool report;
    return the exit status."""
    before, after = run_trees((old, new), seeds, names)
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
    if pool_report(new, before, after, names):
        return 2
    return 1 if differ else 0


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
        sys.exit(diff(*(os.path.abspath(t) for t in args.diff), args.seeds, names))
    print("\t".join(COLUMNS), flush=True)
    for text in census(os.path.abspath(args.tree), args.seeds, names):
        print(text, flush=True)


if __name__ == "__main__":
    main()
