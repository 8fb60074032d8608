"""Census of trial outcomes on the benchmark's candidate inputs.

    python3 tools/census.py --seeds 200 > census.tsv
    python3 tools/census.py --seeds 200 --diff OLD_TREE NEW_TREE

For seeds 0 to N-1 of each workload in ``bench/workloads.py``, one
tab-separated line per trial: workload, seed, gamma_DL in dB, scheme,
solver status, IPM iterations, ``primal_obj``, ``dual_obj``, the QoS
objective and ``min_margin`` (each as float hex, so equal text means equal
bits), short SHA-1 digests of the bytes of the channel (``h``, ``g``, ``l``,
``f``, ``t`` and ``h_si``), of the report's arrays
(``multipliers``, ``psd_duals``, ``orthant_dual`` and the primal blocks), of
the kept allocation (``W``, ``V`` and ``P``: the polished point or the raw
one) and of the certificate's ``RankReport`` (its arrays, beamformers and
verdict), "-" for a trial with none, and the verdicts of
``bench/checks.check_instance`` ("ok" when none fails). Equal lines thus
mean bit-equal channels, reports, polishes and certificates.
``paper-optimal`` and ``paper-hd`` run one ``harness.evaluate_instance``
per trial, as the benchmark does.
``gamma-sweep`` runs each seed's four gamma values of one scheme as one
``harness.evaluate_batch`` call, the lockstep batch a sweep of that seed
makes.

``--tree DIR`` takes the program and the checks from another checkout.
``--diff OLD NEW`` runs the census in both trees at once (one process
each; ``OPENBLAS_NUM_THREADS=1`` keeps them off each other's cores) and
prints every trial whose line differs. A summary of those lines follows:
how many differ only in ``iterations`` and how many in the solver's report
(status, objectives or arrays), the status moves, the largest relative rise
of ``objective_w`` on a trial ``optimal`` in both, and, over all trials,
how many go from failing checks to "ok" and which go from "ok" to failing.
It then reports, per workload, the
total IPM iterations of OLD and NEW over all candidates and over the pool
trials (the strata seeds, and for a window workload the ``window`` seeds
from each), and what decides the benchmark's ``correct`` flag in NEW's
``bench/``: the pool trials whose checks go from "ok" to failing, the
probes that do so, and the ``checks.check_seed_sweep`` breaks on each
sweep pool seed's passing trials, as ``bench/run.py`` records them. It
exits with status 2 when a pool trial regresses or a pool seed gains a
break, else 1 when a line differs, else 0.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-optimal", "paper-hd", "gamma-sweep")
COLUMNS = ("workload", "seed", "gamma_dl_db", "scheme", "status", "iterations",
           "primal_obj", "dual_obj", "objective_w", "min_margin", "chan_sha1", "report_sha1",
           "alloc_sha1", "rank_sha1", "checks")


def census(tree, seeds, names):
    """Yield one census line per trial, running the program of ``tree``."""
    sys.path.insert(0, os.path.join(tree, "bench"))
    import checks
    import workloads  # puts the tree's src first on sys.path

    import fdsec.harness as harness

    for name in names:
        wl = workloads.WORKLOADS[name]
        for seed in range(seeds):
            by_scheme = {}
            for cfg, scheme in wl.tasks():
                by_scheme.setdefault(scheme, []).append((cfg, seed, scheme))
            for tasks in by_scheme.values():
                if wl.sweep:
                    insts = harness.evaluate_batch(tasks)
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
              float(inst.min_margin).hex(), chan_digest(inst.chan), report_digest(rep),
              alloc_digest(inst.alloc), rank_digest(inst.rank), ",".join(failed) or "ok")
    return "\t".join(str(v) for v in values)


def digest(*arrays):
    """First 12 hex digits of a SHA-1 over the bytes of ``arrays``."""
    sha = hashlib.sha1()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()[:12]


def chan_digest(chan):
    return digest(chan.h, chan.g, chan.l, chan.f, chan.t, chan.h_si)


def report_digest(rep):
    return digest(rep.multipliers, *rep.psd_duals, rep.orthant_dual, *rep.primal.psd,
                  rep.primal.orthant)


def alloc_digest(alloc):
    return "-" if alloc is None else digest(*alloc.W, alloc.V, alloc.P)


def rank_digest(rank):
    if rank is None:
        return "-"
    return digest(rank.ranks, rank.eig_ratios, *(np.zeros(0) if w is None else w for w in rank.w),
                  rank.b_min_eig, rank.y_zero_eigs, rank.y_consistency, rank.c1_tightness,
                  rank.delta, np.array(rank.certificate_pass))


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


def iterations(trials, name, seeds=None):
    """Total IPM iterations of a ``by_seed`` census's ``name`` trials, over
    all its seeds or over ``seeds``."""
    return sum(int(t["iterations"]) for (workload, seed), rows in trials.items()
               if workload == name and (seeds is None or seed in seeds) for t in rows)


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
        print(f"{name}: IPM iterations OLD {iterations(old, name)}, NEW "
              f"{iterations(new, name)} over all candidates; OLD {iterations(old, name, pool)}, "
              f"NEW {iterations(new, name, pool)} over pool trials")
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


REPORT_COLUMNS = ("status", "primal_obj", "dual_obj", "report_sha1")


def summarize(pairs):
    """Print what the (old, new) census fields of the trials that differ in
    both trees say about the change."""
    only_iterations = report = 0
    status_moves = Counter()
    fixed, broken, rises = 0, [], []
    for a, b in pairs:
        changed = [col for col in COLUMNS if a[col] != b[col]]
        only_iterations += changed == ["iterations"]
        report += any(col in REPORT_COLUMNS for col in changed)
        if a["status"] != b["status"]:
            status_moves[f"{a['status']} -> {b['status']}"] += 1
        elif a["status"] == "optimal":
            old_w = float.fromhex(a["objective_w"])
            rises.append(((float.fromhex(b["objective_w"]) - old_w) / max(abs(old_w), 1e-300), b))
        if a["checks"] != "ok" and b["checks"] == "ok":
            fixed += 1
        elif a["checks"] == "ok" and b["checks"] != "ok":
            broken.append(b)
    print(f"{only_iterations} differ only in iterations, {report} in the solver's report")
    print(f"status moves: {dict(status_moves)}")
    rise, trial = max(rises, key=lambda p: p[0], default=(0.0, None))
    name = "" if trial is None else " (" + ", ".join(trial[c] for c in COLUMNS[:4]) + ")"
    print(f"largest objective_w rise on trials optimal in both: {rise:+.2e} relative{name}")
    print(f"checks over all trials: {fixed} go from failing to ok, {len(broken)} from ok to failing")
    for b in broken:
        print(f"  {b['workload']} seed {b['seed']}, {b['gamma_dl_db']} dB, {b['scheme']} "
              f"({b['checks']})")


def diff(old, new, seeds, names):
    """Print the trials whose census lines differ, their summary and the pool
    report; return the exit status."""
    before, after = run_trees((old, new), seeds, names)
    differ, pairs = 0, []
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            differ += 1
            print(f"- {before.get(key, '(missing)')}\n+ {after.get(key, '(missing)')}")
            if key in before and key in after:
                pairs.append(tuple(dict(zip(COLUMNS, lines[key].split("\t")))
                                   for lines in (before, after)))
    counts = Counter(ln.split("\t")[4] for ln in after.values())
    print(f"{len(after)} trials, {differ} differ; statuses {dict(counts)}")
    summarize(pairs)
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
