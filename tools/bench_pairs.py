"""Alternating benchmark runs of two checkouts, written to a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent OLD --change NEW --out BENCH_x.json \\
        --claim gamma-sweep --pairs 10 --others 3 --change-note "what changed"

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once from the root of each checkout, one run at a time, and the
side that runs first swaps from pair to pair. The claimed workload gets
``--pairs`` pairs and every other workload of the parent's BENCHMARK.json
``--others`` pairs. Then one ``--trace 1`` run of the claimed workload per
side gives the per-layer metrics. The record keeps every run's last line and
BLAS thread counts, and per workload and end-to-end metric the median and
quartiles of each side, plus how many pairs the change won on each
metric, ties counting for neither side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def bench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.strftime("%H:%M:%S", time.gmtime())
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800,
                         check=True).stdout.splitlines()
    blas = next((ln for ln in out if ln.startswith("blas:")), "")
    return {"started_utc": started, "blas": blas, "last_line": json.loads(out[-1])}


def quartiles(values):
    if len(values) < 2:
        return {"runs": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"runs": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", required=True, help="the workload of the claimed gain")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--others", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--change-note", default="")
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = [m["name"] for m in spec["end_to_end"]]
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}

    runs = []
    plan = [(w["name"], args.pairs if w["name"] == args.claim else args.others)
            for w in spec["workloads"]]
    for k in range(max(n for _, n in plan)):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload, n in plan:
            if k < n:
                for side in sides:
                    run = bench(trees[side], workload, args.seed, args.seconds, 0)
                    runs.append({"pair": k + 1, "side": side, "workload": workload, **run})
                    print(f"pair {k + 1} {side} {workload}: {run['last_line']}", flush=True)

    summary = {}
    for workload, n in plan:
        if not n:
            continue
        mine = [r for r in runs if r["workload"] == workload]
        entry = {}
        for metric in metrics:
            entry[metric] = {
                side: quartiles([r["last_line"]["metrics"][metric]["value"]
                                 for r in mine if r["side"] == side])
                for side in trees}
            by_pair = {}
            for r in mine:
                by_pair.setdefault(r["pair"], {})[r["side"]] = \
                    r["last_line"]["metrics"][metric]["value"]
            sign = 1.0 if higher[metric] else -1.0
            won = sum(sign * (p["change"] - p["parent"]) > 0 for p in by_pair.values())
            entry[metric]["pairs_won_by_change"] = f"{won} of {len(by_pair)}"
        entry["failed_per_run"] = sorted(
            f"{r['side']}: {r['last_line']['failed']}/{r['last_line']['attempted']}, "
            f"correct={r['last_line']['correct']}" for r in mine)
        summary[workload] = entry

    trace = []
    for side in ("parent", "change"):
        run = bench(trees[side], args.claim, args.seed, args.seconds, 1)
        trace.append({"side": side, "workload": args.claim, **run})

    record = {
        "change": args.change_note,
        "host": f"{os.cpu_count()} CPU cores, shared; BLAS thread counts per run in 'blas'",
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0 "
                   "(end-to-end) or --trace 1 (per layer), run from each tree's root",
        "protocol": f"{args.pairs} alternating pairs on {args.claim}, {args.others} on every "
                    f"other workload, the side that runs first swapping each pair, seed "
                    f"{args.seed}, {args.seconds:g} s per run; one --trace 1 run of "
                    f"{args.claim} per side; one run at a time",
        "summary": summary,
        "runs": runs,
        "trace": trace,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
