"""fdsec benchmark: one checked workload per run, metrics as one JSON line.

    python3 bench/run.py --workload paper-optimal --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --compare 10

A run times the program from outside, in whole rounds (workloads.py),
until ``--seconds`` of wall time have passed, and checks every trial with
checks.py. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Failures are
listed above it, one line per failing input and reason. ``--compare N``
makes two sets of N runs of every workload and prints, per metric, whether
the sets agree within the bounds in BENCHMARK.json. README.md has the
details. The benchmark sets no BLAS thread variable.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def process_age():
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def cpu_seconds():
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_threads():
    """(library, thread count) for each OpenBLAS this process has loaded.

    numpy and scipy each bundle their own OpenBLAS, with a thread pool each.
    """
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append((os.path.basename(path), fn()))
                break
    return found


def same_float(a, b):
    return float(a).hex() == float(b).hex()


class Run:
    """Trials, timings and failures of one benchmark run."""

    def __init__(self, workload, trace):
        import checks
        import fdsec.harness as harness

        self.wl = workload
        self.harness = harness
        self.checks = checks
        self.tracer = None
        if trace:
            from spans import Tracer
            self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failures = {}          # (input, reason) -> count
        self.unexpected = []        # failures that are not fault probes
        self.latency = []           # untraced per-trial seconds
        self.traced_latency = []
        self.timed = 0.0            # seconds inside the program, timed trials
        self.timed_trials = 0
        self.cpu = 0.0
        self.cycle_iters = 0            # IPM iterations of the first cycle
        self.traced_trials = 0

    def record(self, name, reasons, probe):
        """Count one failed trial, once, with every reason it failed for."""
        if not reasons:
            return
        self.failed += 1
        for reason in reasons:
            key = (name, reason)
            self.failures[key] = self.failures.get(key, 0) + 1
            if not probe:
                self.unexpected.append(f"{name}: {reason}")

    def evaluate(self, cfg, seed, scheme):
        """Untraced timed trial; in a traced run, the same trial traced too.

        Returns the instance, its seconds and its CPU seconds untraced.
        """
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        inst = self.harness.evaluate_instance(cfg, seed, scheme)
        dt = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        self.latency.append(dt)
        if self.tracer is not None:
            self.tracer.install()
            try:
                t0 = time.perf_counter()
                traced = self.harness.evaluate_instance(cfg, seed, scheme)
                self.traced_latency.append(time.perf_counter() - t0)
            finally:
                self.tracer.uninstall()
            self.traced_trials += 1
            if (traced.report.status != inst.report.status
                    or traced.report.iterations != inst.report.iterations
                    or not same_float(traced.report.primal_obj, inst.report.primal_obj)):
                self.unexpected.append(f"{label(cfg, seed, scheme)}: traced run differs")
        return inst, dt, cpu

    def serial_round(self, seeds, probes):
        iters = 0
        for seed in seeds:
            for cfg, scheme in self.wl.tasks():
                self.attempted += 1
                name = label(cfg, seed, scheme)
                try:
                    inst, dt, cpu = self.evaluate(cfg, seed, scheme)
                except Exception as exc:  # a crash is a counted failure, not the run's end
                    self.record(name, [f"exception:{type(exc).__name__}"], seed in probes)
                    continue
                self.cpu += cpu
                self.timed += dt
                self.timed_trials += 1
                iters += inst.report.iterations
                self.record(name, self.checks.check_instance(inst), seed in probes)
        return iters

    def sweep_round(self, windows, probes):
        from workloads import GAMMAS_DB, SWEEP_JOBS

        iters = 0
        for base, count in windows:
            spec = self.harness.SweepSpec(
                parameter="gamma_dl_req_db", values=GAMMAS_DB, trials=count,
                schemes=self.wl.schemes, base_config=self.wl.config,
                base_seed=base, jobs=SWEEP_JOBS)
            seeds = range(base, base + count)
            tasks = [(g, s, sch) for g in GAMMAS_DB for s in seeds for sch in spec.schemes]
            self.attempted += len(tasks)
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                _, results = self.harness.sweep(spec)
            except Exception as exc:  # the pool re-raises a trial's exception
                for g, s, sch in tasks:
                    self.record(label(spec.config_for(g), s, sch),
                                [f"exception:{type(exc).__name__}"], s in probes)
                continue
            self.timed += time.perf_counter() - t0
            self.cpu += cpu_seconds() - cpu0
            self.timed_trials += len(results)
            iters += sum(r.iterations for r in results)
            passed = {}
            first_chan = {}
            for r in results:
                cfg = spec.config_for(r.sweep_value)
                name = label(cfg, r.seed, r.scheme)
                probe = r.seed in probes
                try:
                    inst, _, _ = self.evaluate(cfg, r.seed, r.scheme)
                except Exception as exc:
                    self.record(name, [f"serial exception:{type(exc).__name__}"], False)
                    continue
                reasons = self.checks.check_instance(inst)
                mismatch = []      # never a probe's known fault
                serial_obj = inst.qos.objective if inst.alloc is not None else float("nan")
                if (inst.report.status != r.status or inst.report.iterations != r.iterations
                        or not same_float(serial_obj, r.objective_w)):
                    mismatch.append("pooled result differs from serial")
                chan = (inst.chan.h, inst.chan.g, inst.chan.l, inst.chan.f, inst.chan.t)
                if any((a != b).any() for a, b in zip(first_chan.setdefault(r.seed, chan), chan)):
                    mismatch.append("channel depends on gamma")
                reasons += mismatch
                self.record(name, reasons, probe and not mismatch)
                if not reasons and r.status == "optimal":
                    passed.setdefault(r.seed, {})[(r.sweep_value, r.scheme)] = r.objective_w
            for seed, objectives in passed.items():
                broken = {}
                for g, scheme, reason in self.checks.check_seed_sweep(objectives):
                    broken.setdefault((g, scheme), []).append(reason)
                for (g, scheme), reasons in broken.items():
                    self.record(label(spec.config_for(g), seed, scheme), reasons, seed in probes)
        return iters

    def measure(self, seed, seconds):
        """Whole rounds until ``seconds`` have passed and a cycle is complete."""
        rounds = self.wl.rounds(seed)
        probes = set(self.wl.probes)
        cycle = self.wl.cycle
        start = time.perf_counter()
        n_rounds = 0
        while n_rounds < cycle or time.perf_counter() - start < seconds:
            drawn = next(rounds)
            if self.wl.sweep:
                windows = [(p, 1) for p in self.wl.probes] + [(drawn[0], self.wl.window)]
                iters = self.sweep_round(windows, probes)
            else:
                iters = self.serial_round(list(self.wl.probes) + drawn, probes)
            if n_rounds < cycle:
                self.cycle_iters += iters
            n_rounds += 1
        return n_rounds

    def end_to_end(self, setup, rss_mb):
        return {
            "setup_s": (statistics.median(setup), "s"),
            "trials_per_s": (self.timed_trials / self.timed if self.timed else 0.0, "1/s"),
            "trial_s_p50": (statistics.median(self.latency) if self.latency else 0.0, "s"),
            "ipm_iters": (self.cycle_iters, "count"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def per_layer(self):
        from spans import layer_metrics

        metrics = layer_metrics(self.tracer, self.traced_trials)
        metrics["harness.pool_cpu_s_per_trial"] = (self.cpu / max(self.timed_trials, 1), "s/trial")
        untraced = sum(self.latency[-len(self.traced_latency):]) if self.traced_latency else 0.0
        overhead = 100.0 * (sum(self.traced_latency) / untraced - 1.0) if untraced else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        return metrics


def label(cfg, seed, scheme):
    return f"{scheme} seed {seed} gamma_dl {cfg.gamma_dl_req_default_db:g} dB"


def peak_rss_mb():
    """Largest resident set of this process or any reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def warm_up(workload):
    """Imports plus one untimed trial on a seed outside the workload."""
    import fdsec.harness as harness
    from workloads import WARMUP_SEED

    cfg, scheme = workload.tasks()[0]
    try:
        harness.evaluate_instance(cfg, WARMUP_SEED, scheme)
    except Exception:  # the warm-up only fills caches; its outcome is not scored
        pass
    return process_age()


def setup_sample(name):
    """Set-up time of a fresh process: start to the end of its warm-up."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                          "--setup-probe"], capture_output=True, text=True, timeout=170,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def benchmark(args):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    setup = [warm_up(wl)]
    run = Run(wl, args.trace)
    n_rounds = run.measure(args.seed, args.seconds)
    if args.trace:
        metrics = run.per_layer()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        run.tracer.write(os.path.join(HERE, "out", f"spans-{wl.name}-{args.seed}.jsonl"))
        coverage = check_self_times(run.tracer)
        if coverage is not None:
            run.unexpected.append(coverage)
    else:
        rss_mb = peak_rss_mb()   # before the set-up probes, which are children too
        setup += [setup_sample(wl.name) for _ in range(2)]
        metrics = run.end_to_end(setup, rss_mb)
    failed = run.failed
    print("blas: " + ", ".join(f"{lib} {n} threads" for lib, n in blas_threads()))
    print(f"workload {wl.name} seed {args.seed}: {n_rounds} rounds, {run.attempted} trials "
          f"attempted, {failed} failed")
    for (name, reason), count in sorted(run.failures.items()):
        print(f"FAILED {name}: {reason} (x{count})")
    for problem in run.unexpected:
        print(f"UNEXPECTED {problem}")
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def check_self_times(tracer):
    """Self times of all spans must add up to the root spans' durations."""
    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    total = sum(tracer.self_times())
    if abs(total - roots) > 1e-9 * max(roots, 1e-300) + 1e-12 * len(tracer.spans):
        return f"span self times sum to {total!r} s, root spans to {roots!r} s"
    return None


def compare(sets_of):
    """Two sets of runs of every workload; agreement per metric and bound."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    results = {(name, s): [] for name in names for s in (0, 1)}
    for s in (0, 1):
        for i in range(sets_of):
            for name in names:
                seed = 1 + i + 100 * s
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
                res = json.loads(out.stdout.strip().splitlines()[-1])
                results[(name, s)].append(res)
                shown = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                print(f"set {s} {name} seed {seed}: correct={res['correct']} "
                      f"{res['failed']}/{res['attempted']} failed {shown}", flush=True)
    ok = True
    for name in names:
        shares = [{r["failed"] / r["attempted"] for r in results[(name, s)]} for s in (0, 1)]
        same = len(shares[0] | shares[1]) == 1
        ok &= same
        print(f"{name} failed share: {'same' if same else 'DIFFERS'} {sorted(shares[0] | shares[1])}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][key]["value"] for r in results[(name, s)]] for s in (0, 1)]
            med = [statistics.median(v) for v in vals]
            spread = [(q[2] - q[0]) / m for q, m in
                      ((statistics.quantiles(v, n=4), m) for v, m in zip(vals, med))]
            worse = (med[1] - med[0]) / med[0] * (1 if metric["better"] == "lower" else -1)
            agree = worse <= bound and (key == "setup_s" or max(spread) <= bound)
            ok &= agree
            print(f"  {key:14s} bound {bound:.2f}  spread {spread[0]:.3f} {spread[1]:.3f}  "
                  f"median {med[0]:.6g} -> {med[1]:.6g} ({worse:+.3f} worse)  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=int, metavar="N",
                        help="two sets of N runs of every workload, checked against the bounds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(args.compare) else 1)
    from workloads import WORKLOADS  # exits when the program's sources are missing

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        print(warm_up(WORKLOADS[args.workload]))
        return
    benchmark(args)


if __name__ == "__main__":
    main()
