import csv
import io
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdsec.certificates import rebalance_powers
from fdsec.channel import SystemConfig, realize
from fdsec.cli import build_parser
from fdsec.harness import (
    BATCH_TRIALS,
    SCHEMES,
    SweepSpec,
    TrialResult,
    _aggregate_point,
    _batches,
    _tasks,
    evaluate_instance,
    hd_precheck_fires,
    load_config,
    run_trial,
    run_trials,
    summarize,
    sweep,
    trial_csv_header,
    trial_csv_row,
    write_default_config,
    write_sweep_csv,
    write_sweep_dat,
    write_trials_csv,
)
from fdsec.problem import recover_allocation
from fdsec.receivers import zf_receivers
from fdsec.solver import solve

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import checks  # noqa: E402  (the benchmark's independent output checks)

SMALL = SystemConfig(n_antennas=6, n_dl=3, n_ul=2, n_idle=2)


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(SMALL, 3, "optimal")
        b = run_trial(SMALL, 3, "optimal")
        assert a.status == b.status == "optimal"
        assert a.objective_w == b.objective_w
        assert a.ul_powers_w == b.ul_powers_w
        assert np.array_equal(a.qos.dl_sinr, b.qos.dl_sinr)

    def test_margins_invariant(self):
        for seed in range(4):
            r = run_trial(SMALL, seed, "optimal")
            if r.feasible:
                assert r.min_margin >= -1e-6

    def test_dbm_conversion(self):
        r = run_trial(SMALL, 1, "optimal")
        assert r.objective_dbm == pytest.approx(10 * np.log10(r.objective_w * 1e3))

    def test_scheme_dominance_per_seed(self):
        for seed in range(3):
            ro = run_trial(SMALL, seed, "optimal")
            r1 = run_trial(SMALL, seed, "baseline1")
            r2 = run_trial(SMALL, seed, "baseline2")
            if all(r.feasible for r in (ro, r1, r2)):
                assert ro.objective_w <= r1.objective_w + 1e-6
                assert ro.objective_w <= r2.objective_w + 1e-6

    def test_hd_records_verdict_only(self):
        r = run_trial(SystemConfig(), 1, "hd")
        assert r.scheme == "hd"
        assert r.qos is None and r.rank is None
        assert r.hd_precheck_infeasible in (True, False)
        assert r.status in ("primal_infeasible", "optimal", "max_iters", "numerical_failure")

    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=0),
        SystemConfig(n_antennas=6, n_dl=2, n_ul=2, n_idle=0),
    ])
    def test_no_idle_users_schemes_agree(self, cfg):
        # with no eavesdropper nothing rewards AN, so its power optimises to
        # zero and every scheme reaches the same optimum
        for seed in range(3):
            rows = [run_trial(cfg, seed, s) for s in ("optimal", "baseline1", "baseline2")]
            assert [r.status for r in rows] == ["optimal"] * 3
            opt, b1, b2 = (r.objective_w for r in rows)
            assert b1 == pytest.approx(b2, rel=1e-12)
            assert opt == pytest.approx(b1, rel=1e-7)

    def test_trial_is_the_default_solve(self):
        inst = evaluate_instance(SystemConfig(), 0, "optimal")
        rep = solve(inst.problem)
        assert (inst.report.status, inst.report.iterations) == (rep.status, rep.iterations)
        assert float(inst.report.primal_obj).hex() == float(rep.primal_obj).hex()
        assert float(inst.report.dual_obj).hex() == float(rep.dual_obj).hex()

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_trial(SMALL, 0, "mrt")

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(dims=st.integers(2, 6).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(1, 4), st.integers(0, n - 1), st.integers(0, n - 1))),
           seed=st.integers(0, 2**16))
    @example(dims=(4, 2, 0, 2), seed=0)   # J = 0
    @example(dims=(4, 2, 2, 0), seed=0)   # M = 0
    @example(dims=(4, 1, 1, 1), seed=0)   # K = 1
    @example(dims=(3, 2, 2, 1), seed=0)   # N = J + 1
    def test_every_trial_ends_in_a_named_status(self, dims, seed):
        n, k, j, m = dims
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m)
        results = [run_trial(cfg, seed, scheme) for scheme in SCHEMES]
        for r in results:
            assert r.status in ("optimal", "primal_infeasible", "max_iters", "numerical_failure")
            if r.status == "primal_infeasible":
                inst = evaluate_instance(cfg, seed, r.scheme)
                assert checks.valid_ray(inst.problem, inst.report.multipliers)
            elif r.status == "optimal" and r.scheme == "optimal":
                assert checks.check_instance(evaluate_instance(cfg, seed, r.scheme)) == []
        write_trials_csv(os.devnull, results, cfg)  # raises on a column not in the header


class TestPolish:
    # sweep-scenario trials whose raw beam matrices miss rank one (lambda_2 /
    # lambda_1 just above 1e-6) and whose raw points fail the checks
    @pytest.mark.parametrize("gamma_db, seed, scheme", [
        (18.0, 25, "optimal"), (6.0, 25, "baseline2"), (6.0, 3, "baseline1"),
    ])
    def test_kept_point_is_polished_and_passes(self, gamma_db, seed, scheme):
        cfg = SystemConfig(n_antennas=6, n_dl=2, n_ul=2, n_idle=1,
                           gamma_dl_req_default_db=gamma_db)
        inst = evaluate_instance(cfg, seed, scheme)
        assert inst.report.status == "optimal"
        raw = recover_allocation(inst.report.primal, inst.vmap, inst.receivers)
        polished = rebalance_powers(raw, inst.chan, cfg, scheme)
        assert polished is not None
        assert np.array_equal(inst.alloc.P, polished.P)
        assert all(np.array_equal(a, b) for a, b in zip(inst.alloc.W, polished.W))
        assert np.array_equal(inst.alloc.V, polished.V)
        assert checks.check_instance(inst) == []


class TestHdPrecheck:
    def test_agreement_with_solver(self):
        cfg = SystemConfig()
        fired = 0
        for seed in range(6):
            r = run_trial(cfg, seed, "hd")
            if r.hd_precheck_infeasible:
                fired += 1
                assert r.status == "primal_infeasible"
        assert fired >= 1  # typical drops place an idle user near a UL user

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dims=st.integers(2, 8).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(1, 6), st.integers(0, n - 1), st.integers(0, n - 1))),
           gamma_ul_db=st.floats(-10.0, 30.0), seed=st.integers(0, 2**16))
    @example(dims=(8, 6, 3, 5), gamma_ul_db=10.0, seed=1)   # fires
    @example(dims=(8, 6, 3, 5), gamma_ul_db=10.0, seed=3)   # does not fire
    @example(dims=(4, 2, 0, 2), gamma_ul_db=10.0, seed=0)   # J = 0
    @example(dims=(4, 2, 2, 0), gamma_ul_db=10.0, seed=0)   # M = 0
    @example(dims=(4, 1, 1, 1), gamma_ul_db=10.0, seed=0)   # K = 1
    @example(dims=(3, 2, 2, 1), gamma_ul_db=10.0, seed=0)   # N = J + 1
    def test_agrees_with_independent_precheck(self, dims, gamma_ul_db, seed):
        n, k, j, m = dims
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m,
                           gamma_ul_req_default_db=gamma_ul_db)
        _, chan = realize(cfg, seed)
        rec = zf_receivers(chan.g)
        assert hd_precheck_fires(chan, cfg, rec) is checks.ul_precheck(chan, cfg, rec.r)

    def test_no_idle_users_never_fires(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=0)
        _, chan = realize(cfg, 0)
        rec = zf_receivers(chan.g)
        assert hd_precheck_fires(chan, cfg, rec) is False


def same_trial(a, b):
    """Equal keys, status, iterations and objective and margin bits, nan equal to nan."""
    keys = ("trial_id", "seed", "scheme", "status", "iterations", "sweep_value",
            "objective_w", "min_margin")
    return all(same_value(getattr(a, k), getattr(b, k)) for k in keys)


def same_value(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex() or (np.isnan(a) and np.isnan(b))
    return a == b


class TestParallelism:
    def test_parallel_matches_serial(self):
        seeds = [10, 11, 12]
        serial = run_trials(SMALL, seeds, ("optimal",), jobs=1)
        parallel = run_trials(SMALL, seeds, ("optimal",), jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed and a.scheme == b.scheme
            assert a.status == b.status and a.iterations == b.iterations
            assert a.objective_w == b.objective_w
            assert a.min_margin == b.min_margin

    def test_more_jobs_than_tasks(self):
        serial = run_trials(SMALL, [3], ("optimal", "hd"), jobs=1)
        parallel = run_trials(SMALL, [3], ("optimal", "hd"), jobs=4)
        assert [r.scheme for r in parallel] == ["hd", "optimal"]
        assert all(same_trial(a, b) for a, b in zip(serial, parallel, strict=True))
        assert multiprocessing.active_children() == []

    def test_pooled_sweep_matches_serial(self):
        # 1 seed x 3 schemes per value, values out of order
        spec = SweepSpec(parameter="gamma_dl_req_db", values=(12.0, 6.0), trials=1,
                         schemes=("optimal", "baseline1", "baseline2"), base_config=SMALL,
                         base_seed=4)
        serial_points, serial = sweep(spec)
        pooled_points, pooled = sweep(replace(spec, jobs=2))
        assert multiprocessing.active_children() == []
        assert [(r.sweep_value, r.scheme) for r in pooled] == [
            (v, s) for v in (12.0, 6.0) for s in ("baseline1", "baseline2", "optimal")]
        assert [r.trial_id for r in pooled] == [1, 2, 0, 1, 2, 0]
        assert all(same_trial(a, b) for a, b in zip(serial, pooled, strict=True))
        for a, b in zip(serial_points, pooled_points, strict=True):
            for f in fields(a):
                if f.name != "mean_solve_time":
                    assert same_value(getattr(a, f.name), getattr(b, f.name)), f.name

        # an antenna sweep mixes problem layouts in one call; every trial of
        # it equals the trial run alone
        spec = SweepSpec(parameter="n_antennas", values=(6, 5), trials=2,
                         schemes=("optimal", "baseline2"), base_config=SMALL, base_seed=7)
        _, serial = sweep(spec)
        _, pooled = sweep(replace(spec, jobs=2))
        assert multiprocessing.active_children() == []
        assert all(same_trial(a, b) for a, b in zip(serial, pooled, strict=True))
        for r in pooled:
            alone = run_trial(spec.config_for(r.sweep_value), r.seed, r.scheme, r.trial_id)
            assert same_trial(replace(alone, sweep_value=r.sweep_value), r)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_batch_partition(self, jobs):
        seeds = range(11)
        tasks = [t for n in (5, 6)
                 for t in _tasks(SMALL.with_updates(n_antennas=n), seeds, SCHEMES)]
        # the baselines' problems share one layout; every other scheme has its own
        layout = {"baseline2": "baseline1"}
        batches = _batches(tasks, jobs)
        assert sorted(i for b in batches for i in b) == list(range(len(tasks)))
        assert max(len(b) for b in batches) <= BATCH_TRIALS
        groups = {}
        for b in batches:
            keys = {(layout.get(tasks[i][2], tasks[i][2]), tasks[i][0].n_antennas) for i in b}
            assert len(keys) == 1  # one problem layout and one system size per batch
            groups.setdefault(keys.pop(), []).append(len(b))
        assert len(groups) == 2 * (len(SCHEMES) - 1)
        for (key, _), sizes in groups.items():
            assert sum(sizes) == len(seeds) * (2 if key == "baseline1" else 1)
            assert len(sizes) >= jobs
            assert max(sizes) - min(sizes) <= 1
        assert any({tasks[i][2] for i in b} == {"baseline1", "baseline2"} for b in batches)

    def test_jobs_must_be_positive(self, capsys):
        for jobs in (0, -1):
            with pytest.raises(ValueError):
                SweepSpec(parameter="n_antennas", values=(6,), jobs=jobs)
            with pytest.raises(ValueError):
                run_trials(SMALL, [0], ("optimal",), jobs=jobs)
            for command in (["trial"], ["sweep", "--sweep", "gamma_dl", "--values", "6"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(command + ["--jobs", str(jobs)])
                assert "--jobs" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(parameter="bandwidth", values=(1,))
        with pytest.raises(ValueError):
            SweepSpec(parameter="n_antennas", values=())
        with pytest.raises(ValueError):
            SweepSpec(parameter="n_antennas", values=(6,), trials=0)
        with pytest.raises(ValueError):
            SweepSpec(parameter="n_antennas", values=(6,), schemes=("zf",))

    def test_small_sweep(self, tmp_path):
        spec = SweepSpec(
            parameter="gamma_dl_req_db", values=(6.0, 12.0), trials=3,
            schemes=("optimal", "baseline2"), base_config=SMALL, base_seed=0,
        )
        points, trials = sweep(spec)
        assert len(points) == 4
        assert len(trials) == 12
        for p in points:
            assert 0.0 <= p.feasibility_rate <= 1.0
            if p.common_feasible:
                assert np.isfinite(p.mean_power_dbm)
        # more stringent targets cannot make the common-feasible mean cheaper
        by = {(p.value, p.scheme): p for p in points}
        for scheme in ("optimal", "baseline2"):
            lo, hi = by[(6.0, scheme)], by[(12.0, scheme)]
            if lo.common_feasible and hi.common_feasible:
                assert hi.mean_power_dbm >= lo.mean_power_dbm - 3 * (lo.se_power_dbm + hi.se_power_dbm + 0.1)
        write_sweep_dat(tmp_path / "sweep.dat", points)
        lines = (tmp_path / "sweep.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3  # header + one line per value
        # rows of different sweep values with the same seed stay apart
        write_trials_csv(tmp_path / "trials.csv", trials, SMALL)
        with open(tmp_path / "trials.csv") as fh:
            keys = [(r["sweep_value"], r["seed"], r["scheme"]) for r in csv.DictReader(fh)]
        assert len(set(keys)) == len(keys) == 12

    def test_hd_is_never_averaged(self):
        # a feasible hd trial carries no QoS; it must not enter the common set
        spec = SweepSpec(parameter="gamma_dl_req_db", values=(6.0,), trials=3,
                         schemes=("optimal", "hd"), base_config=SMALL)
        points, trials = sweep(spec)
        assert any(r.scheme == "hd" and r.feasible for r in trials)
        by = {p.scheme: p for p in points}
        assert by["hd"].common_feasible == 0
        assert by["optimal"].common_feasible == by["optimal"].feasible

    def test_antenna_sweep_config(self):
        spec = SweepSpec(parameter="n_antennas", values=(6, 8), trials=1,
                         schemes=("optimal",), base_config=SystemConfig())
        assert spec.config_for(6).n_antennas == 6
        assert spec.config_for(8).n_antennas == 8


class TestSummaries:
    def make(self, scheme, dbm, feasible=True):
        return TrialResult(
            trial_id=0, seed=0, scheme=scheme,
            status="optimal" if feasible else "primal_infeasible",
            objective_w=10 ** (dbm / 10) / 1e3 if feasible else float("nan"),
            objective_dbm=dbm if feasible else float("nan"),
            dl_power_w=0.0, ul_powers_w=(), min_margin=0.0,
            qos=None, rank=None, hd_precheck_infeasible=None,
            iterations=1, solve_time=0.0,
        )

    def test_single_trial_degenerate_interval(self):
        rows = summarize([self.make("optimal", -10.0)])
        assert rows[0].mean_dbm == pytest.approx(-10.0)
        assert rows[0].half_width_dbm == 0.0

    def test_constant_inputs_zero_width(self):
        rows = summarize([self.make("optimal", -12.5) for _ in range(5)])
        assert rows[0].half_width_dbm == 0.0
        assert rows[0].mean_dbm == pytest.approx(-12.5)

    def test_interval_coverage(self):
        # known-distribution check: the 95% t-interval should cover the true
        # mean in roughly 95% of repetitions
        rng = np.random.default_rng(0)
        true_mean, cover, reps, n = 5.0, 0, 300, 12
        for _ in range(reps):
            sample = rng.normal(true_mean, 2.0, size=n)
            rows = summarize([self.make("optimal", x) for x in sample])
            lo = rows[0].mean_dbm - rows[0].half_width_dbm
            hi = rows[0].mean_dbm + rows[0].half_width_dbm
            cover += lo <= true_mean <= hi
        assert 0.90 <= cover / reps <= 0.99

    def test_two_trial_interval_pins_the_t_quantile(self):
        # t quantile at 97.5 % with 1 degree of freedom
        rows = summarize([self.make("optimal", -10.0), self.make("optimal", -8.0)])
        sd = np.std([-10.0, -8.0], ddof=1)
        assert rows[0].half_width_dbm == 12.706204736174694 * sd / np.sqrt(2)

    def test_feasibility_rate(self):
        rows = summarize([self.make("optimal", -10.0), self.make("optimal", 0.0, feasible=False)])
        assert rows[0].feasibility_rate == pytest.approx(0.5)

    def test_sweep_point_counts_solver_failures(self, tmp_path):
        # a solver failure is counted apart from an infeasible drop
        infeasible = self.make("optimal", 0.0, feasible=False)
        rows = [self.make("optimal", -10.0), infeasible,
                replace(infeasible, status="numerical_failure"),
                replace(infeasible, status="max_iters")]
        point = _aggregate_point("gamma_dl_req_db", 6.0, "optimal", rows, set())
        assert (point.trials, point.feasible, point.failed) == (4, 1, 2)
        assert point.feasibility_rate == pytest.approx(0.25)
        write_sweep_csv(tmp_path / "sweep.csv", [point])
        with open(tmp_path / "sweep.csv") as fh:
            assert next(csv.DictReader(fh))["failed"] == "2"
        write_sweep_dat(tmp_path / "sweep.dat", [point])
        header, line = (tmp_path / "sweep.dat").read_text().splitlines()
        assert header.split()[-1] == "optimal_failed"
        assert line.split()[-1] == "2"


class TestFiles:
    def test_trials_csv(self, tmp_path):
        results = run_trials(SMALL, [0, 1], ("optimal", "hd"), jobs=1)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, results, SMALL)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(r["scheme"] for r in rows) == {"optimal", "hd"}
        header = trial_csv_header(SMALL)
        assert len(set(header)) == len(header)
        solved = next(r for r in results if r.qos is not None)
        assert set(trial_csv_row(solved)) == set(header)
        assert all(set(trial_csv_row(r)) <= set(header) for r in results)
        assert all(row["sweep_value"] == "" for row in rows)
        for row, result in zip(rows, results):
            assert float(row["min_margin"]) == pytest.approx(result.min_margin, nan_ok=True)

    def test_config_round_trip(self, tmp_path):
        buf = io.StringIO()
        write_default_config(buf)
        path = tmp_path / "cfg.txt"
        path.write_text(buf.getvalue())
        cfg = load_config(path)
        assert cfg == SystemConfig()

    def test_config_custom_values(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n_antennas = 6\nn_dl = 2\nn_ul = 1\nn_idle = 1\n"
                        "gamma_dl_req_db = 6.0,9.0\nalpha = 2.0\n")
        cfg = load_config(path)
        assert cfg.n_antennas == 6 and cfg.n_dl == 2
        assert cfg.gamma_dl_req_db == (6.0, 9.0)
        assert cfg.alpha == 2.0

    def test_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("frequency = 1\n")
        with pytest.raises(ValueError):
            load_config(path)


class TestImports:
    def test_import_leaves_optimize_and_special_unloaded(self):
        # the power polish loads scipy.optimize and summarize scipy.special
        # on first use, so a process that runs neither does not load them
        code = ("import sys, fdsec\n"
                "print([m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "fdsec.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_trial_command(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_antennas = 6\nn_dl = 3\nn_ul = 2\nn_idle = 2\n")
        proc = self.run_cli("trial", "--config", str(cfg), "--seed", "0",
                            "--trials", "2", "--scheme", "optimal", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        assert "status=optimal" in proc.stdout

    def test_sweep_and_summarize(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_antennas = 6\nn_dl = 3\nn_ul = 2\nn_idle = 2\n")
        proc = self.run_cli("sweep", "--config", str(cfg), "--sweep", "gamma_dl",
                            "--values", "6,9", "--trials", "2", "--scheme", "optimal",
                            "--seed", "0", "--jobs", "2", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        for name in ("trials.csv", "sweep.csv", "sweep.dat", "summary.txt"):
            assert (tmp_path / name).exists()
        written = (tmp_path / "summary.txt").read_bytes()
        proc2 = self.run_cli("summarize", "--out", str(tmp_path))
        assert proc2.returncode == 0, proc2.stderr
        assert "optimal" in proc2.stdout
        assert (tmp_path / "summary.txt").read_bytes() == written

    def test_write_config(self):
        proc = self.run_cli("write-config")
        assert proc.returncode == 0
        assert "n_antennas" in proc.stdout
