import csv
import io
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fdsec.channel import SystemConfig
from fdsec.harness import (
    SweepSpec,
    TrialResult,
    _aggregate_point,
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

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_trial(SMALL, 0, "mrt")


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

    def test_no_idle_users_never_fires(self):
        from fdsec.channel import realize
        from fdsec.receivers import zf_receivers

        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=0)
        _, chan = realize(cfg, 0)
        rec = zf_receivers(chan.g)
        assert hd_precheck_fires(chan, cfg, rec) is False


class TestParallelism:
    def test_parallel_matches_serial(self):
        seeds = [10, 11, 12]
        serial = run_trials(SMALL, seeds, ("optimal",), jobs=1)
        parallel = run_trials(SMALL, seeds, ("optimal",), jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed and a.scheme == b.scheme
            assert a.objective_w == b.objective_w
            assert a.min_margin == b.min_margin


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
        assert len(trial_csv_row(results[0], SMALL)) == len(header)

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
        proc2 = self.run_cli("summarize", "--out", str(tmp_path))
        assert proc2.returncode == 0, proc2.stderr
        assert "optimal" in proc2.stdout

    def test_write_config(self):
        proc = self.run_cli("write-config")
        assert proc.returncode == 0
        assert "n_antennas" in proc.stdout
