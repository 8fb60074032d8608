import csv
import io
import multiprocessing
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import oracles

from fdsec.certificates import rebalance_powers
from fdsec.channel import SystemConfig, realize
from fdsec.cli import build_parser, main
import fdsec.harness as harness
from fdsec.harness import (
    BATCH_TRIALS,
    SCHEMES,
    SweepSpec,
    TrialResult,
    _aggregate_point,
    _batches,
    _prepare,
    _tasks,
    evaluate_batch,
    evaluate_instance,
    hd_crossing,
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
from fdsec.metrics import link_model
from fdsec.problem import build_hd_problem, recover_allocation
from fdsec.receivers import zf_receivers
from fdsec.solver import _farkas_rays, _Stack, _StandardForm, ray_report, solve

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import checks  # noqa: E402  (the benchmark's independent output checks)

SMALL = SystemConfig(n_antennas=6, n_dl=3, n_ul=2, n_idle=2)

# the exits that a trial of each status may report (SolverReport.exit)
EXITS = {"optimal": ("strict", "floor", "breakdown", "presolve"),
         "primal_infeasible": ("ray", "closed_form_ray", "presolve"),
         "max_iters": ("failure",), "numerical_failure": ("failure",)}


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

    def test_zero_cost_optimum_is_minus_infinity_dbm(self):
        # with alpha = 0 and no UL user nothing costs power: the optimum is 0 W
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = run_trial(SystemConfig(alpha=0.0, n_ul=0), 0, "optimal")
        assert r.status == "optimal"
        assert (r.objective_w, r.objective_dbm) == (0.0, -np.inf)

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
            assert r.exit in EXITS[r.status]
            if r.status == "primal_infeasible":
                inst = evaluate_instance(cfg, seed, r.scheme)
                assert checks.valid_ray(inst.problem, inst.report.multipliers)
            elif r.status == "optimal" and r.scheme == "optimal":
                assert checks.check_instance(evaluate_instance(cfg, seed, r.scheme)) == []
        write_trials_csv(os.devnull, results, cfg)  # raises on a column not in the header


class TestDualityOracle:
    # with no UL and no idle user the problem is classic DL QoS beamforming,
    # whose SDP relaxation is tight: every scheme's optimum is the duality one
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(dims=st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           gamma_db=st.floats(0.0, 18.0), seed=st.integers(0, 2**16),
           scheme=st.sampled_from(("optimal", "baseline1", "baseline2")))
    @example(dims=(8, 8), gamma_db=12.0, seed=0, scheme="optimal")   # K = N
    @example(dims=(4, 1), gamma_db=12.0, seed=0, scheme="baseline1")  # K = 1
    def test_pipeline_matches_duality_optimum(self, dims, gamma_db, seed, scheme):
        n, k = dims
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=0, n_idle=0,
                           gamma_dl_req_default_db=gamma_db)
        chan = realize(cfg, seed)[1]
        inst = evaluate_instance(cfg, seed, scheme)  # run_trial's objective_w is inst.qos.objective
        assert inst.report.status == "optimal"
        assert inst.qos.objective == pytest.approx(oracles.downlink_duality_optimum(chan, cfg),
                                                   rel=1e-7)
        # each kept beam points along its dual UL MMSE filter
        for w, d in zip(inst.alloc.W, oracles.downlink_duality_directions(chan, cfg)):
            u = np.linalg.eigh(w)[1][:, -1]
            assert 1.0 - abs(np.vdot(u, d)) / np.linalg.norm(d) <= 1e-7


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
        polished = rebalance_powers(raw, inst.model, cfg, scheme)
        assert polished is not None
        assert np.array_equal(inst.alloc.P, polished.P)
        assert all(np.array_equal(a, b) for a, b in zip(inst.alloc.W, polished.W))
        assert np.array_equal(inst.alloc.V, polished.V)
        assert checks.check_instance(inst) == []


def hd_drops(test):
    """Run a test of (self, dims, gamma_ul_db, seed) on random no-AN probe
    drops with dims = (N, K, J, M), J and M below N, and on named drops:
    the edge configurations J = 0, M = 0, K = 1 and N = J + 1."""
    named = (((8, 6, 3, 5), 1),    # fires
             ((8, 6, 3, 5), 3),    # does not fire
             ((4, 2, 0, 2), 0),    # J = 0
             ((4, 2, 2, 0), 0),    # M = 0
             ((4, 1, 1, 1), 0),    # K = 1
             ((3, 2, 2, 1), 0))    # N = J + 1
    for dims, seed in named:
        test = example(dims=dims, gamma_ul_db=10.0, seed=seed)(test)
    test = given(dims=st.integers(2, 8).flatmap(lambda n: st.tuples(
                     st.just(n), st.integers(1, 6), st.integers(0, n - 1),
                     st.integers(0, n - 1))),
                 gamma_ul_db=st.floats(-10.0, 30.0), seed=st.integers(0, 2**16))(test)
    return settings(max_examples=100, deadline=None, derandomize=True)(test)


def hd_config(dims, gamma_ul_db):
    n, k, j, m = dims
    return SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m,
                        gamma_ul_req_default_db=gamma_ul_db)


class TestHdPrecheck:
    def test_agreement_with_solver(self):
        cfg = SystemConfig()
        fired = 0
        for seed in range(6):
            _, chan = realize(cfg, seed)
            rec = zf_receivers(chan.g)
            if hd_crossing(link_model(chan, rec), cfg) is not None:
                fired += 1
                # the IPM's own verdict: run_trial decides the drop by its ray
                problem = build_hd_problem(link_model(chan, rec), cfg)[0]
                assert solve(problem).status == "primal_infeasible"
                r = run_trial(cfg, seed, "hd")
                assert r.hd_precheck_infeasible
                assert r.status == "primal_infeasible" and r.iterations == 0
        assert fired >= 1  # typical drops place an idle user near a UL user

    @hd_drops
    def test_agrees_with_independent_precheck(self, dims, gamma_ul_db, seed):
        cfg = hd_config(dims, gamma_ul_db)
        _, chan = realize(cfg, seed)
        rec = zf_receivers(chan.g)
        fires = hd_crossing(link_model(chan, rec), cfg) is not None
        assert fires is checks.ul_precheck(chan, cfg, rec.r)

    def test_no_idle_users_never_fires(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=0)
        _, chan = realize(cfg, 0)
        rec = zf_receivers(chan.g)
        assert hd_crossing(link_model(chan, rec), cfg) is None


def halve_c4(vmap, y):
    """The ray y with its C4 multiplier halved: P_j keeps a net positive
    coefficient in A'y, so it is no ray."""
    y = y.copy()
    y[[i for label, i in vmap.row_index.items() if label.startswith("C4") and y[i]]] *= 0.5
    return y


def whole_program_verdict(problem, y):
    """Whether ``_farkas_rays`` accepts multipliers y on the standard form of
    the whole program: the reference for ``ray_report``'s support-row check."""
    sf = _StandardForm(problem)
    y_kept = np.asarray(y, dtype=float)[sf.kept] / (sf.row_scale * sf.obj_scale)
    aty = sf.a_full.T @ y_kept
    return bool(_farkas_rays(_Stack([sf]), y_kept[np.newaxis], aty[np.newaxis])[0])


def check_support_rays(inst):
    """``ray_report`` on the built ray of a firing drop, on it with its C4
    multiplier halved, and on it plus a multiplier on C1[0] that keeps it a
    ray and one that does not (a 3-row support): each verdict is the whole
    program's, and an accepted report is 0 off the support and passes the
    benchmark's ray check. Returns the verdicts."""
    variants = [inst.ray, halve_c4(inst.vmap, inst.ray)]
    for share in (1e-12, 1e-3):
        y = inst.ray.copy()
        y[inst.vmap.row_index["C1[0]"]] = share * inst.ray.max()
        variants.append(y)
    verdicts = []
    for y in variants:
        report = ray_report(inst.problem, y)
        verdicts.append(report is not None)
        assert verdicts[-1] is whole_program_verdict(inst.problem, y)
        if report is not None:
            assert np.all(report.multipliers[y == 0] == 0.0)
            assert np.allclose(report.multipliers, y, rtol=1e-14, atol=0.0)
            assert checks.valid_ray(inst.problem, report.multipliers)
    return verdicts


class TestHdRay:
    def test_firing_drops_carry_a_valid_ray(self):
        cfg = SystemConfig()
        decided = 0
        for seed in range(12):
            inst = evaluate_instance(cfg, seed, "hd")
            if inst.precheck:
                decided += 1
                assert inst.report.status == "primal_infeasible"
                assert inst.report.iterations == 0
                assert checks.valid_ray(inst.problem, inst.report.multipliers)
            else:
                assert inst.report.iterations > 0
        assert decided >= 1

    @hd_drops
    def test_ray_exactly_when_precheck_fires(self, dims, gamma_ul_db, seed):
        inst = _prepare(hd_config(dims, gamma_ul_db), seed, "hd")
        fires = checks.ul_precheck(inst.chan, inst.cfg, inst.receivers.r)
        assert inst.precheck is fires and (inst.ray is not None) is fires
        if fires:
            report = ray_report(inst.problem, inst.ray)
            assert report is not None and report.status == "primal_infeasible"
            assert report.iterations == 0
            assert checks.valid_ray(inst.problem, report.multipliers)
            check_support_rays(inst)

    def test_support_check_matches_whole_program(self):
        verdicts = []
        for seed in range(41):
            inst = _prepare(SystemConfig(), seed, "hd")
            if inst.ray is not None:
                verdicts.append(check_support_rays(inst))
        # the ray and its 1e-12 C1 extension pass, the other two do not
        assert len(verdicts) >= 20
        assert all(v == [True, False, True, False] for v in verdicts)

    def test_report_refuses_a_non_ray(self):
        inst = _prepare(SystemConfig(), 1, "hd")
        assert ray_report(inst.problem, inst.ray) is not None
        assert ray_report(inst.problem, halve_c4(inst.vmap, inst.ray)) is None
        assert ray_report(inst.problem, np.zeros_like(inst.ray)) is None

    def test_refused_ray_falls_through_to_the_ipm(self, monkeypatch):
        cfg = SystemConfig()
        ipm = solve(_prepare(cfg, 1, "hd").problem)
        built = harness.hd_ray
        monkeypatch.setattr(harness, "hd_ray",
                            lambda vmap, *args: halve_c4(vmap, built(vmap, *args)))
        inst = evaluate_instance(cfg, 1, "hd")
        assert inst.precheck
        assert inst.report.status == "primal_infeasible" and inst.report.iterations > 0
        assert inst.report.iterations == ipm.iterations
        assert np.array_equal(inst.report.multipliers, ipm.multipliers)

    def test_batch_matches_solo_trials(self):
        # rays and IPM solves mixed in one batch, each as its trial alone
        cfg = SystemConfig()
        batch = evaluate_batch([(cfg, seed, "hd") for seed in range(4)])
        assert [inst.precheck for inst in batch] == [False, True, True, False]
        for seed, inst in enumerate(batch):
            solo = evaluate_instance(cfg, seed, "hd").report
            assert inst.report.iterations == solo.iterations
            assert np.array_equal(inst.report.multipliers, solo.multipliers)


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
                for flag in ("--jobs", "--trials"):
                    with pytest.raises(SystemExit):
                        build_parser().parse_args(command + [flag, str(jobs)])
                    assert flag in capsys.readouterr().err
        assert multiprocessing.active_children() == []


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(parameter="bandwidth", values=(1,))
        with pytest.raises(ValueError):
            SweepSpec(parameter="n_antennas", values=())
        with pytest.raises(ValueError):
            SweepSpec(parameter="n_antennas", values=(6,), trials=0)
        for values in ((8.5,), (6, float("inf"))):
            with pytest.raises(ValueError, match="whole numbers|finite"):
                SweepSpec(parameter="n_antennas", values=values)
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(parameter="gamma_dl_req_db", values=(6.0, float("nan")))
        assert SweepSpec(parameter="n_antennas", values=(6, 8.0)).config_for(8.0).n_antennas == 8
        with pytest.raises(ValueError, match="N > J"):
            SweepSpec(parameter="n_antennas", values=(8, 2))
        for schemes in (("zf",), (), ("optimal", "optimal")):
            with pytest.raises(ValueError):
                SweepSpec(parameter="n_antennas", values=(6,), schemes=schemes)
            with pytest.raises(ValueError):
                run_trials(SMALL, [0], schemes)

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
            exit="strict" if feasible else "ray",
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
        # summarize loads scipy.special and a sweep with jobs > 1 the process
        # pool, each on first use; the Schur factor comes from scipy's compiled
        # _flapack without the scipy.linalg package, and the power polish calls
        # scipy's compiled HiGHS, _highspy._core, without scipy.optimize: each
        # is the very module scipy's own packages load later
        code = ("import sys, fdsec\n"
                "unloaded = ('scipy.optimize', 'scipy.special', 'scipy.linalg', 'scipy.sparse',"
                " 'concurrent.futures.process')\n"
                "fdsec.run_trial(fdsec.SystemConfig(), 0, 'hd')\n"
                "print([m for m in unloaded + ('scipy.optimize._highspy._core',)"
                " if m in sys.modules])\n"
                "r = fdsec.run_trial(fdsec.SystemConfig(), 0, 'optimal')\n"
                "print(r.status, [m for m in unloaded if m in sys.modules])\n"
                "import scipy.linalg.lapack as lapack\n"
                "print(fdsec.solver.dpotrf is lapack.dpotrf, fdsec.solver.dpotrs is lapack.dpotrs)\n"
                "import scipy.optimize\n"
                "print(fdsec.certificates.scipy_extension('scipy.optimize._highspy._core')"
                " is scipy.optimize._highspy._core)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "optimal []", "True True", "True"]

    def test_missing_highs_fails_at_import(self):
        # a scipy without the compiled HiGHS is refused by `import fdsec`,
        # with an ImportError naming the module and scipy's version
        code = ("import importlib.machinery as machinery\n"
                "find = machinery.PathFinder.find_spec\n"
                "machinery.PathFinder.find_spec = lambda name, *args: (\n"
                "    None if name.endswith('_highspy._core') else find(name, *args))\n"
                "import scipy\n"
                "try:\n"
                "    import fdsec\n"
                "except ImportError as exc:\n"
                "    print(exc.name, scipy.__version__ in str(exc))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["scipy.optimize._highspy._core True"]

    def test_polish_reuses_loaded_optimize(self):
        # the opposite order: scipy.optimize first, then a polishing trial
        code = ("import scipy.optimize, fdsec\n"
                "r = fdsec.run_trial(fdsec.SystemConfig(), 0, 'optimal')\n"
                "print(r.status, fdsec.certificates.scipy_extension("
                "'scipy.optimize._highspy._core') is scipy.optimize._highspy._core)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["optimal True"]


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "fdsec.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_trial_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_antennas = 6\nn_dl = 3\nn_ul = 2\nn_idle = 2\n")
        proc = self.run_cli("trial", "--config", str(cfg), "--seed", "0",
                            "--trials", "2", "--scheme", "optimal", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        assert "status=optimal" in proc.stdout
        for arg, problem in ((",", "at least one scheme"), ("optimal,optimal", "repeats")):
            with pytest.raises(SystemExit) as exc:
                main(["trial", "--scheme", arg, "--out", str(tmp_path / "bad")])
            assert exc.value.code == 2 and problem in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_sweep_and_summarize(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_antennas = 6\nn_dl = 3\nn_ul = 2\nn_idle = 2\n")
        proc = self.run_cli("sweep", "--config", str(cfg), "--sweep", "gamma_dl",
                            "--values", "6,9", "--trials", "2", "--scheme", "optimal",
                            "--seed", "0", "--jobs", "2", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        for arg, problem in ((",", "at least one scheme"), ("optimal,optimal", "repeats")):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--sweep", "gamma_dl", "--values", "6", "--trials", "1",
                      "--scheme", arg, "--out", str(tmp_path / "bad")])
            assert exc.value.code == 2 and problem in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()
        for name in ("trials.csv", "sweep.csv", "sweep.dat", "summary.txt"):
            assert (tmp_path / name).exists()
        written = (tmp_path / "summary.txt").read_bytes()
        proc2 = self.run_cli("summarize", "--out", str(tmp_path))
        assert proc2.returncode == 0, proc2.stderr
        assert "optimal" in proc2.stdout
        assert (tmp_path / "summary.txt").read_bytes() == written

    def test_input_errors_exit_2_naming_the_flag(self, tmp_path, capsys):
        # each bad value is a usage error (status 2) that names its flag or
        # file, found before any trial runs or any output is written
        bad_value = tmp_path / "bad_value.cfg"
        bad_value.write_text("n_antennas = eight\n")
        missing = tmp_path / "missing.cfg"
        cases = [
            (["sweep", "--sweep", "gamma_dl", "--values", "6,,12"], ["--values", "'6,,12'"]),
            (["sweep", "--sweep", "gamma_dl", "--values", "nan"], ["--values", "finite"]),
            (["trial", "--seed", "-1"], ["--seed", "at least 0"]),
            (["sweep", "--sweep", "gamma_dl", "--values", "6", "--seed", "-1"], ["--seed"]),
            (["sweep", "--sweep", "antennas", "--values", "8.5"], ["--values", "whole numbers"]),
            (["trial", "--config", str(bad_value)], ["--config", "bad_value.cfg", "n_antennas"]),
            (["sweep", "--sweep", "gamma_dl", "--values", "6", "--config", str(missing)],
             ["--config", "missing.cfg"]),
        ]
        out = tmp_path / "out"
        for argv, named in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            err = capsys.readouterr().err
            assert exc.value.code == 2, argv
            assert all(text in err for text in named), err
            assert "Traceback" not in err
        assert not out.exists()
        proc = self.run_cli("trial", "--seed", "-1", "--out", str(out))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_config_values_that_would_crash_a_trial_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        for line, named in (("alpha = nan", "finite"), ("gamma_tol_db = nan", "finite"),
                            ("ref_distance_m = 600", "ref_distance_m")):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            for argv in (["trial"], ["sweep", "--sweep", "gamma_dl", "--values", "6"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--config", str(cfg), "--out", str(out)])
                err = capsys.readouterr().err
                assert exc.value.code == 2, line
                assert "--config" in err and named in err and "Traceback" not in err
        assert not out.exists()

    def test_malformed_counts_exit_2(self, tmp_path, capsys):
        # negative user counts and the removed bandwidth_hz key in a config
        # file, and an antenna count no SystemConfig takes in --values
        out = tmp_path / "out"
        cfg = tmp_path / "bad.cfg"
        for line, named in (("n_ul = -1", "nonnegative"), ("n_idle = -1", "nonnegative"),
                            ("n_dl = -2", "nonnegative"), ("bandwidth_hz = 2e5", "bandwidth_hz")):
            cfg.write_text(line + "\n")
            with pytest.raises(SystemExit) as exc:
                main(["trial", "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            assert exc.value.code == 2, line
            assert "--config" in err and named in err and "Traceback" not in err
        argv = ["sweep", "--sweep", "antennas", "--values", "8,2", "--trials", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "--values" in err and "N > J" in err
        proc = self.run_cli(*argv, "--out", str(out))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_summarize_without_trials_csv_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--out", str(tmp_path / "empty")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--out" in err and os.path.join("empty", "trials.csv") in err
        assert not (tmp_path / "empty").exists()

    def test_summarize_without_status_column_exits_2(self, tmp_path, capsys):
        (tmp_path / "trials.csv").write_text("scheme,objective_w,objective_dbm\noptimal,1,30\n")
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "trials.csv" in err and "status" in err
        assert not (tmp_path / "summary.txt").exists()
        proc = self.run_cli("summarize", "--out", str(tmp_path))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr

    def test_write_config(self):
        proc = self.run_cli("write-config")
        assert proc.returncode == 0
        assert "n_antennas" in proc.stdout
