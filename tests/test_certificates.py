import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import allocation_to_blocks, constraint_value, rows

from fdsec import certificates, solver
from fdsec.certificates import (
    CertificateUnavailableError,
    NotPsdError,
    dual_certificate,
    extract_beamformer,
    rebalance_powers,
)
from fdsec.channel import SystemConfig, realize
from fdsec.harness import evaluate_instance
from fdsec.metrics import Allocation, evaluate_qos, link_model
from fdsec.problem import (
    build_baseline_problem,
    build_optimal_problem,
    recover_allocation,
)
from fdsec.receivers import zf_receivers
from fdsec.solver import SolverReport, solve


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def solved_instance(cfg, seed):
    _, chan = realize(cfg, seed)
    rec = zf_receivers(chan.g)
    prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
    rep = solve(prob)
    return chan, rec, prob, vmap, rep


class TestExtraction:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(0)
        w = random_complex(rng, 5)
        res = extract_beamformer(np.outer(w, w.conj()))
        assert res.rank_one
        assert res.ratio <= 1e-12
        # recovered up to the phase convention
        assert abs(abs(np.vdot(res.w, w)) - np.linalg.norm(w) ** 2) <= 1e-9
        pivot = np.argmax(np.abs(res.w))
        assert abs(res.w[pivot].imag) <= 1e-12 and res.w[pivot].real > 0

    def test_identity_not_extracted(self):
        res = extract_beamformer(np.eye(4, dtype=complex))
        assert not res.rank_one
        assert res.ratio == pytest.approx(1.0)

    def test_zero_matrix(self):
        res = extract_beamformer(np.zeros((3, 3), dtype=complex))
        assert res.rank_one and np.all(res.w == 0)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPsdError):
            extract_beamformer(np.diag([1.0, -0.5]).astype(complex))

    def test_objective_preserved(self):
        # rank-one extraction keeps the radiated power
        rng = np.random.default_rng(1)
        w = random_complex(rng, 6)
        res = extract_beamformer(np.outer(w, w.conj()))
        assert np.linalg.norm(res.w) ** 2 == pytest.approx(np.linalg.norm(w) ** 2, rel=1e-10)


class TestDegenerateClosedForm:
    def test_single_user_certificate(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=0, n_idle=0, gamma_dl_req_default_db=10.0)
        chan, rec, prob, vmap, rep = solved_instance(cfg, 0)
        assert rep.status == "optimal"
        raw = recover_allocation(rep.primal, vmap, rec)
        report = dual_certificate(rep, link_model(chan, rec), cfg, vmap, raw)
        assert report.certificate_pass
        gamma = cfg.dl_sinr_targets[0]
        h = chan.h[0]
        delta_expected = cfg.alpha * gamma / np.linalg.norm(h) ** 2
        assert report.delta[0] == pytest.approx(delta_expected, rel=1e-4)
        # dual block reduces to alpha*(I - projection onto h): exactly one null dim
        assert report.y_zero_eigs[0] == 1
        assert report.b_min_eig[0] == pytest.approx(cfg.alpha, rel=1e-9)
        assert report.ranks[0] == 1
        # beamformer is the maximum-ratio direction
        w = report.w[0]
        align = abs(np.vdot(w, h)) / (np.linalg.norm(w) * np.linalg.norm(h))
        assert align == pytest.approx(1.0, abs=1e-5)

    def test_requires_optimal_status(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERS", 1)
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=0, n_idle=0)
        chan, rec, prob, vmap, rep = solved_instance(cfg, 0)
        if rep.status != "optimal":
            raw = recover_allocation(rep.primal, vmap, rec)
            with pytest.raises(CertificateUnavailableError):
                dual_certificate(rep, link_model(chan, rec), cfg, vmap, raw)


def rebuild_dual_block(rep, chan, cfg, rec, vmap, k):
    """Independent reconstruction of one beam matrix's dual block from the
    reported multipliers (the oracle the certificate is checked against)."""
    n = vmap.n
    mult = lambda lab: float(rep.multipliers[vmap.row_index[lab]])
    acc = cfg.alpha * np.eye(n, dtype=complex)
    for i in range(vmap.k_users):
        if i != k:
            acc += mult(f"C1[{i}]") * np.outer(chan.h[i], chan.h[i].conj())
    for j in range(vmap.j_users):
        a = chan.h_si.conj().T @ rec.r[j]
        acc += mult(f"C2[{j}]") * np.outer(a, a.conj())
    for m in range(vmap.m_users):
        acc += mult(f"C3[{m},{k}]") * np.outer(chan.l[m], chan.l[m].conj()) / cfg.eve_sinr_cap
    return acc - mult(f"C1[{k}]") * np.outer(chan.h[k], chan.h[k].conj()) / cfg.dl_sinr_targets[k]


class TestSolvedInstances:
    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_paper_scenario_certificate(self, seed):
        cfg = SystemConfig()
        chan, rec, prob, vmap, rep = solved_instance(cfg, seed)
        assert rep.status == "optimal"
        alloc = recover_allocation(rep.primal, vmap, rec)
        report = dual_certificate(rep, link_model(chan, rec), cfg, vmap, alloc)
        assert report.certificate_pass
        assert np.all(report.eig_ratios <= 1e-6)
        assert np.all(report.b_min_eig > 0)
        assert np.all(report.delta > 0)
        assert np.all(report.y_zero_eigs == 1)
        for k, w_mat in enumerate(alloc.W):
            tr_w = np.trace(w_mat).real
            if tr_w <= 1e-12:
                continue
            y_mat = rebuild_dual_block(rep, chan, cfg, rec, vmap, k)
            comp = abs(np.sum(y_mat.conj() * w_mat).real)
            assert comp <= 1e-6 * tr_w * max(np.abs(y_mat).max(), 1.0)
        # reconstructed dual blocks agree with the solver's own dual output
        assert np.all(report.y_consistency <= 1e-5)

    def test_objective_from_vectors(self):
        cfg = SystemConfig()
        chan, rec, prob, vmap, rep = solved_instance(cfg, 1)
        alloc = recover_allocation(rep.primal, vmap, rec)
        report = dual_certificate(rep, link_model(chan, rec), cfg, vmap, alloc)
        assert report.certificate_pass
        power_from_vectors = sum(np.linalg.norm(w) ** 2 for w in report.w)
        obj = cfg.alpha * (power_from_vectors + np.trace(alloc.V).real) + cfg.beta * alloc.P.sum()
        assert obj == pytest.approx(rep.primal_obj, rel=1e-6)


class TestDualBlocksAgainstAssembly:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=st.integers(2, 6).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(1, 3), st.integers(0, n - 1), st.integers(0, n - 1))),
           seed=st.integers(0, 2**16))
    @example(dims=(8, 6, 3, 5), seed=0)
    @example(dims=(4, 2, 0, 2), seed=1)  # J = 0
    @example(dims=(4, 2, 2, 0), seed=2)  # M = 0
    @example(dims=(4, 1, 1, 1), seed=3)  # K = 1
    @example(dims=(3, 2, 2, 1), seed=4)  # N = J + 1
    def test_dual_blocks_are_the_adjoint_of_the_rows(self, dims, seed):
        # at any multipliers y >= 0, the certificate's Y_k must equal the
        # dual block C - sum_i sign_i y_i A_i of the assembled conic rows
        n, k, j, m = dims
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m)
        _, chan = realize(cfg, seed)
        rec = zf_receivers(chan.g)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        rng = np.random.default_rng(seed)
        # each row's term in the dual block is of order one
        peaks = np.array([max((np.abs(c).max() for c in con.psd_coeffs.values()), default=1.0)
                          for con in prob.constraints])
        y = rng.uniform(0.0, 1.0, len(prob.constraints)) / peaks
        sign = np.array([1.0 if con.sense == ">=" else -1.0 for con in prob.constraints])
        duals = [c.copy() for c in prob.objective_psd]
        for yi, si, con in zip(y, sign, prob.constraints):
            for b, coeff in con.psd_coeffs.items():
                duals[b] -= si * yi * coeff
        report = SolverReport(
            status="optimal", exit="strict", primal=None, multipliers=y, psd_duals=tuple(duals),
            orthant_dual=np.zeros(prob.orthant_dim), primal_obj=0.0, dual_obj=0.0,
            iterations=0,
        )
        beams = [random_complex(rng, n) for _ in range(k)]
        alloc = Allocation(W=tuple(np.outer(w, w.conj()) for w in beams),
                           V=np.eye(n, dtype=complex), P=np.ones(j), receivers=rec)
        cert = dual_certificate(report, link_model(chan, rec), cfg, vmap, alloc=alloc)
        assert cert.y_consistency.shape == (k,)
        assert np.all(cert.y_consistency <= 1e-12)


def assert_pinned_and_capped(prob, vmap, chan, cfg, polished):
    """C1/C2 met with equality to row scale, every C3/C4 cap held."""
    values = allocation_to_blocks(polished, vmap)
    margins = evaluate_qos(polished, link_model(chan, polished.receivers), cfg).margins
    activity = np.concatenate(margins.activity[:2])
    for (label, row), scale in zip(rows(vmap, "C1") + rows(vmap, "C2"), activity):
        con = prob.constraints[row]
        slack = constraint_value(prob, con, values) - con.constant
        assert abs(slack) <= 1e-12 * scale, label
    caps = np.array([chan.sigma2_eve[m] + np.real(l_vec.conj() @ polished.V @ l_vec)
                     for m, l_vec in enumerate(chan.l)])
    assert np.all(margins.c3 >= -1e-9 * caps[:, np.newaxis])
    assert np.all(margins.c4 >= -1e-9 * caps[:, np.newaxis])


class TestRebalancePowers:
    # drops whose powers along the beam directions leave eavesdropper-cap
    # deficits that only AN on the patch columns closes, fed back into the
    # powers: on 4006 almost one for one, on 5008 more than one for one
    @pytest.mark.parametrize("cfg, seed", [
        (SystemConfig(), 4006),
        (SystemConfig(n_antennas=8, n_dl=5, n_ul=2, n_idle=4), 5008),
    ], ids=["full-4006", "n8k5j2m4-5008"])
    def test_joint_patch_pins_targets_and_holds_caps(self, cfg, seed):
        chan, rec, prob, vmap, rep = solved_instance(cfg, seed)
        assert rep.status == "optimal"
        polished = rebalance_powers(recover_allocation(rep.primal, vmap, rec),
                                    link_model(chan, rec), cfg, "optimal")
        assert polished is not None
        assert_pinned_and_capped(prob, vmap, chan, cfg, polished)
        report = dual_certificate(rep, link_model(chan, rec), cfg, vmap, alloc=polished)
        assert report.certificate_pass

    def test_scale_patch_stays_on_baseline_direction(self):
        cfg = SystemConfig(n_antennas=6, n_dl=2, n_ul=2, n_idle=1, gamma_dl_req_default_db=24.0)
        _, chan = realize(cfg, 10)
        rec = zf_receivers(chan.g)
        prob, vmap = build_baseline_problem(link_model(chan, rec), cfg, "baseline1")
        rep = solve(prob)
        assert rep.status == "optimal"
        raw = recover_allocation(rep.primal, vmap, rec)
        polished = rebalance_powers(raw, link_model(chan, raw.receivers), cfg, "baseline1")
        assert polished is not None
        # allocation_to_blocks raises if V left the baseline direction
        assert_pinned_and_capped(prob, vmap, chan, cfg, polished)


SWEEP_12DB = SystemConfig(n_antennas=6, n_dl=2, n_ul=2, n_idle=1, gamma_dl_req_default_db=12.0)


class TestLinprog:
    # fdsec's direct HiGHS call must be scipy.optimize.linprog's solve, bit
    # for bit, on the polish LPs of sweep-scenario trials of every scheme;
    # seed 12's baseline2 LP has no exact point, so the CAP_TOL_FALLBACK pass runs
    def test_polish_lps_match_scipy_linprog(self, monkeypatch):
        from scipy.optimize import linprog as scipy_linprog

        lps, ours = [], certificates.linprog

        def record(cost, a_ub, b_ub):
            lps.append((cost, a_ub, b_ub))
            return ours(cost, a_ub, b_ub)

        monkeypatch.setattr(certificates, "linprog", record)
        trials = [(seed, scheme) for seed in range(3)
                  for scheme in ("optimal", "baseline1", "baseline2")] + [(12, "baseline2")]
        for seed, scheme in trials:
            assert evaluate_instance(SWEEP_12DB, seed, scheme).report.status == "optimal"
        assert len(lps) == 11  # one LP per trial, two for the fallback trial
        statuses = []
        for cost, a_ub, b_ub in lps:
            x = ours(cost, a_ub, b_ub)
            ref = scipy_linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, None), method="highs",
                                options={"primal_feasibility_tolerance": 1e-10})
            assert (x is None) == (ref.status != 0)
            assert x is None or np.array_equal(x, ref.x)
            statuses.append(ref.status)
        assert statuses.count(2) == 1 and statuses.count(0) == 10

    def test_post_solve_check_matches_linprog(self):
        from scipy.optimize._linprog_util import _check_result

        tol = certificates._LP_TOL
        x, slack = np.array([0.0, 2.0]), np.array([1.0, 0.0])
        cases = {
            "optimum": (x, 1.0, slack, 0),
            "x within tol of 0": (np.array([-0.99 * tol, 2.0]), 1.0, slack, 0),
            "slack within tol": (x, 1.0, np.array([1.0, -0.99 * tol]), 0),
            "nan in x": (np.array([np.nan, 2.0]), 1.0, slack, 4),
            "nan objective": (x, np.nan, slack, 4),
            "nan in slack": (x, 1.0, np.array([np.nan, 0.0]), 4),
            "x below 0 by more than tol": (np.array([-1.01 * tol, 2.0]), 1.0, slack, 4),
            "slack below -tol": (x, 1.0, np.array([1.0, -1.01 * tol]), 4),
        }
        bounds = np.array([[0.0, np.inf]] * 2)
        for name, (xs, fun, sl, expected) in cases.items():
            assert certificates._solution_ok(xs, fun, sl) == (expected == 0), name
            ref, _ = _check_result(xs, fun, 0, sl, np.empty(0), bounds, 1e-9, "", None)
            assert ref == expected, name

    def test_rejects_non_finite_input(self):
        a_ub = np.array([[1.0, np.inf]])
        with pytest.raises(ValueError, match="finite"):
            certificates.linprog(np.ones(2), a_ub, np.ones(1))

    def test_rejects_mismatched_shapes(self):
        # HiGHS reads the arrays through raw pointers sized by a_ub
        a_ub = np.ones((2, 3))
        for cost, b_ub in ((np.ones(2), np.ones(2)), (np.ones(3), np.ones(3)),
                           (np.ones((3, 1)), np.ones(2))):
            with pytest.raises(ValueError, match="one cost per column"):
                certificates.linprog(cost, a_ub, b_ub)
        x = certificates.linprog(np.array([1.0, 2.0, 3.0]), -a_ub, -np.ones(2))
        assert np.array_equal(x, [1.0, 0.0, 0.0])
