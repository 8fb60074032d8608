import logging

import numpy as np
import pytest
from oracles import enumerate_lp_optimum, lp_problem, random_diagonal_instance

from fdsec.problem import BlockValues, ConicProblem, LinearConstraint
from fdsec.solver import Residuals, SolverOptions, SolverReport, kkt_residuals, solve


class TestTrivialPrograms:
    def test_one_variable_lp(self):
        prob = lp_problem([1.0], [[1.0]], [">="], [1.0])
        rep = solve(prob)
        assert rep.status == "optimal"
        assert rep.primal_obj == pytest.approx(1.0, rel=1e-7)
        assert rep.multipliers[0] == pytest.approx(1.0, rel=1e-6)

    def test_eigenvalue_sdp(self):
        prob = ConicProblem(
            psd_dims=(2,), orthant_dim=0,
            objective_psd=(np.diag([1.0, 2.0]),), objective_orthant=np.zeros(0),
            constraints=(LinearConstraint(psd_coeffs={0: np.eye(2)}, orthant_coeffs=np.zeros(0),
                                          constant=1.0, sense=">=", label="tr"),),
        )
        rep = solve(prob)
        assert rep.status == "optimal"
        assert rep.primal_obj == pytest.approx(1.0, rel=1e-7)
        assert np.abs(rep.primal.psd[0] - np.diag([1.0, 0.0])).max() <= 1e-6

    def test_infeasible_box(self):
        prob = lp_problem([1.0], [[1.0], [1.0]], [">=", "<="], [2.0, 1.0])
        rep = solve(prob)
        assert rep.status == "primal_infeasible"

    def test_unbounded(self):
        prob = lp_problem([-1.0], [[1.0]], [">="], [1.0])
        rep = solve(prob)
        assert rep.status == "dual_infeasible"

    def test_no_constraints(self):
        prob = ConicProblem(
            psd_dims=(2,), orthant_dim=1,
            objective_psd=(np.eye(2),), objective_orthant=np.array([1.0]),
            constraints=(),
        )
        rep = solve(prob)
        assert rep.status == "optimal"
        assert rep.primal_obj == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        bad = ConicProblem(
            psd_dims=(2,), orthant_dim=0,
            objective_psd=(np.eye(3),), objective_orthant=np.zeros(0),
            constraints=(),
        )
        with pytest.raises(ValueError):
            solve(bad)

    def test_zero_functional_rows_dropped(self):
        prob = lp_problem([1.0], [[1.0], [0.0]], [">=", ">="], [1.0, -3.0])
        rep = solve(prob)
        assert rep.status == "optimal"
        assert rep.primal_obj == pytest.approx(1.0, rel=1e-7)

    def test_zero_functional_infeasible_row(self):
        prob = lp_problem([1.0], [[0.0]], [">="], [2.0])
        rep = solve(prob)
        assert rep.status == "primal_infeasible"


class TestDiagonalOracle:
    def test_fifty_instances(self):
        rng = np.random.default_rng(2024)
        tight = SolverOptions(rel_tol=1e-9, abs_tol=1e-11)
        solved = 0
        for _ in range(50):
            prob, (c, rows, senses, consts) = random_diagonal_instance(rng)
            oracle = enumerate_lp_optimum(c, rows, senses, consts)
            rep = solve(prob, tight)
            if not np.isfinite(oracle):
                assert rep.status == "primal_infeasible"
                continue
            assert rep.status == "optimal"
            assert rep.primal_obj == pytest.approx(oracle, rel=1e-7, abs=1e-9)
            solved += 1
        assert solved >= 40  # the generator rarely produces infeasible data

    def test_same_size_blocks_not_adjacent(self):
        # blocks 0 and 2 share a size and block 1 sits between them, so the
        # solver's per-size stacks gather and scatter non-contiguous blocks
        rng = np.random.default_rng(7)
        tight = SolverOptions(rel_tol=1e-9, abs_tol=1e-11)
        solved = 0
        for _ in range(8):
            prob, (c, rows, senses, consts) = random_diagonal_instance(
                rng, n_orth=2, m=5, dims=(4, 2, 4))
            oracle = enumerate_lp_optimum(c, rows, senses, consts)
            rep = solve(prob, tight)
            if not np.isfinite(oracle):
                assert rep.status == "primal_infeasible"
                continue
            assert rep.status == "optimal"
            assert [x.shape for x in rep.primal.psd] == [(4, 4), (2, 2), (4, 4)]
            assert rep.primal_obj == pytest.approx(oracle, rel=1e-7, abs=1e-9)
            assert prob.objective_value(rep.primal) == pytest.approx(oracle, rel=1e-7, abs=1e-9)
            assert prob.slacks(rep.primal).min() >= -1e-7
            solved += 1
        assert solved >= 6


class TestSolverProperties:
    def build_paper_like(self, seed):
        from fdsec.channel import SystemConfig, realize
        from fdsec.problem import build_optimal_problem
        from fdsec.receivers import zf_receivers

        cfg = SystemConfig(n_antennas=5, n_dl=3, n_ul=2, n_idle=2)
        _, chan = realize(cfg, seed)
        rec = zf_receivers(chan.g)
        prob, _ = build_optimal_problem(chan, cfg, rec)
        return prob

    def test_weak_duality_along_iterates(self):
        prob = self.build_paper_like(0)
        rep = solve(prob)
        assert rep.status == "optimal"
        for entry in rep.iter_log:
            # dual objective may exceed primal only within the residual slack
            slack = 1e-6 * (1.0 + abs(entry["primal_obj"])) + 10 * entry["mu"] \
                + 1e3 * (entry["primal_res"] + entry["dual_res"])
            assert entry["dual_obj"] <= entry["primal_obj"] + slack

    def test_constraint_permutation_invariance(self):
        prob = self.build_paper_like(1)
        rep = solve(prob)
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(prob.constraints))
        shuffled = ConicProblem(
            psd_dims=prob.psd_dims, orthant_dim=prob.orthant_dim,
            objective_psd=prob.objective_psd, objective_orthant=prob.objective_orthant,
            constraints=tuple(prob.constraints[i] for i in perm),
        )
        rep2 = solve(shuffled)
        assert rep2.status == "optimal"
        assert rep2.primal_obj == pytest.approx(rep.primal_obj, rel=1e-6)

    def test_objective_scaling(self):
        prob = self.build_paper_like(2)
        rep = solve(prob)
        scaled = ConicProblem(
            psd_dims=prob.psd_dims, orthant_dim=prob.orthant_dim,
            objective_psd=tuple(3.0 * m for m in prob.objective_psd),
            objective_orthant=3.0 * prob.objective_orthant,
            constraints=prob.constraints,
        )
        rep2 = solve(scaled)
        assert rep2.status == "optimal"
        assert rep2.primal_obj == pytest.approx(3.0 * rep.primal_obj, rel=1e-6)
        for a, b in zip(rep.primal.psd, rep2.primal.psd):
            assert np.abs(a - b).max() <= 1e-6 * (1.0 + np.abs(a).max())

    def test_deterministic(self):
        prob = self.build_paper_like(3)
        rep1 = solve(prob)
        rep2 = solve(prob)
        assert rep1.status == rep2.status
        assert rep1.primal_obj == rep2.primal_obj
        assert rep1.iterations == rep2.iterations
        assert np.array_equal(rep1.multipliers, rep2.multipliers)

    def test_multipliers_nonnegative_and_complementary(self):
        prob = self.build_paper_like(4)
        rep = solve(prob)
        assert rep.status == "optimal"
        assert np.all(rep.multipliers >= -1e-9)
        slacks = prob.slacks(rep.primal)
        scale = 1.0 + abs(rep.primal_obj)
        assert float(np.abs(slacks * rep.multipliers).sum()) <= 1e-5 * scale
        for dual in rep.psd_duals:
            assert np.linalg.eigvalsh(dual)[0] >= -1e-9 * (1.0 + np.abs(dual).max())

    def test_iteration_log_stream(self, caplog):
        prob = self.build_paper_like(5)
        with caplog.at_level(logging.DEBUG, logger="fdsec.solver"):
            rep = solve(prob)
        assert rep.status == "optimal"
        lines = [r.getMessage() for r in caplog.records if r.name == "fdsec.solver"]
        assert all("pobj" in line for line in lines)
        assert len(lines) >= rep.iterations - 1


class TestInfeasibilityRay:
    def test_phase1_verdict_carries_a_farkas_ray(self):
        # the no-AN probe of the paper scenario, seed 0: the main loop stalls
        # and phase-1 decides the verdict
        from fdsec.channel import SystemConfig, realize
        from fdsec.problem import build_hd_problem
        from fdsec.receivers import zf_receivers

        cfg = SystemConfig()
        _, chan = realize(cfg, 0)
        prob, _ = build_hd_problem(chan, cfg, zf_receivers(chan.g))
        rep = solve(prob, SolverOptions(mu_tol_factor=1e-3))
        assert rep.status == "primal_infeasible"
        assert rep.phase1_iterations > 0
        y = rep.multipliers
        assert y.shape == (len(prob.constraints),) and np.all(y >= 0.0)
        # in >= orientation: sum s_i y_i A_i must be NSD on every PSD block and
        # nonpositive on the orthant, while sum s_i y_i b_i is positive
        sy = y * np.array([1.0 if con.sense == ">=" else -1.0 for con in prob.constraints])
        for blk, dim in enumerate(prob.psd_dims):
            acc = np.zeros((dim, dim))
            magnitude = 0.0
            for yi, con in zip(sy, prob.constraints):
                coeff = con.psd_coeffs.get(blk)
                if coeff is not None:
                    acc += yi * coeff
                    magnitude += abs(yi) * np.linalg.norm(coeff, 2)
            assert np.linalg.eigvalsh(acc)[-1] <= 1e-9 * magnitude
        coeffs = np.array([con.orthant_coeffs for con in prob.constraints])
        assert np.all(sy @ coeffs <= 1e-9 * (np.abs(y) @ np.abs(coeffs)))
        assert sy @ np.array([con.constant for con in prob.constraints]) > 0.0


class TestKktResiduals:
    def hand_problem(self):
        return lp_problem([1.0], [[1.0]], [">="], [1.0])

    def test_hand_constructed_certificate(self):
        prob = self.hand_problem()
        report = SolverReport(
            status="optimal",
            primal=BlockValues(psd=(), orthant=np.array([1.0])),
            multipliers=np.array([1.0]),
            psd_duals=(),
            orthant_dual=np.array([0.0]),
            primal_obj=1.0, dual_obj=1.0,
            residuals=Residuals(0.0, 0.0, 0.0),
            iterations=0,
        )
        stat, pfeas, dfeas, comp = kkt_residuals(prob, report)
        assert max(stat, pfeas, dfeas, comp) <= 1e-12

    def test_perturbed_primal_breaks_complementarity(self):
        prob = self.hand_problem()
        report = SolverReport(
            status="optimal",
            primal=BlockValues(psd=(), orthant=np.array([1.0 + 1e-3])),
            multipliers=np.array([1.0]),
            psd_duals=(),
            orthant_dual=np.array([0.0]),
            primal_obj=1.0, dual_obj=1.0,
            residuals=Residuals(0.0, 0.0, 0.0),
            iterations=0,
        )
        stat, pfeas, dfeas, comp = kkt_residuals(prob, report)
        assert comp > 1e-4

    def test_solver_output_satisfies_kkt(self):
        from fdsec.channel import SystemConfig, realize
        from fdsec.problem import build_optimal_problem
        from fdsec.receivers import zf_receivers

        cfg = SystemConfig()
        _, chan = realize(cfg, 6)
        rec = zf_receivers(chan.g)
        prob, _ = build_optimal_problem(chan, cfg, rec)
        rep = solve(prob)
        assert rep.status == "optimal"
        stat, pfeas, dfeas, comp = kkt_residuals(prob, rep)
        scale = 1.0 + abs(rep.primal_obj) + abs(rep.dual_obj)
        tol = 10 * SolverOptions().rel_tol
        assert stat <= tol * scale
        assert pfeas <= tol * scale
        assert dfeas <= tol * scale
        assert comp <= 100 * tol * scale


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)

    def test_max_iters_status(self):
        prob = lp_problem([1.0], [[1.0]], [">="], [1.0])
        rep = solve(prob, SolverOptions(max_iters=1, rel_tol=1e-12, abs_tol=1e-14))
        assert rep.status in ("max_iters", "optimal")
        assert rep.iterations <= 1
