import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest
import oracles
from oracles import enumerate_lp_optimum, kkt_residuals, lp_problem, random_diagonal_instance

from fdsec.channel import SystemConfig, realize
from fdsec.harness import SCHEMES
from fdsec.problem import (
    BlockValues,
    ConicProblem,
    LinearConstraint,
    build_baseline_problem,
    build_hd_problem,
    build_optimal_problem,
)
from fdsec.receivers import zf_receivers
from fdsec.solver import (
    SolverOptions,
    SolverReport,
    _Lockstep,
    _scaled_rows,
    _Scaling,
    _StandardForm,
    solve,
    solve_many,
)


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
        # an objective outside the dual cone could make a program unbounded:
        # validate rejects it, so the solver never meets one
        with pytest.raises(ValueError, match="nonnegative"):
            lp_problem([-1.0], [[1.0]], [">="], [1.0]).validate()
        indefinite = ConicProblem(
            psd_dims=(2,), orthant_dim=0,
            objective_psd=(np.diag([1.0, -1.0]),), objective_orthant=np.zeros(0),
            constraints=(),
        )
        with pytest.raises(ValueError, match="positive semidefinite"):
            solve(indefinite)

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
        # the row reads 0 >= 2: -A'y = 0 lies in the cone for every y, so the
        # multipliers are a Farkas ray iff y >= 0 and b'y = 2 y > 0
        y = rep.multipliers
        assert y.shape == (1,) and y[0] > 0.0


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
            assert oracles.objective_value(prob, rep.primal) == pytest.approx(oracle, rel=1e-7,
                                                                              abs=1e-9)
            assert oracles.slacks(prob, rep.primal).min() >= -1e-7
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
        slacks = oracles.slacks(prob, rep.primal)
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
    SWEEP_6DB = SystemConfig(n_antennas=6, n_dl=2, n_ul=2, n_idle=1, gamma_dl_req_default_db=6.0)

    @pytest.mark.parametrize("scheme, cfg, seed", [
        # the no-AN probe of the paper scenario
        pytest.param("hd", SystemConfig(), 0, id="paper-hd-0"),
        pytest.param("hd", SystemConfig(), 52, id="paper-hd-52"),
        pytest.param("hd", SystemConfig(), 58, id="paper-hd-58"),
        # baseline2 on the sweep scenario at gamma_DL 6 dB
        pytest.param("baseline2", SWEEP_6DB, 133, id="sweep-baseline2-133"),
        pytest.param("baseline2", SWEEP_6DB, 160, id="sweep-baseline2-160"),
    ])
    def test_infeasibility_verdict_carries_a_farkas_ray(self, scheme, cfg, seed):
        _, chan = realize(cfg, seed)
        if scheme == "hd":
            prob, _ = build_hd_problem(chan, cfg, zf_receivers(chan.g))
        else:
            prob, _ = build_baseline_problem(chan, cfg, zf_receivers(chan.g), scheme)
        rep = solve(prob)
        assert rep.status == "primal_infeasible"
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


def scheme_problem(cfg, seed, scheme):
    _, chan = realize(cfg, seed)
    rec = zf_receivers(chan.g)
    if scheme == "optimal":
        return build_optimal_problem(chan, cfg, rec)[0]
    if scheme == "hd":
        return build_hd_problem(chan, cfg, rec)[0]
    return build_baseline_problem(chan, cfg, rec, scheme)[0]


def same_bits(a, b):
    """Equal bit for bit: arrays, floats, and the containers that hold them."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (np.shape(a) == np.shape(b) and np.asarray(a).dtype == np.asarray(b).dtype
                and np.asarray(a).tobytes() == np.asarray(b).tobytes())
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_bits(p, q) for p, q in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (float, np.floating)):
        return float(a).hex() == float(b).hex()
    if hasattr(a, "__dataclass_fields__"):
        return all(same_bits(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b


class TestSolveMany:
    SWEEP = SystemConfig(n_antennas=6, n_dl=2, n_ul=2, n_idle=1)

    def sweep_at(self, gamma_db):
        return self.SWEEP.with_updates(gamma_dl_req_db=(), gamma_dl_req_default_db=gamma_db)

    def test_mixed_list_matches_solo_bit_for_bit(self):
        ray = (SystemConfig(), 52, "hd")                   # paper-hd
        failure = (self.sweep_at(24.0), 10, "baseline2")   # the gamma-sweep probe
        best_iterate = [(self.sweep_at(6.0), 0, "optimal"), (self.sweep_at(24.0), 1, "baseline1")]
        cases = [(self.sweep_at(g), seed, s) for g, seed in ((6.0, 0), (24.0, 1)) for s in SCHEMES]
        cases += [ray, failure]
        # edge configurations J=0, M=0, K=1 (hd ends numerical_failure), N=J+1
        for dims in [(4, 2, 0, 2), (4, 2, 2, 0), (4, 1, 1, 1), (3, 2, 2, 1)]:
            cfg = SystemConfig(**dict(zip(("n_antennas", "n_dl", "n_ul", "n_idle"), dims)))
            cases += [(cfg, 0, s) for s in SCHEMES]
        problems = [scheme_problem(*case) for case in cases]
        solo = [solve(p) for p in problems]
        many = solve_many(problems)

        by_case = dict(zip(cases, solo))
        assert by_case[ray].status == "primal_infeasible"
        assert by_case[failure].status == "numerical_failure"
        for case in best_iterate:   # accepted from an earlier iterate than the last
            rep = by_case[case]
            assert rep.status == "optimal" and rep.primal_obj != rep.iter_log[-1]["primal_obj"]
        assert len({r.iterations for r in solo}) > 10   # trials leave the loop at many steps
        for case, a, b in zip(cases, solo, many, strict=True):
            for name in SolverReport.__dataclass_fields__:
                if name != "solve_time":
                    assert same_bits(getattr(a, name), getattr(b, name)), (case[1:], name)

    def test_reports_in_input_order(self):
        problems = [lp_problem([1.0], [[1.0]], [">="], [2.0]),
                    scheme_problem(self.sweep_at(6.0), 2, "optimal"),
                    lp_problem([1.0], [[0.0]], [">="], [2.0]),
                    lp_problem([3.0], [[1.0]], [">="], [1.0])]
        reports = solve_many(problems)
        assert [r.status for r in reports] == ["optimal", "optimal", "primal_infeasible", "optimal"]
        assert reports[0].primal_obj == pytest.approx(2.0, rel=1e-7)
        assert reports[3].primal_obj == pytest.approx(3.0, rel=1e-7)
        assert all(r.solve_time > 0.0 for r in reports)
        assert solve_many([]) == []

    def test_overflowing_orthant_scaling_breaks_down_without_warnings(self):
        # hd on the sweep scenario at 24 dB, seed 0: x / z of the orthant
        # scaling overflows, and the trial ends in a breakdown, not a warning
        prob = scheme_problem(self.sweep_at(24.0), 0, "hd")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(prob)
        assert rep.status == "numerical_failure"


class TestScaledRows:
    def scalings(self, problems, steps=8):
        """(stack, scaling) of a lockstep run of the problems at each of its
        first ``steps`` iterates."""
        sfs = [_StandardForm(prob) for prob in problems]
        assert len({sf.layout for sf in sfs}) == 1
        lock = _Lockstep(sfs, SolverOptions())
        for _ in range(steps):
            yield lock.st, _Scaling(lock.lay, lock.u, lock.z)
            lock.it += 1
            lock.test_exits()
            lock.step()

    def test_paper_optimal_stack_matches_all_rows(self):
        tasks = [(SystemConfig(), seed, "optimal") for seed in (11, 68, 123)]
        for st, scal in self.scalings([scheme_problem(*task) for task in tasks]):
            # a W_k block is nonzero on the link rows C1, C2 and its own
            # C3 rows (K + J + M = 14), the AN block V on all but C5
            assert [len(rows) for rows in st.block_rows[0]] == [14] * 6 + [54]
            assert np.array_equal(_scaled_rows(st, scal), oracles.scaled_rows_all(st, scal))

    def test_mixed_baseline_stack_matches_all_rows(self):
        cfg = TestSolveMany().sweep_at(12.0)
        tasks = [(cfg, seed, scheme) for seed in (0, 10) for scheme in ("baseline1", "baseline2")]
        for st, scal in self.scalings([scheme_problem(*task) for task in tasks]):
            assert len(st.sfs) == 4
            assert np.array_equal(_scaled_rows(st, scal), oracles.scaled_rows_all(st, scal))

    def test_block_scaled_on_rows_nonzero_in_any_trial(self):
        prob, _ = random_diagonal_instance(np.random.default_rng(3), dims=[2, 4], m=5)
        # a row on which block 0 is nonzero, and so is some other block
        i = next(i for i, con in enumerate(prob.constraints)
                 if con.psd_coeffs[0].any() and con.psd_coeffs[1].any())
        con = prob.constraints[i]
        cons = list(prob.constraints)
        cons[i] = replace(con, psd_coeffs={1: con.psd_coeffs[1]})
        other = replace(prob, constraints=tuple(cons))
        for st, scal in self.scalings([other, prob]):
            assert not st.sfs[0].nonzero[0][0, i] and i in st.block_rows[0][0]
            assert np.array_equal(_scaled_rows(st, scal), oracles.scaled_rows_all(st, scal))


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
