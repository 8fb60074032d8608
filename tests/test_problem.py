from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import oracles
from oracles import allocation_to_blocks

from fdsec.channel import SystemConfig, realize
from fdsec.harness import evaluate_instance
from fdsec.linalg import eigvals_herm
from fdsec.metrics import Allocation, evaluate_qos, link_model, objective
from fdsec.problem import (
    BlockValues,
    ConicProblem,
    LinearConstraint,
    _embed_real,
    _unembed_hermitian,
    an_direction,
    build_baseline_problem,
    build_hd_problem,
    build_optimal_problem,
    hermitian_coeff,
    recover_allocation,
    recover_duals,
)
from fdsec.receivers import zf_receivers
from fdsec.solver import _embedding_image


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    m = random_complex(rng, n, n)
    return 0.5 * (m + m.conj().T)


def random_rank_one_alloc(rng, cfg, receivers, scale=1e-3):
    n, k, j = cfg.n_antennas, cfg.n_dl, cfg.n_ul
    w = [scale * random_complex(rng, n) for _ in range(k)]
    v = scale * random_complex(rng, n)
    return Allocation(
        W=tuple(np.outer(x, x.conj()) for x in w),
        V=np.outer(v, v.conj()),
        P=scale * rng.uniform(0.1, 1.0, size=j),
        receivers=receivers,
    )


def scenario(cfg, seed):
    geom, chan = realize(cfg, seed)
    rec = zf_receivers(chan.g)
    return chan, rec


class TestCounting:
    def test_small(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 0)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        assert len(prob.psd_dims) == 2
        assert prob.psd_dims == (8, 8)
        assert len(prob.constraints) == 5
        assert prob.orthant_dim == 1

    def test_paper_scenario(self):
        cfg = SystemConfig()  # N=8, K=6, J=3, M=5
        chan, rec = scenario(cfg, 0)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        assert len(prob.psd_dims) == 7
        assert all(d == 16 for d in prob.psd_dims)
        # 6 + 3 + 30 + 15 + 3
        assert len(prob.constraints) == 57
        labels = oracles.labels(prob)
        assert sum(1 for s in labels if s.startswith("C3[")) == 30
        assert sum(1 for s in labels if s.startswith("C4[")) == 15

    def test_dimension_mismatch_rejected(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 0)
        other = SystemConfig(n_antennas=4, n_dl=2, n_ul=1, n_idle=1)
        with pytest.raises(ValueError):
            build_optimal_problem(link_model(chan, rec), other)


def one_row_program(row=(), **fields):
    """A valid program of one 2x2 PSD block, one orthant variable and one
    row, with ``fields`` replaced and the row's fields replaced by ``row``."""
    con = dict(psd_coeffs={0: np.eye(2)}, orthant_coeffs=np.ones(1), constant=1.0,
               sense=">=", label="r")
    con.update(row)
    program = dict(psd_dims=(2,), orthant_dim=1, objective_psd=(np.eye(2),),
                   objective_orthant=np.ones(1), constraints=(LinearConstraint(**con),))
    program.update(fields)
    return ConicProblem(**program)


# one program per clause of the construction check; an objective outside the
# dual cone (indefinite block, negative weight) could make a program unbounded
REJECTED = {
    "odd_dimension": (dict(psd_dims=(3,)), "positive and even"),
    "zero_dimension": (dict(psd_dims=(0,)), "positive and even"),
    "objective_block_count": (dict(objective_psd=()), "every PSD block"),
    "objective_block_shape": (dict(objective_psd=(np.eye(3),)), "wrong shape"),
    "non_finite_objective": (dict(objective_psd=(np.diag([1.0, np.nan]),)), "finite"),
    "indefinite_objective": (dict(objective_psd=(np.diag([1.0, -1.0]),)),
                             "positive semidefinite"),
    "negative_orthant_weight": (dict(objective_orthant=-np.ones(1)), "nonnegative"),
    "orthant_objective_length": (dict(objective_orthant=np.ones(2)), "wrong length"),
    "unknown_sense": (dict(row=dict(sense="==")), "unknown sense"),
    "orthant_coefficient_length": (dict(row=dict(orthant_coeffs=np.ones(2))),
                                   "length mismatch"),
    "undeclared_block": (dict(row=dict(psd_coeffs={1: np.eye(2)})), "undeclared block"),
    "coefficient_shape": (dict(row=dict(psd_coeffs={0: np.eye(4)})), "shape mismatch"),
    "non_finite_constant": (dict(row=dict(constant=np.inf)), "non-finite constant"),
}


class TestConstruction:
    def test_valid_program_builds(self):
        assert one_row_program().psd_dims == (2,)

    @pytest.mark.parametrize("clause", list(REJECTED))
    def test_rejected(self, clause):
        fields, match = REJECTED[clause]
        with pytest.raises(ValueError, match=match):
            one_row_program(**fields)

    def test_trial_checks_its_problem_once(self, monkeypatch):
        calls = []
        check = ConicProblem.__post_init__

        def counted(problem):
            calls.append(problem)
            check(problem)

        monkeypatch.setattr(ConicProblem, "__post_init__", counted)
        evaluate_instance(SystemConfig(), 0, "optimal")
        assert len(calls) == 1


BUILDERS = {
    "optimal": build_optimal_problem,
    "baseline1": lambda model, cfg: build_baseline_problem(model, cfg, "baseline1"),
    "baseline2": lambda model, cfg: build_baseline_problem(model, cfg, "baseline2"),
    "hd": build_hd_problem,
}


def coefficients_one_by_one(vmap, model, cfg):
    """Per row label, its PSD coefficients, each from its own
    ``hermitian_coeff`` call on the link model's terms."""
    k = vmap.k_users
    targets = np.concatenate([cfg.dl_sinr_targets, cfg.ul_sinr_targets])
    out = {}
    for label in vmap.row_index:
        idx = [int(i) for i in label[3:-1].split(",")]
        coeffs, outer = {}, None
        if label[:2] in ("C1", "C2"):
            r = idx[0] + (k if label[:2] == "C2" else 0)
            outer = np.outer(model.vecs[r], model.vecs[r].conj())
            coeffs = {b: hermitian_coeff(-outer) for b in range(k) if b != r}
            if r < k:
                coeffs[r] = hermitian_coeff(outer / targets[r])
        elif label[:2] in ("C3", "C4"):
            mm, r = idx
            outer = np.outer(model.eves[mm], model.eves[mm].conj())
            if label[:2] == "C3":
                coeffs[r] = hermitian_coeff(outer / cfg.eve_sinr_cap)
        if vmap.v_block is not None and outer is not None:
            coeffs[vmap.v_block] = hermitian_coeff(-outer)
        out[label] = coeffs
    return out


class TestSharedCoefficients:
    @pytest.mark.parametrize("scheme", list(BUILDERS))
    def test_shared_coefficients_match_one_by_one(self, scheme):
        # a coefficient shared by several blocks or rows is the very array
        # each of them would get from its own hermitian_coeff call
        for cfg, seed in ((SystemConfig(), 0), (SystemConfig(), 1),
                          (SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1), 2)):
            chan, rec = scenario(cfg, seed)
            prob, vmap = BUILDERS[scheme](link_model(chan, rec), cfg)
            expected = coefficients_one_by_one(vmap, link_model(chan, rec), cfg)
            for label, i in vmap.row_index.items():
                got = prob.constraints[i].psd_coeffs
                assert got.keys() == expected[label].keys()
                assert all(np.array_equal(got[b], expected[label][b]) for b in got)
            eye = hermitian_coeff(cfg.alpha * np.eye(cfg.n_antennas, dtype=complex))
            assert all(np.array_equal(c, eye) for c in prob.objective_psd)

    def test_coefficients_are_read_only(self):
        cfg = SystemConfig()
        chan, rec = scenario(cfg, 0)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        row = prob.constraints[vmap.row_index["C1[0]"]]
        for coeff in (row.psd_coeffs[1], row.psd_coeffs[vmap.v_block], prob.objective_psd[0]):
            with pytest.raises(ValueError, match="read-only"):
                coeff[0, 0] = 1.0


def embedded_activity(prob, values):
    """Reference row activity on the embedded blocks: |constant| plus the
    magnitude of every block and orthant term."""
    out = np.empty(len(prob.constraints))
    for i, con in enumerate(prob.constraints):
        out[i] = abs(con.constant) + float(np.abs(con.orthant_coeffs * values.orthant).sum())
        out[i] += sum(abs(float(np.sum(c * values.psd[b]))) for b, c in con.psd_coeffs.items())
    return out


class TestFunctionalEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slacks_match_margins(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = SystemConfig(n_antennas=6, n_dl=3, n_ul=2, n_idle=2)
        chan, rec = scenario(cfg, seed)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        alloc = random_rank_one_alloc(rng, cfg, rec)
        values = allocation_to_blocks(alloc, vmap)
        slacks = oracles.slacks(prob, values)
        margins = evaluate_qos(alloc, link_model(chan, alloc.receivers), cfg).margins
        analytic = np.concatenate(
            [margins.c1, margins.c2, margins.c3.ravel(), margins.c4.ravel(), margins.c5]
        )
        scale = np.maximum(np.abs(analytic), np.abs(slacks)) + 1e-300
        assert np.max(np.abs(slacks - analytic) / np.maximum(scale, 1e-18)) <= 1e-9

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dims=st.integers(2, 6).flatmap(lambda n: st.tuples(
               st.just(n), st.integers(1, 3), st.integers(0, n - 1), st.integers(0, n - 1))),
           seed=st.integers(0, 2**16), an_mode=st.sampled_from(["matrix", "direction", "none"]))
    @example(dims=(6, 3, 2, 2), seed=0, an_mode="matrix")
    @example(dims=(4, 2, 0, 2), seed=0, an_mode="matrix")     # J = 0
    @example(dims=(4, 2, 2, 0), seed=1, an_mode="direction")  # M = 0
    @example(dims=(4, 1, 1, 1), seed=2, an_mode="none")       # K = 1
    @example(dims=(3, 2, 2, 1), seed=3, an_mode="matrix")     # N = J + 1
    def test_slacks_match_margins_all_shapes(self, dims, seed, an_mode):
        # the physical rows C1-C5 of fdsec.metrics against the conic rows
        # they must equal, for each representation of the AN covariance
        n, k, j, m = dims
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m)
        chan, rec = scenario(cfg, seed)
        alloc = random_rank_one_alloc(np.random.default_rng(seed), cfg, rec)
        if an_mode == "matrix":
            prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        elif an_mode == "direction":
            prob, vmap = build_baseline_problem(link_model(chan, rec), cfg, "baseline1")
            alloc = replace(alloc, V=np.trace(alloc.V).real * vmap.v_direction)
        else:
            prob, vmap = build_hd_problem(link_model(chan, rec), cfg)
            alloc = replace(alloc, V=np.zeros((n, n), dtype=complex))
        values = allocation_to_blocks(alloc, vmap)
        margins = evaluate_qos(alloc, link_model(chan, alloc.receivers), cfg).margins
        assert [c.shape for c in (margins.c1, margins.c2, margins.c3, margins.c4, margins.c5)] \
            == [(k,), (j,), (m, k), (m, j), (j,)]
        assert [a.shape for a in margins.activity] == [(k,), (j,), (m, k), (m, j), (j,)]
        slacks = np.concatenate([np.ravel(c) for c in
                                 (margins.c1, margins.c2, margins.c3, margins.c4, margins.c5)])
        activity = np.concatenate([np.ravel(a) for a in margins.activity])
        reference = embedded_activity(prob, values)
        assert np.all(np.abs(slacks - oracles.slacks(prob, values)) <= 1e-12 * reference)
        assert np.all(np.abs(activity - reference) <= 1e-12 * reference)

    def test_objective_matches_metrics(self):
        rng = np.random.default_rng(7)
        cfg = SystemConfig(n_antennas=5, n_dl=2, n_ul=2, n_idle=2, alpha=1.3, beta=0.7)
        chan, rec = scenario(cfg, 3)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        alloc = random_rank_one_alloc(rng, cfg, rec)
        values = allocation_to_blocks(alloc, vmap)
        assert oracles.objective_value(prob, values) == pytest.approx(objective(alloc, cfg),
                                                                      rel=1e-9)


class TestBaselines:
    def test_unit_trace_directions(self):
        cfg = SystemConfig()
        chan, rec = scenario(cfg, 1)
        for scheme in ("baseline1", "baseline2"):
            d = an_direction(link_model(chan, rec), scheme)
            assert np.trace(d).real == pytest.approx(1.0)
            assert np.linalg.eigvalsh(d)[0] >= -1e-12

    def test_baseline1_single_idle_rank_one(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 2)
        d = an_direction(link_model(chan, rec), "baseline1")
        l_vec = chan.l[0]
        expected = np.outer(l_vec, l_vec.conj()) / np.linalg.norm(l_vec) ** 2
        assert np.abs(d - expected).max() <= 1e-12

    def test_baseline_objective_counts_an_power(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 3)
        prob, vmap = build_baseline_problem(link_model(chan, rec), cfg, "baseline2")
        assert prob.orthant_dim == 2  # P_0 and the AN power
        assert prob.objective_orthant[vmap.v_orthant_index] == pytest.approx(cfg.alpha)

    @pytest.mark.parametrize("scheme", ["baseline1", "baseline2"])
    def test_feasible_set_containment(self, scheme):
        # a baseline-structured allocation evaluates identically in both problems
        rng = np.random.default_rng(11)
        cfg = SystemConfig(n_antennas=5, n_dl=2, n_ul=2, n_idle=2)
        chan, rec = scenario(cfg, 4)
        opt_prob, opt_map = build_optimal_problem(link_model(chan, rec), cfg)
        base_prob, base_map = build_baseline_problem(link_model(chan, rec), cfg, scheme)
        direction = base_map.v_direction
        p_v = 2.5e-4
        alloc = random_rank_one_alloc(rng, cfg, rec)
        alloc = Allocation(W=alloc.W, V=p_v * direction, P=alloc.P, receivers=rec)
        slacks_opt = oracles.slacks(opt_prob, allocation_to_blocks(alloc, opt_map))
        slacks_base = oracles.slacks(base_prob, allocation_to_blocks(alloc, base_map))
        scale = np.abs(slacks_opt) + 1e-300
        assert np.max(np.abs(slacks_opt - slacks_base) / np.maximum(scale, 1e-18)) <= 1e-9

    def test_baseline1_without_idle_users_is_isotropic(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=0)
        chan, rec = scenario(cfg, 5)
        d = an_direction(link_model(chan, rec), "baseline1")
        assert np.array_equal(d, np.eye(cfg.n_antennas) / cfg.n_antennas)
        build_baseline_problem(link_model(chan, rec), cfg, "baseline1")


class TestHdProblem:
    def test_no_an_variable(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 6)
        prob, vmap = build_hd_problem(link_model(chan, rec), cfg)
        assert len(prob.psd_dims) == cfg.n_dl
        assert prob.orthant_dim == cfg.n_ul
        assert vmap.v_block is None and vmap.v_orthant_index is None
        alloc = recover_allocation(
            BlockValues(psd=tuple(np.eye(8) for _ in range(1)), orthant=np.array([0.5])),
            vmap, rec,
        )
        assert np.all(alloc.V == 0)


class TestRecovery:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        cfg = SystemConfig(n_antennas=5, n_dl=2, n_ul=2, n_idle=2)
        chan, rec = scenario(cfg, 7)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        alloc = random_rank_one_alloc(rng, cfg, rec)
        back = recover_allocation(allocation_to_blocks(alloc, vmap), vmap, rec)
        for a, b in zip(alloc.W, back.W):
            assert np.abs(a - b).max() <= 1e-14
        assert np.abs(alloc.V - back.V).max() <= 1e-14
        assert np.allclose(alloc.P, back.P)

    def test_orthant_order(self):
        cfg = SystemConfig(n_antennas=5, n_dl=1, n_ul=3, n_idle=1)
        chan, rec = scenario(cfg, 8)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        values = BlockValues(
            psd=tuple(np.eye(10) for _ in range(2)),
            orthant=np.array([0.1, 0.2, 0.3]),
        )
        alloc = recover_allocation(values, vmap, rec)
        assert np.allclose(alloc.P, [0.1, 0.2, 0.3])

    def test_asymmetry_reported(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 9)
        prob, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        bad = np.eye(8)
        bad[0, 0] = 2.0
        values = BlockValues(psd=(bad, np.eye(8)), orthant=np.array([0.1]))
        with pytest.raises(ValueError):
            recover_allocation(values, vmap, rec)


class TestEmbedding:
    def test_same_bits_as_block_form(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 8):
            for h in (random_hermitian(rng, n), rng.standard_normal((n, n)), -np.eye(n)):
                assert _embed_real(h).tobytes() == oracles.embed_real_block(h).tobytes()

    def test_real_matrix_block_copy(self):
        h = np.array([[2.0, 1.0], [1.0, 3.0]])
        e = _embed_real(h)
        assert np.allclose(e[:2, :2], h)
        assert np.allclose(e[2:, 2:], h)
        assert np.allclose(e[:2, 2:], 0)

    def test_eigenvalue_doubling(self):
        h = np.array([[0.0, -1j], [1j, 0.0]])
        w_h = eigvals_herm(h)
        w_e = np.sort(np.linalg.eigvalsh(_embed_real(h)))[::-1]
        assert np.allclose(w_e, np.repeat(w_h, 2), atol=1e-12)

    def test_psd_preserved(self):
        rng = np.random.default_rng(6)
        m = random_complex(rng, 4, 4)
        h = m @ m.conj().T
        assert np.linalg.eigvalsh(_embed_real(h)).min() >= -1e-12

    def test_linear_and_trace_doubling(self):
        rng = np.random.default_rng(7)
        h1 = random_hermitian(rng, 5)
        h2 = random_hermitian(rng, 5)
        alpha = 1.7
        assert np.allclose(_embed_real(alpha * h1 + h2), alpha * _embed_real(h1) + _embed_real(h2))
        assert np.trace(_embed_real(h1)) == pytest.approx(2 * np.trace(h1).real)

    def test_unembed_round_trip(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        assert np.abs(_unembed_hermitian(_embed_real(h)) - h).max() <= 1e-14

    def test_unembed_rejects_asymmetry(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0  # breaks the duplicated-block structure
        with pytest.raises(ValueError):
            _unembed_hermitian(bad)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(h=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=n * n,
        max_size=n * n).map(lambda v: np.array(v, dtype=complex).reshape(n, n))))
    def test_coefficient_is_an_exact_embedding(self, h):
        # the solver tests embedding structure by equality, so every
        # coefficient must have it to the bit, whatever h's rounding
        c = hermitian_coeff(h)
        assert np.array_equal(c, c.T)
        assert np.array_equal(c, _embedding_image(c))

    def test_recover_duals_undoes_the_coefficient_factor(self):
        # a dual block built like the coefficients comes back as its Hermitian matrix
        cfg = SystemConfig(n_antennas=4, n_dl=2, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 3)
        _, vmap = build_optimal_problem(link_model(chan, rec), cfg)
        rng = np.random.default_rng(9)
        ys = [random_hermitian(rng, 4) for _ in vmap.w_blocks]
        duals = [None] * (len(vmap.w_blocks) + 1)
        for b, y in zip(vmap.w_blocks, ys):
            duals[b] = hermitian_coeff(y)
        report = SimpleNamespace(psd_duals=tuple(duals))
        for got, y in zip(recover_duals(report, vmap), ys):
            assert np.abs(got - y).max() <= 1e-14
