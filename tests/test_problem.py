from types import SimpleNamespace

import numpy as np
import pytest

from fdsec.channel import SystemConfig, realize
from fdsec.linalg import eigvals_herm
from fdsec.metrics import Allocation, constraint_margins, objective
from fdsec.problem import (
    BlockValues,
    _embed_real,
    _unembed_hermitian,
    allocation_to_blocks,
    an_direction,
    build_baseline_problem,
    build_hd_problem,
    build_optimal_problem,
    hermitian_coeff,
    recover_allocation,
    recover_duals,
)
from fdsec.receivers import zf_receivers


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
        prob, vmap = build_optimal_problem(chan, cfg, rec)
        assert len(prob.psd_dims) == 2
        assert prob.psd_dims == (8, 8)
        assert len(prob.constraints) == 5
        assert prob.orthant_dim == 1

    def test_paper_scenario(self):
        cfg = SystemConfig()  # N=8, K=6, J=3, M=5
        chan, rec = scenario(cfg, 0)
        prob, vmap = build_optimal_problem(chan, cfg, rec)
        assert len(prob.psd_dims) == 7
        assert all(d == 16 for d in prob.psd_dims)
        # 6 + 3 + 30 + 15 + 3
        assert len(prob.constraints) == 57
        labels = prob.labels()
        assert sum(1 for s in labels if s.startswith("C3[")) == 30
        assert sum(1 for s in labels if s.startswith("C4[")) == 15

    def test_dimension_mismatch_rejected(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 0)
        other = SystemConfig(n_antennas=4, n_dl=2, n_ul=1, n_idle=1)
        with pytest.raises(ValueError):
            build_optimal_problem(chan, other, rec)


class TestFunctionalEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slacks_match_margins(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = SystemConfig(n_antennas=6, n_dl=3, n_ul=2, n_idle=2)
        chan, rec = scenario(cfg, seed)
        prob, vmap = build_optimal_problem(chan, cfg, rec)
        alloc = random_rank_one_alloc(rng, cfg, rec)
        values = allocation_to_blocks(alloc, vmap)
        slacks = prob.slacks(values)
        margins = constraint_margins(alloc, chan, cfg)
        analytic = np.concatenate(
            [margins.c1, margins.c2, margins.c3.ravel(), margins.c4.ravel(), margins.c5]
        )
        scale = np.maximum(np.abs(analytic), np.abs(slacks)) + 1e-300
        assert np.max(np.abs(slacks - analytic) / np.maximum(scale, 1e-18)) <= 1e-9

    def test_objective_matches_metrics(self):
        rng = np.random.default_rng(7)
        cfg = SystemConfig(n_antennas=5, n_dl=2, n_ul=2, n_idle=2, alpha=1.3, beta=0.7)
        chan, rec = scenario(cfg, 3)
        prob, vmap = build_optimal_problem(chan, cfg, rec)
        alloc = random_rank_one_alloc(rng, cfg, rec)
        values = allocation_to_blocks(alloc, vmap)
        assert prob.objective_value(values) == pytest.approx(objective(alloc, cfg), rel=1e-9)


class TestBaselines:
    def test_unit_trace_directions(self):
        cfg = SystemConfig()
        chan, rec = scenario(cfg, 1)
        for scheme in ("baseline1", "baseline2"):
            d = an_direction(chan, scheme, cfg.n_antennas)
            assert np.trace(d).real == pytest.approx(1.0)
            assert np.linalg.eigvalsh(d)[0] >= -1e-12

    def test_baseline1_single_idle_rank_one(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 2)
        d = an_direction(chan, "baseline1", cfg.n_antennas)
        l_vec = chan.l[0]
        expected = np.outer(l_vec, l_vec.conj()) / np.linalg.norm(l_vec) ** 2
        assert np.abs(d - expected).max() <= 1e-12

    def test_baseline_objective_counts_an_power(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 3)
        prob, vmap = build_baseline_problem(chan, cfg, rec, "baseline2")
        assert prob.orthant_dim == 2  # P_0 and the AN power
        assert prob.objective_orthant[vmap.v_orthant_index] == pytest.approx(cfg.alpha)

    @pytest.mark.parametrize("scheme", ["baseline1", "baseline2"])
    def test_feasible_set_containment(self, scheme):
        # a baseline-structured allocation evaluates identically in both problems
        rng = np.random.default_rng(11)
        cfg = SystemConfig(n_antennas=5, n_dl=2, n_ul=2, n_idle=2)
        chan, rec = scenario(cfg, 4)
        opt_prob, opt_map = build_optimal_problem(chan, cfg, rec)
        base_prob, base_map = build_baseline_problem(chan, cfg, rec, scheme)
        direction = base_map.v_direction
        p_v = 2.5e-4
        alloc = random_rank_one_alloc(rng, cfg, rec)
        alloc = Allocation(W=alloc.W, V=p_v * direction, P=alloc.P, receivers=rec)
        slacks_opt = opt_prob.slacks(allocation_to_blocks(alloc, opt_map))
        slacks_base = base_prob.slacks(allocation_to_blocks(alloc, base_map))
        scale = np.abs(slacks_opt) + 1e-300
        assert np.max(np.abs(slacks_opt - slacks_base) / np.maximum(scale, 1e-18)) <= 1e-9

    def test_baseline1_without_idle_users_is_isotropic(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=0)
        chan, rec = scenario(cfg, 5)
        d = an_direction(chan, "baseline1", cfg.n_antennas)
        assert np.array_equal(d, np.eye(cfg.n_antennas) / cfg.n_antennas)
        build_baseline_problem(chan, cfg, rec, "baseline1")


class TestHdProblem:
    def test_no_an_variable(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 6)
        prob, vmap = build_hd_problem(chan, cfg, rec)
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
        prob, vmap = build_optimal_problem(chan, cfg, rec)
        alloc = random_rank_one_alloc(rng, cfg, rec)
        back = recover_allocation(allocation_to_blocks(alloc, vmap), vmap, rec)
        for a, b in zip(alloc.W, back.W):
            assert np.abs(a - b).max() <= 1e-14
        assert np.abs(alloc.V - back.V).max() <= 1e-14
        assert np.allclose(alloc.P, back.P)

    def test_orthant_order(self):
        cfg = SystemConfig(n_antennas=5, n_dl=1, n_ul=3, n_idle=1)
        chan, rec = scenario(cfg, 8)
        prob, vmap = build_optimal_problem(chan, cfg, rec)
        values = BlockValues(
            psd=tuple(np.eye(10) for _ in range(2)),
            orthant=np.array([0.1, 0.2, 0.3]),
        )
        alloc = recover_allocation(values, vmap, rec)
        assert np.allclose(alloc.P, [0.1, 0.2, 0.3])

    def test_asymmetry_reported(self):
        cfg = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 9)
        prob, vmap = build_optimal_problem(chan, cfg, rec)
        bad = np.eye(8)
        bad[0, 0] = 2.0
        values = BlockValues(psd=(bad, np.eye(8)), orthant=np.array([0.1]))
        with pytest.raises(ValueError):
            recover_allocation(values, vmap, rec)


class TestEmbedding:
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

    def test_recover_duals_undoes_the_coefficient_factor(self):
        # a dual block built like the coefficients comes back as its Hermitian matrix
        cfg = SystemConfig(n_antennas=4, n_dl=2, n_ul=1, n_idle=1)
        chan, rec = scenario(cfg, 3)
        _, vmap = build_optimal_problem(chan, cfg, rec)
        rng = np.random.default_rng(9)
        ys = [random_hermitian(rng, 4) for _ in vmap.w_blocks]
        duals = [None] * (len(vmap.w_blocks) + 1)
        for b, y in zip(vmap.w_blocks, ys):
            duals[b] = hermitian_coeff(y)
        report = SimpleNamespace(psd_duals=tuple(duals))
        for got, y in zip(recover_duals(report, vmap), ys):
            assert np.abs(got - y).max() <= 1e-14
