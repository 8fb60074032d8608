import numpy as np
import pytest

from fdsec.channel import ChannelRealization, SystemConfig
from fdsec.metrics import (
    Allocation,
    evaluate_qos,
    link_model,
    objective,
    qos_csv_fields,
    qos_csv_header,
    quad_table,
)
from fdsec.receivers import ReceiverSet, zf_receivers


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_chan(n, k, j, m, rng, h_si_scale=1e-5, sigma2=1.0):
    return ChannelRealization(
        h=random_complex(rng, k, n),
        g=random_complex(rng, j, n),
        l=random_complex(rng, m, n),
        f=random_complex(rng, j, k),
        t=random_complex(rng, j, m),
        h_si=h_si_scale * random_complex(rng, n, n),
        sigma2_dl=np.full(k, sigma2),
        sigma2_bs=sigma2,
        sigma2_eve=np.full(m, sigma2),
    )


def table(alloc, chan):
    """The QoS rows of an allocation, for tests that have no config."""
    return quad_table(alloc, link_model(chan, alloc.receivers))


def rank_one_alloc(n, k, j, rng, receivers, an_scale=1.0):
    w_vecs = [random_complex(rng, n) for _ in range(k)]
    v_vec = an_scale * random_complex(rng, n)
    return (
        Allocation(
            W=tuple(np.outer(w, w.conj()) for w in w_vecs),
            V=np.outer(v_vec, v_vec.conj()),
            P=rng.uniform(0.1, 2.0, size=j),
            receivers=receivers,
        ),
        w_vecs,
        v_vec,
    )


class TestDlSinr:
    def test_single_user_direct(self):
        n = 4
        h = np.zeros((1, n), dtype=complex)
        h[0, 0] = 1.0
        chan = ChannelRealization(
            h=h, g=np.zeros((0, n), dtype=complex), l=np.zeros((0, n), dtype=complex),
            f=np.zeros((0, 1), dtype=complex), t=np.zeros((0, 0), dtype=complex),
            h_si=np.zeros((n, n), dtype=complex),
            sigma2_dl=np.array([1.0]), sigma2_bs=1.0, sigma2_eve=np.zeros(0),
        )
        w = np.zeros(n, dtype=complex)
        w[0] = 2.0  # Tr(H W) = |h^H w|^2 = 4
        alloc = Allocation(
            W=(np.outer(w, w.conj()),), V=np.zeros((n, n), dtype=complex),
            P=np.zeros(0), receivers=ReceiverSet(r=np.zeros((0, n), dtype=complex)),
        )
        assert table(alloc, chan).sinrs()[0] == pytest.approx(4.0)

    def test_isotropic_an_adds_to_denominator(self):
        rng = np.random.default_rng(0)
        n, k = 4, 2
        chan = make_chan(n, k, 0, 0, rng)
        rec = ReceiverSet(r=np.zeros((0, n), dtype=complex))
        alloc0, _, _ = rank_one_alloc(n, k, 0, rng, rec, an_scale=0.0)
        p = 0.7
        alloc1 = Allocation(W=alloc0.W, V=p * np.eye(n), P=alloc0.P, receivers=rec)
        h = chan.h[0]
        s0 = table(alloc0, chan).sinrs()[0]
        s1 = table(alloc1, chan).sinrs()[0]
        base = quad(h, alloc0.W[0]) / s0
        assert quad(h, alloc0.W[0]) / s1 == pytest.approx(base + p * np.linalg.norm(h) ** 2)

    def test_matches_vector_form(self):
        rng = np.random.default_rng(1)
        n, k, j = 5, 3, 2
        chan = make_chan(n, k, j, 0, rng)
        rec = zf_receivers(chan.g)
        alloc, w_vecs, v_vec = rank_one_alloc(n, k, j, rng, rec)
        for kk in range(k):
            h = chan.h[kk]
            num = abs(h.conj() @ w_vecs[kk]) ** 2
            den = sum(abs(h.conj() @ w_vecs[i]) ** 2 for i in range(k) if i != kk)
            den += float(alloc.P @ np.abs(chan.f[:, kk]) ** 2)
            den += abs(h.conj() @ v_vec) ** 2 + chan.sigma2_dl[kk]
            assert table(alloc, chan).sinrs()[kk] == pytest.approx(num / den, rel=1e-9)


def quad(vec, mat):
    return float(np.real(vec.conj() @ mat @ vec))


class TestUlSinr:
    def test_interference_free(self):
        rng = np.random.default_rng(2)
        n, j = 4, 1
        chan = make_chan(n, 1, j, 0, rng, h_si_scale=0.0)
        rec = zf_receivers(chan.g)
        alloc = Allocation(
            W=(np.zeros((n, n), dtype=complex),), V=np.zeros((n, n), dtype=complex),
            P=np.array([1.3]), receivers=rec,
        )
        expected = 1.3 / (chan.sigma2_bs * np.linalg.norm(rec.r[0]) ** 2)
        assert table(alloc, chan).sinrs()[1] == pytest.approx(expected, rel=1e-12)

    def test_zf_premise_kills_cross_terms(self):
        rng = np.random.default_rng(3)
        n, j = 8, 3
        chan = make_chan(n, 1, j, 0, rng, h_si_scale=0.0)
        rec = zf_receivers(chan.g)
        alloc = Allocation(
            W=(np.zeros((n, n), dtype=complex),), V=np.zeros((n, n), dtype=complex),
            P=np.array([1.0, 2.0, 0.5]), receivers=rec,
        )
        for jj in range(j):
            expected = alloc.P[jj] / (chan.sigma2_bs * np.linalg.norm(rec.r[jj]) ** 2)
            assert table(alloc, chan).sinrs()[1 + jj] == pytest.approx(expected, rel=1e-9)

    def test_matches_vector_form(self):
        rng = np.random.default_rng(4)
        n, k, j = 6, 2, 3
        chan = make_chan(n, k, j, 0, rng, h_si_scale=1e-2)
        rec = zf_receivers(chan.g)
        alloc, w_vecs, v_vec = rank_one_alloc(n, k, j, rng, rec)
        for jj in range(j):
            r = rec.r[jj]
            num = alloc.P[jj] * abs(chan.g[jj].conj() @ r) ** 2
            den = sum(alloc.P[i] * abs(chan.g[i].conj() @ r) ** 2 for i in range(j) if i != jj)
            den += sum(abs(r.conj() @ chan.h_si @ w) ** 2 for w in w_vecs)
            den += abs(r.conj() @ chan.h_si @ v_vec) ** 2
            den += chan.sigma2_bs * np.linalg.norm(r) ** 2
            assert table(alloc, chan).sinrs()[k + jj] == pytest.approx(num / den, rel=1e-9)


class TestEveBounds:
    def test_trivial_cases(self):
        rng = np.random.default_rng(5)
        n, k, j, m = 4, 1, 1, 2
        chan = make_chan(n, k, j, m, rng)
        rec = zf_receivers(chan.g)
        zero = np.zeros((n, n), dtype=complex)
        w = random_complex(rng, n)
        alloc_v0 = Allocation(W=(np.outer(w, w.conj()),), V=zero, P=np.array([0.8]), receivers=rec)
        expected = quad(chan.l[0], alloc_v0.W[0]) / chan.sigma2_eve[0]
        assert table(alloc_v0, chan).eve_bounds()[0, 0] == pytest.approx(expected)
        alloc_w0 = Allocation(W=(zero,), V=zero, P=np.array([0.8]), receivers=rec)
        assert table(alloc_w0, chan).eve_bounds()[0, 0] == 0.0
        assert table(Allocation(W=(zero,), V=zero, P=np.array([0.0]), receivers=rec), chan).eve_bounds()[0, 1] == 0.0
        expected_ul = 0.8 * abs(chan.t[0, 0]) ** 2 / chan.sigma2_eve[0]
        assert table(alloc_v0, chan).eve_bounds()[0, 1] == pytest.approx(expected_ul)

    def test_bounds_dominate_exact_sinr(self):
        # oracle: full-denominator eavesdropper SINRs
        rng = np.random.default_rng(6)
        n, k, j, m = 5, 3, 2, 3
        chan = make_chan(n, k, j, m, rng)
        rec = zf_receivers(chan.g)
        alloc, w_vecs, v_vec = rank_one_alloc(n, k, j, rng, rec)
        for mm in range(m):
            l_vec = chan.l[mm]
            an = quad(l_vec, alloc.V)
            for kk in range(k):
                num = abs(l_vec.conj() @ w_vecs[kk]) ** 2
                den = sum(abs(l_vec.conj() @ w_vecs[i]) ** 2 for i in range(k) if i != kk)
                den += an + float(alloc.P @ np.abs(chan.t[:, mm]) ** 2) + chan.sigma2_eve[mm]
                exact = num / den
                assert table(alloc, chan).eve_bounds()[mm, kk] >= exact - 1e-15
            for jj in range(j):
                num = alloc.P[jj] * abs(chan.t[jj, mm]) ** 2
                den = sum(abs(l_vec.conj() @ w_vecs[i]) ** 2 for i in range(k))
                den += sum(alloc.P[i] * abs(chan.t[i, mm]) ** 2 for i in range(j) if i != jj)
                den += an + chan.sigma2_eve[mm]
                exact = num / den
                assert table(alloc, chan).eve_bounds()[mm, k + jj] >= exact - 1e-15


class TestSecrecy:
    def test_formula(self):
        rng = np.random.default_rng(7)
        n = 4
        chan = make_chan(n, 1, 0, 1, rng)
        rec = ReceiverSet(r=np.zeros((0, n), dtype=complex))
        # engineer legit rate 3 and eavesdropper rate 1
        h, l_vec = chan.h[0], chan.l[0]
        w = h / np.linalg.norm(h) ** 2 * np.sqrt(7 * chan.sigma2_dl[0])  # SINR 7 -> rate 3
        w_mat = np.outer(w, w.conj())
        scale = chan.sigma2_eve[0] / quad(l_vec, w_mat)  # eve SINR 1 -> rate 1
        alloc = Allocation(W=(scale * w_mat,), V=np.zeros((n, n), dtype=complex), P=np.zeros(0), receivers=rec)
        qos = evaluate_qos(alloc, link_model(chan, rec),
                           SystemConfig(n_antennas=n, n_dl=1, n_ul=0, n_idle=1))
        legit = np.log2(1 + qos.dl_sinr[0])
        assert qos.dl_secrecy[0] == pytest.approx(legit - 1.0, rel=1e-12)

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(8)
        n = 4
        chan = make_chan(n, 1, 0, 1, rng)
        # make the eavesdropper channel much stronger than the user channel
        chan = ChannelRealization(
            h=0.01 * chan.h, g=chan.g, l=10.0 * chan.l, f=chan.f, t=chan.t,
            h_si=chan.h_si, sigma2_dl=chan.sigma2_dl, sigma2_bs=chan.sigma2_bs,
            sigma2_eve=chan.sigma2_eve,
        )
        rec = ReceiverSet(r=np.zeros((0, n), dtype=complex))
        w = random_complex(rng, n)
        alloc = Allocation(W=(np.outer(w, w.conj()),), V=np.zeros((n, n), dtype=complex), P=np.zeros(0), receivers=rec)
        qos = evaluate_qos(alloc, link_model(chan, rec),
                           SystemConfig(n_antennas=n, n_dl=1, n_ul=0, n_idle=1))
        assert qos.dl_secrecy[0] == 0.0

    def test_phase_invariance(self):
        rng = np.random.default_rng(9)
        n, k, j, m = 5, 2, 2, 2
        chan = make_chan(n, k, j, m, rng)
        rec = zf_receivers(chan.g)
        alloc, w_vecs, _ = rank_one_alloc(n, k, j, rng, rec)
        rotated = tuple(
            np.outer(np.exp(1j * (0.3 + i)) * w, (np.exp(1j * (0.3 + i)) * w).conj())
            for i, w in enumerate(w_vecs)
        )
        alloc_rot = Allocation(W=rotated, V=alloc.V, P=alloc.P, receivers=rec)
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m)
        a = evaluate_qos(alloc, link_model(chan, alloc.receivers), cfg)
        b = evaluate_qos(alloc_rot, link_model(chan, alloc_rot.receivers), cfg)
        assert np.allclose(a.dl_secrecy, b.dl_secrecy, rtol=1e-10)
        assert np.allclose(a.ul_secrecy, b.ul_secrecy, rtol=1e-10)


class TestObjectiveAndMargins:
    def test_objective_trivial(self):
        n = 3
        rec = ReceiverSet(r=np.zeros((1, n), dtype=complex))
        alloc = Allocation(
            W=(np.eye(n, dtype=complex) * 0.5,), V=0.5 * np.eye(n, dtype=complex),
            P=np.array([1.0]), receivers=rec,
        )
        cfg = SystemConfig(n_antennas=n, n_dl=1, n_ul=1, n_idle=1)
        assert objective(alloc, cfg) == pytest.approx(4.0)  # 1.5 + 1.5 + 1
        cfg0 = cfg.with_updates(alpha=0.0)
        assert objective(alloc, cfg0) == pytest.approx(1.0)

    def test_zero_allocation_margins(self):
        rng = np.random.default_rng(10)
        n, k, j, m = 4, 2, 1, 2
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m)
        chan = make_chan(n, k, j, m, rng)
        rec = zf_receivers(chan.g)
        zero = np.zeros((n, n), dtype=complex)
        alloc = Allocation(W=(zero, zero), V=zero, P=np.zeros(j), receivers=rec)
        margins = evaluate_qos(alloc, link_model(chan, alloc.receivers), cfg).margins
        assert np.all(margins.c1 < 0) and np.all(margins.c2 < 0)
        assert np.all(margins.c3 > 0) and np.all(margins.c4 > 0)
        assert np.all(margins.c5 == 0)

    def test_scaling_increases_c1_slack(self):
        rng = np.random.default_rng(11)
        n, k = 4, 1
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=0, n_idle=0, gamma_dl_req_default_db=3.0)
        chan = make_chan(n, k, 0, 0, rng)
        rec = ReceiverSet(r=np.zeros((0, n), dtype=complex))
        h = chan.h[0]
        w_mat = np.outer(h, h.conj()) / np.linalg.norm(h) ** 2 * 10.0
        tiny_v = 1e-4 * np.eye(n)
        one = Allocation(W=(w_mat,), V=tiny_v, P=np.zeros(0), receivers=rec)
        two = Allocation(W=(2 * w_mat,), V=2 * tiny_v, P=np.zeros(0), receivers=rec)
        m1 = evaluate_qos(one, link_model(chan, one.receivers), cfg).margins
        m2 = evaluate_qos(two, link_model(chan, two.receivers), cfg).margins
        assert m2.c1[0] > m1.c1[0]

    def test_csv_round(self):
        rng = np.random.default_rng(12)
        n, k, j, m = 5, 2, 2, 2
        cfg = SystemConfig(n_antennas=n, n_dl=k, n_ul=j, n_idle=m)
        chan = make_chan(n, k, j, m, rng)
        rec = zf_receivers(chan.g)
        alloc, _, _ = rank_one_alloc(n, k, j, rng, rec)
        report = evaluate_qos(alloc, link_model(chan, alloc.receivers), cfg)
        header = qos_csv_header(k, j, m)
        row = qos_csv_fields(report)
        assert list(row) == header
        # objective and margin are columns of the trial row, not of the QoS block
        assert not {"objective_w", "min_margin"} & set(header)
        assert row["eve_ul_ub_1_0"] == report.eve_ul_sinr_ub[1, 0]
        assert row["dl_secrecy_1"] == report.dl_secrecy[1]
