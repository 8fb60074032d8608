import numpy as np
import pytest

from fdsec.channel import (
    ChannelRealization,
    SystemConfig,
    db2lin,
    dbm2watt,
    drop_geometry,
    noise_powers,
    path_loss_db,
    realize,
    sample_channels,
    watt2dbm,
)

SMALL = SystemConfig(n_antennas=4, n_dl=1, n_ul=1, n_idle=1)


class TestConfig:
    def test_defaults_match_table(self):
        cfg = SystemConfig()
        assert cfg.carrier_hz == 1.9e9
        assert cfg.bandwidth_hz == 2e5
        assert cfg.pathloss_exponent == 3.6
        assert cfg.si_cancellation_db == -110.0
        assert cfg.thermal_noise_dbm == -121.0
        assert cfg.gamma_tol_db == -10.0
        assert cfg.eve_sinr_cap == pytest.approx(0.1)

    def test_antenna_invariant(self):
        with pytest.raises(ValueError):
            SystemConfig(n_antennas=3, n_ul=3, n_idle=1)
        with pytest.raises(ValueError):
            SystemConfig(n_antennas=4, n_ul=1, n_idle=5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(alpha=-1.0)

    def test_per_user_targets(self):
        cfg = SystemConfig(n_antennas=4, n_dl=2, n_ul=1, n_idle=1, gamma_dl_req_db=(6.0, 9.0))
        assert np.allclose(cfg.dl_sinr_targets, db2lin([6.0, 9.0]))
        with pytest.raises(ValueError):
            SystemConfig(n_antennas=4, n_dl=2, n_ul=1, n_idle=1, gamma_dl_req_db=(6.0,))


class TestPathLoss:
    def test_reference_distance(self):
        expected = 20 * np.log10(4 * np.pi * 30 * 1.9e9 / 3e8)
        assert path_loss_db(30.0, SMALL) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(67.56, abs=0.005)

    def test_decade(self):
        assert path_loss_db(300.0, SMALL) == pytest.approx(path_loss_db(30.0, SMALL) + 36.0, abs=1e-12)

    def test_doubling(self):
        delta = path_loss_db(120.0, SMALL) - path_loss_db(60.0, SMALL)
        assert delta == pytest.approx(10 * 3.6 * np.log10(2), abs=1e-12)
        assert delta == pytest.approx(10.84, abs=0.005)

    def test_below_reference_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(29.0, SMALL)


class TestNoise:
    def test_levels(self):
        sigma2_dl, sigma2_bs, sigma2_eve = noise_powers(SystemConfig())
        assert np.allclose(watt2dbm(sigma2_dl), -112.0)
        assert watt2dbm(sigma2_bs) == pytest.approx(-119.0)
        assert np.allclose(watt2dbm(sigma2_eve), -112.0)
        assert sigma2_dl.shape == (6,) and sigma2_eve.shape == (5,)

    def test_watt_values(self):
        sigma2_dl, sigma2_bs, _ = noise_powers(SystemConfig())
        assert sigma2_dl[0] == pytest.approx(dbm2watt(-112.0))
        assert sigma2_bs == pytest.approx(10 ** (-14.9))


def distances(geom):
    """All K+J+M BS distances of a drop."""
    return np.concatenate([geom.dl_dist, geom.ul_dist, geom.idle_dist])


class TestGeometry:
    def test_deterministic(self):
        a = drop_geometry(SystemConfig(), 42)
        b = drop_geometry(SystemConfig(), 42)
        assert np.array_equal(a.dl_pos, b.dl_pos)
        assert np.array_equal(a.idle_pos, b.idle_pos)

    def test_support(self):
        cfg = SystemConfig()
        for seed in range(50):
            d = distances(drop_geometry(cfg, seed))
            assert np.all(d >= cfg.ref_distance_m) and np.all(d <= cfg.max_distance_m)

    def test_uniform_mean(self):
        cfg = SystemConfig()
        samples = np.concatenate([distances(drop_geometry(cfg, s)) for s in range(750)])
        n = samples.size
        se = (cfg.max_distance_m - cfg.ref_distance_m) / np.sqrt(12.0) / np.sqrt(n)
        assert abs(samples.mean() - 265.0) < 3 * se


class TestChannels:
    def test_reproducible(self):
        geom_a, chan_a = realize(SystemConfig(), 7)
        geom_b, chan_b = realize(SystemConfig(), 7)
        for name in ("h", "g", "l", "f", "t", "h_si"):
            assert np.array_equal(getattr(chan_a, name), getattr(chan_b, name))
        assert np.array_equal(geom_a.ul_pos, geom_b.ul_pos)

    def test_si_moment(self):
        cfg = SMALL
        geom = drop_geometry(cfg, 0)
        acc = [np.abs(sample_channels(cfg, geom, s).h_si) ** 2 for s in range(700)]
        mean = np.mean(acc)
        assert mean == pytest.approx(1e-11, rel=0.05)

    def test_bs_link_moment(self):
        cfg = SMALL
        geom = drop_geometry(cfg, 1)
        expected = db2lin(-path_loss_db(geom.dl_dist[0], cfg) + cfg.bs_antenna_gain_dbi)
        acc = [np.abs(sample_channels(cfg, geom, s).h[0]) ** 2 for s in range(2500)]
        assert np.mean(acc) == pytest.approx(expected, rel=0.05)

    def test_inter_user_link_moment(self):
        cfg = SMALL
        geom = drop_geometry(cfg, 2)
        d = np.linalg.norm(geom.ul_pos[0] - geom.dl_pos[0])
        expected = db2lin(-path_loss_db(max(d, cfg.ref_distance_m), cfg))  # no BS gain
        acc = [abs(sample_channels(cfg, geom, s).f[0, 0]) ** 2 for s in range(10000)]
        assert np.mean(acc) == pytest.approx(expected, rel=0.05)

    def test_rician_factor_split(self):
        cfg = SystemConfig()
        geom = drop_geometry(cfg, 3)
        det_acc, scat_acc = [], []
        for s in range(400):
            h_si = sample_channels(cfg, geom, s).h_si
            mean = h_si.mean()
            det_acc.append(abs(mean) ** 2)
            scat_acc.append(np.mean(np.abs(h_si - mean) ** 2))
        ratio = np.mean(det_acc) / np.mean(scat_acc)
        assert ratio == pytest.approx(10 ** 0.6, rel=0.08)

    def test_ul_matrix_well_conditioned(self):
        cfg = SystemConfig()
        for seed in range(10):
            _, chan = realize(cfg, seed)
            s = np.linalg.svd(chan.g.T, compute_uv=False)
            assert s[0] / s[-1] < 1e10

    def test_noise_validation(self):
        _, chan = realize(SMALL, 0)
        with pytest.raises(ValueError):
            ChannelRealization(
                h=chan.h, g=chan.g, l=chan.l, f=chan.f, t=chan.t, h_si=chan.h_si,
                sigma2_dl=np.array([0.0]), sigma2_bs=chan.sigma2_bs, sigma2_eve=chan.sigma2_eve,
            )
