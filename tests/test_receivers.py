import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdsec.receivers import ZF_TOL, zf_receivers


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def cross_products(rec, g):
    return rec.r.conj() @ g.T


class TestZfReceivers:
    def test_single_user(self):
        rng = np.random.default_rng(0)
        g = random_complex(rng, 1, 5)
        rec = zf_receivers(g)
        assert np.allclose(rec.r[0], g[0] / np.linalg.norm(g[0]) ** 2)
        assert np.vdot(rec.r[0], g[0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_channels(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(random_complex(rng, 6, 2))
        g = q.T
        rec = zf_receivers(g)
        assert np.allclose(rec.r, g, atol=1e-12)

    def test_defining_identity(self):
        rng = np.random.default_rng(2)
        g = random_complex(rng, 3, 8)
        rec = zf_receivers(g)
        assert np.abs(cross_products(rec, g) - np.eye(3)).max() <= 1e-8

    def test_multiuser_interference_is_numerical_zero(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, 3, 8)
        rec = zf_receivers(g)
        p = np.array([0.5, 1.0, 2.0])
        cross = np.abs(cross_products(rec, g)) ** 2
        off = cross - np.diag(np.diag(cross))
        interference = (off * p[np.newaxis, :]).sum()
        assert interference < 1e-12 * p.sum()

    def test_channel_scaling(self):
        rng = np.random.default_rng(4)
        g = random_complex(rng, 2, 6)
        rec = zf_receivers(g)
        c = 0.3 - 1.7j
        g2 = g.copy()
        g2[1] *= c
        rec2 = zf_receivers(g2)
        assert np.allclose(rec2.r[1], rec.r[1] / np.conj(c))
        assert np.vdot(rec2.r[1], g2[1]) == pytest.approx(1.0, abs=1e-10)
        # the untouched receiver keeps its defining property
        assert np.vdot(rec2.r[0], g2[0]) == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_raises(self):
        g = np.ones((2, 4), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            zf_receivers(g)

    def test_too_many_users_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(np.linalg.LinAlgError):
            zf_receivers(random_complex(rng, 5, 4))

    def test_empty(self):
        rec = zf_receivers(np.zeros((0, 4), dtype=complex))
        assert rec.count == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n))),
           seed=st.integers(0, 2**32 - 1), scale_exp=st.integers(-6, 2))
    @example(shape=(12, 12), seed=0, scale_exp=-6)
    def test_zero_forcing_property(self, shape, seed, scale_exp):
        # 1 <= J <= N <= 12, square J = N included, over a range of channel scales
        j, n = shape
        g = 10.0 ** scale_exp * random_complex(np.random.default_rng(seed), j, n)
        rec = zf_receivers(g)
        assert rec.r.shape == (j, n)
        assert np.abs(cross_products(rec, g) - np.eye(j)).max() <= ZF_TOL
