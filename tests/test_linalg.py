import numpy as np
import pytest
import scipy

from fdsec.linalg import herm_eig, pseudoinverse_full_col_rank, scipy_extension


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHermEig:
    def test_identity(self):
        w, u = herm_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        w_vec = random_complex(rng, 4)
        w_vec /= np.linalg.norm(w_vec)
        vals, vecs = herm_eig(np.outer(w_vec, w_vec.conj()))
        assert np.allclose(vals, [1, 0, 0, 0], atol=1e-12)
        # leading eigenvector equals w up to a unit phase
        overlap = abs(np.vdot(vecs[:, 0], w_vec))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            h = random_hermitian(rng, n)
            vals, vecs = herm_eig(h)
            rec = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(rec - h) <= 1e-9 * max(1.0, np.linalg.norm(h))
            gram = vecs.conj().T @ vecs
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(vals) <= 1e-12)

    def test_degenerate_spectrum(self):
        # repeated eigenvalues: any orthonormal basis of each eigenspace is valid
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(random_complex(rng, 6, 6))
        h = q @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0, 0.5]) @ q.conj().T
        h = 0.5 * (h + h.conj().T)
        vals, vecs = herm_eig(h)
        rec = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(rec - h) <= 1e-9 * np.linalg.norm(h)
        assert np.abs(vecs.conj().T @ vecs - np.eye(6)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPseudoinverse:
    def test_single_column(self):
        rng = np.random.default_rng(1)
        g = random_complex(rng, 5)
        pinv = pseudoinverse_full_col_rank(g[:, None])
        assert np.allclose(pinv, g.conj()[None, :] / np.linalg.norm(g) ** 2)

    def test_unitary_columns(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(random_complex(rng, 6, 3))
        pinv = pseudoinverse_full_col_rank(q)
        assert np.allclose(pinv, q.conj().T, atol=1e-12)

    def test_defining_identity(self):
        rng = np.random.default_rng(3)
        q = random_complex(rng, 8, 3)
        pinv = pseudoinverse_full_col_rank(q)
        assert np.abs(pinv @ q - np.eye(3)).max() <= 1e-9

    def test_moore_penrose(self):
        rng = np.random.default_rng(4)
        q = random_complex(rng, 7, 4)
        p = pseudoinverse_full_col_rank(q)
        assert np.abs(q @ p @ q - q).max() <= 1e-8
        assert np.abs(p @ q @ p - p).max() <= 1e-8
        assert np.abs((q @ p) - (q @ p).conj().T).max() <= 1e-8
        assert np.abs((p @ q) - (p @ q).conj().T).max() <= 1e-8

    def test_rank_deficient_raises(self):
        g = np.ones((4, 1), dtype=complex)
        q = np.hstack([g, 2 * g])
        with pytest.raises(np.linalg.LinAlgError):
            pseudoinverse_full_col_rank(q)

    def test_wide_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            pseudoinverse_full_col_rank(np.ones((2, 3), dtype=complex))


class TestScipyExtension:
    def test_missing_extension_is_a_named_import_error(self):
        name = "scipy.linalg._no_such_extension"
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__} .*{name}") as exc:
            scipy_extension(name)
        assert exc.value.name == name
