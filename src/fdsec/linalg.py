"""Dense complex-vector / Hermitian-matrix kernels used by every other module.

All matrices are small (N <= ~16 complex), so everything is dense. The
eigendecompositions and the pseudoinverse are LAPACK's, through
``numpy.linalg``, on the complex matrices; the real symmetric embedding is
kept only for the conic program, whose PSD blocks are real.
"""

import numpy as np

HERMITIAN_ATOL = 1e-12


def check_hermitian(h, atol=HERMITIAN_ATOL):
    """Validate conjugate symmetry (and implicitly a real diagonal)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, np.abs(h).max())
    if np.abs(h - h.conj().T).max() > atol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return h


def embed_real(h):
    """Real symmetric embedding [[A, -B], [B, A]] of a Hermitian H = A + iB.

    Eigenvalues of the embedding are those of H, each doubled in
    multiplicity, and the trace doubles.
    """
    h = np.asarray(h, dtype=complex)
    a, b = h.real, h.imag
    return np.block([[a, -b], [b, a]])


def unembed_hermitian(m, atol=1e-6):
    """Invert :func:`embed_real`, averaging the redundant blocks.

    Raises if the input deviates from the embedding structure by more than
    ``atol`` relative to its Frobenius norm.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    if d % 2 != 0:
        raise ValueError("embedded matrix must have even dimension")
    n = d // 2
    m11, m12, m21, m22 = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    scale = max(np.linalg.norm(m), 1e-300)
    asym = np.sqrt(np.linalg.norm(m11 - m22) ** 2 + np.linalg.norm(m12 + m21) ** 2)
    if asym > atol * scale:
        raise ValueError(f"embedding asymmetry {asym / scale:.3e} exceeds {atol:.1e}")
    a = 0.5 * (m11 + m22)
    b = 0.5 * (m21 - m12)
    a = 0.5 * (a + a.T)
    b = 0.5 * (b - b.T)
    return a + 1j * b


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues descending, U) with orthonormal complex eigenvector
    columns so that H = U diag(w) U^H.
    """
    w, u = np.linalg.eigh(check_hermitian(h))
    return w[::-1], u[:, ::-1]


def eigvals_herm(h):
    """Eigenvalues only, descending."""
    return np.linalg.eigvalsh(check_hermitian(h))[::-1]


def pseudoinverse_full_col_rank(q, cond_limit=1e12):
    """Left pseudoinverse (Q^H Q)^{-1} Q^H of a full-column-rank matrix.

    Computed from the thin SVD Q = U S V^H as V S^{-1} U^H; Q is rank
    deficient when its condition number s_max/s_min exceeds ``cond_limit``.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim == 1:
        q = q[:, np.newaxis]
    rows, cols = q.shape
    if rows < cols:
        raise np.linalg.LinAlgError("need at least as many rows as columns")
    u, s, vh = np.linalg.svd(q, full_matrices=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > cond_limit:
        raise np.linalg.LinAlgError("matrix is numerically rank deficient")
    return (vh.conj().T / s) @ u.conj().T
