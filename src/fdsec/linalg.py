"""Dense complex-vector / Hermitian-matrix kernels used by every other module.

All matrices are small (N <= ~16 complex), so everything is dense. The
eigendecompositions and the pseudoinverse are LAPACK's, through
``numpy.linalg``, on the complex matrices. ``scipy_extension`` loads one
of scipy's compiled extensions (the solver's LAPACK wrappers, the polish's
HiGHS) without the scipy package around it.
"""

import os
import sys
from functools import cache
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

HERMITIAN_ATOL = 1e-12
COND_LIMIT = 1e12


@cache
def scipy_extension_spec(name):
    """The import spec of scipy's compiled extension module ``name`` (a
    dotted name such as ``"scipy.linalg._flapack"``), found without loading
    it; an ImportError naming the module and scipy's version when the
    installed scipy has none."""
    spec = PathFinder.find_spec(name, [os.path.join(p, *name.split(".")[1:-1])
                                       for p in scipy.__path__])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled module {name}", name=name)
    return spec


@cache
def scipy_extension(name):
    """scipy's compiled extension module ``name``, loaded without the scipy
    packages around it; when scipy has loaded it already, that very module."""
    module = sys.modules.get(name)
    if module is None:
        spec = scipy_extension_spec(name)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def check_hermitian(h):
    """Validate conjugate symmetry (and implicitly a real diagonal)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, np.abs(h).max())
    if np.abs(h - h.conj().T).max() > HERMITIAN_ATOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return h


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


def pseudoinverse_full_col_rank(q):
    """Left pseudoinverse (Q^H Q)^{-1} Q^H of a full-column-rank matrix.

    Computed from the thin SVD Q = U S V^H as V S^{-1} U^H; Q is rank
    deficient when its condition number s_max/s_min exceeds ``COND_LIMIT``.
    """
    q = np.asarray(q, dtype=complex)
    if q.ndim == 1:
        q = q[:, np.newaxis]
    rows, cols = q.shape
    if rows < cols:
        raise np.linalg.LinAlgError("need at least as many rows as columns")
    u, s, vh = np.linalg.svd(q, full_matrices=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > COND_LIMIT:
        raise np.linalg.LinAlgError("matrix is numerically rank deficient")
    return (vh.conj().T / s) @ u.conj().T
