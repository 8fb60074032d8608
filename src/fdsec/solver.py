"""Primal-dual interior-point solver for PSD-cone x orthant conic programs.

Inequalities get orthant slack variables so the cone is exactly a product
of real PSD blocks and a nonnegative orthant; the iteration is an
infeasible-start path-following method with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step. Presolve drops empty rows, equilibrates
block columns, and normalizes every constraint row to unit infinity-norm;
all reported quantities are unscaled back to the original data.

Infeasibility is decided on the iterates themselves: once the dual
iterate y of an infeasible program grows along a Farkas ray, the exact
test ``_farkas_rays`` accepts it, with every cone violation measured
against the magnitude of the terms it sums (Todd, "Detecting infeasibility
in infeasible-interior-point methods for optimization", 2004). A ray known
in closed form passes the same test in ``ray_report``, with no IPM run. The
objective lies in the dual cone (a ``ConicProblem`` with one that does not
cannot be built), so no program is unbounded and there is no
dual-infeasibility verdict.

The PSD blocks are stacked by size: each group of same-size blocks is one
(B, d, d) array, gathered from and scattered to the svec vector through
precomputed index maps. Programs with the same standard-form layout run
through the loop in lockstep, with the trial as one more leading axis
(``solve_many``): every kernel of an iteration (scaling point, scaled rows,
direction, targets, step to the boundary, interior check) is one batched
numpy/LAPACK call per group for all of them, and a trial that exits leaves
the stacks. Each batched call computes every trial's slice exactly as a
call on that trial alone would, so each report is bit for bit the one a
solve of that program alone returns. The Schur factorization, its
refinement and all scalar tests stay per trial.
"""

import logging
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .linalg import scipy_extension
from .problem import BlockValues

logger = logging.getLogger(__name__)

# scipy's compiled LAPACK wrappers, the module scipy.linalg.lapack re-exports
_flapack = scipy_extension("scipy.linalg._flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

_FTB = 0.99          # fraction-to-boundary step factor
_MAX_HALVINGS = 12   # step fallback on factorization failure
_MAX_ITERS = 200     # main-loop iterations before a solve ends in max_iters
_REL_TOL = 1e-7      # residuals and relative gap of an optimum
_ABS_TOL = 1e-8      # gaps are relative to max(|objective|, _ABS_TOL / _REL_TOL)
# the stop rule asks mu <= _REL_TOL * _MU_FACTOR, relative to the objective:
# deep enough for the dual certificate's null-eigenvalue and complementarity tests
_MU_FACTOR = 1e-3
_RAY_TOL = 1e-8      # relative cone violation a Farkas ray may keep
# a trial whose best iterate meets the relaxed test and has not improved for
# this many iterations is at its precision floor, and ends on that iterate
_FLOOR_ITERS = 2


@dataclass(frozen=True)
class SolverReport:
    status: str                  # optimal | primal_infeasible | max_iters | numerical_failure
    # how the solve ended: strict (the stop test), floor (a relaxed best iterate
    # that stopped improving), breakdown (a relaxed best iterate after a
    # breakdown, stall or max_iters), ray (a Farkas ray of the iterates),
    # closed_form_ray (ray_report), presolve or failure
    exit: str
    primal: BlockValues
    multipliers: np.ndarray      # one nonnegative multiplier per inequality
    psd_duals: tuple             # one real symmetric dual block per PSD variable
    orthant_dual: np.ndarray
    primal_obj: float
    dual_obj: float
    iterations: int              # main-loop iterations
    iter_log: tuple = field(default=())
    solve_time: float = 0.0


# ---------------------------------------------------------------------------
# PSD blocks, stacked by size


def _t(mats):
    """Transpose of every matrix in a (..., d, d) stack."""
    return np.swapaxes(mats, -1, -2)


def _diag(vals):
    """(..., d, d) diagonal matrices of (..., d) values."""
    d = vals.shape[-1]
    out = np.zeros(vals.shape + (d,))
    out[..., np.arange(d), np.arange(d)] = vals
    return out


def _embedding_image(m):
    """Conjugation of 2n x 2n matrices by the quarter-turn [[0, -I], [I, 0]]."""
    n = m.shape[-1] // 2
    out = np.empty_like(m)
    out[..., :n, :n] = m[..., n:, n:]
    out[..., n:, n:] = m[..., :n, :n]
    out[..., :n, n:] = -m[..., n:, :n]
    out[..., n:, :n] = -m[..., :n, n:]
    return out


def _embedding_symmetric(mats):
    """Per matrix of a (..., 2n, 2n) stack: equal to its quarter-turn image,
    entry for entry."""
    return (mats == _embedding_image(mats)).all(axis=(-2, -1))


class _BlockGroup:
    """The PSD blocks of one size d, as index maps into svec vectors.

    ``cols[j]`` holds the svec positions of block ``blocks[j]`` (upper
    triangle row by row, off-diagonal entries times sqrt 2), ``pos[j]`` the
    position of every entry of its d x d matrix and ``diag[j]`` those of its
    diagonal, so svec and smat of all B blocks are one gather each;
    ``upper`` holds the flat positions of the upper triangle in a d x d
    matrix.
    """

    def __init__(self, d, blocks, block_starts):
        self.d = d
        self.blocks = np.asarray(blocks, dtype=int)
        self.iu = np.triu_indices(d)
        self.upper = self.iu[0] * d + self.iu[1]
        self.w = np.where(self.iu[0] == self.iu[1], 1.0, np.sqrt(2.0))
        self.w_mat = np.where(np.eye(d, dtype=bool), 1.0, np.sqrt(2.0))
        local = np.empty((d, d), dtype=int)
        local[self.iu] = np.arange(len(self.w))
        local[self.iu[1], self.iu[0]] = local[self.iu]
        starts = block_starts[self.blocks]
        self.cols = starts[:, np.newaxis] + np.arange(len(self.w))
        self.pos = starts[:, np.newaxis, np.newaxis] + local
        self.diag = self.pos[:, np.arange(d), np.arange(d)]

    def smat(self, vec):
        """(..., B, d, d) symmetric blocks of svec vectors (..., n)."""
        mats = np.take(vec, self.pos, axis=-1)
        mats /= self.w_mat
        return mats

    def svec(self, mats):
        """(..., B, L) svec entries of (..., B, d, d) symmetric blocks."""
        flat = mats.reshape(mats.shape[:-2] + (self.d * self.d,))
        out = np.take(flat, self.upper, axis=-1)
        out *= self.w
        return out

    def row_mats(self, a):
        """(B, m, d, d) symmetric blocks of the m rows of ``a``."""
        rows = np.arange(a.shape[0])[:, np.newaxis, np.newaxis]
        mats = a[rows, self.pos[:, np.newaxis]]
        mats /= self.w_mat
        return mats


# ---------------------------------------------------------------------------
# internal standard form


class _StandardForm:
    """min c.u  s.t.  A u = b, u in (PSD blocks) x orthant, plus unscaling data."""

    def __init__(self, problem, rows=None):
        cons = problem.constraints if rows is None else [problem.constraints[i] for i in rows]
        m = len(cons)
        self.psd_dims = list(problem.psd_dims)
        sv_lens = [d * (d + 1) // 2 for d in self.psd_dims]
        self.block_starts = np.concatenate([[0], np.cumsum(sv_lens)]).astype(int)
        # blocks grouped by size; block_at[blk] = (group, position in it)
        self.groups = []
        self.block_at = [None] * len(self.psd_dims)
        for d in dict.fromkeys(self.psd_dims):
            blocks = [blk for blk, dim in enumerate(self.psd_dims) if dim == d]
            for j, blk in enumerate(blocks):
                self.block_at[blk] = (len(self.groups), j)
            self.groups.append(_BlockGroup(d, blocks, self.block_starts))
        n_sv = int(self.block_starts[-1])
        self.n_orth_vars = problem.orthant_dim
        self.n_x = n_sv + self.n_orth_vars      # variables before slacks
        self.m = m

        # all->= orientation; remember original senses for reporting
        self.sense_sign = np.array([1.0 if c.sense == ">=" else -1.0 for c in cons])
        a = np.zeros((m, self.n_x))
        b = np.empty(m)
        for i, con in enumerate(cons):
            for blk, coeff in con.psd_coeffs.items():
                k, j = self.block_at[blk]
                a[i, self.groups[k].cols[j]] = self.groups[k].svec(coeff)
            if self.n_orth_vars:
                a[i, n_sv:] = con.orthant_coeffs
            a[i] *= self.sense_sign[i]
            b[i] = self.sense_sign[i] * con.constant
        c = np.zeros(self.n_x)
        objectives = [np.array([problem.objective_psd[blk] for blk in grp.blocks])
                      for grp in self.groups]
        for grp, cmats in zip(self.groups, objectives):
            c[grp.cols] = grp.svec(cmats)
        if self.n_orth_vars:
            c[n_sv:] = problem.objective_orthant
        self.n_sv = n_sv

        # presolve: drop all-zero rows (infeasible ones are caught right away)
        row_norm = np.abs(a).max(axis=1) if self.n_x else np.zeros(m)
        self.kept = np.where(row_norm > 0.0)[0]
        dropped = np.where(row_norm == 0.0)[0]
        self.infeasible_rows = dropped[b[dropped] > 0.0]
        a = a[self.kept]
        b = b[self.kept]

        # equilibration: scalar per PSD block / orthant column, then rows
        self.col_scale = np.ones(self.n_x)
        self.row_scale = np.ones(len(self.kept))
        for _ in range(3):
            if a.size == 0:
                break
            peaks = np.abs(a).max(axis=0)
            if n_sv:
                block_peaks = np.maximum.reduceat(peaks[:n_sv], self.block_starts[:-1])
                peaks[:n_sv] = np.repeat(block_peaks, sv_lens)
            f = 1.0 / np.sqrt(np.where(peaks > 0, peaks, 1.0))
            a *= f
            self.col_scale *= f
            peaks = np.abs(a).max(axis=1)
            f = 1.0 / np.sqrt(np.where(peaks > 0, peaks, 1.0))
            a *= f[:, np.newaxis]
            b *= f
            self.row_scale *= f
        if a.size:
            peaks = np.abs(a).max(axis=1)
            f = 1.0 / np.where(peaks > 0, peaks, 1.0)
            a *= f[:, np.newaxis]
            b *= f
            self.row_scale *= f

        # normalize the right-hand side so optimal values are O(1) in scaled space
        self.b_scale = float(np.abs(b).max()) if b.size else 1.0
        if self.b_scale <= 0.0:
            self.b_scale = 1.0
        b = b / self.b_scale

        c_scaled = c * self.col_scale
        self.obj_scale = max(np.abs(c_scaled).max(), 1e-300) if self.n_x else 1.0
        c_scaled = c_scaled / self.obj_scale

        # slack per kept row: a.u - s = b
        mk = len(self.kept)
        self.a_full = np.hstack([a, -np.eye(mk)]) if mk else np.zeros((0, self.n_x))
        del a
        self.b = b
        self.b_orig = b * self.b_scale / self.row_scale  # kept rows' constants, >= orientation
        self.c_full = np.concatenate([c_scaled, np.zeros(mk)])
        self.c_orig = c
        self.n_total = self.n_x + mk
        self.n_orth_total = self.n_orth_vars + mk
        self.cone_degree = sum(self.psd_dims) + self.n_orth_total
        # per group, the (B, mk, d, d) constraint matrices of the scaled system,
        # and the (B, mk) mask of the (block, row) pairs that are not all zero
        self.a_mats = [grp.row_mats(self.a_full) for grp in self.groups]
        self.nonzero = [mats.any(axis=(-2, -1)) for mats in self.a_mats]
        # blocks whose data all commutes with the complex-embedding symmetry
        # J M J' (J the quarter-turn) can have their iterates projected onto
        # that invariant subspace, which keeps Hermitian recovery exact; a
        # zero matrix commutes with it
        self.sym_groups = []
        for grp, cmats, mats, nz in zip(self.groups, objectives, self.a_mats, self.nonzero):
            sym = np.ones(nz.shape, dtype=bool)
            sym[nz] = _embedding_symmetric(mats[nz])
            ok = _embedding_symmetric(cmats) & sym.all(axis=1)
            if ok.any():
                self.sym_groups.append(_BlockGroup(grp.d, grp.blocks[ok], self.block_starts))
        # programs of one layout share every index map and size above
        self.layout = (tuple(self.psd_dims), self.n_orth_vars, m, tuple(self.kept.tolist()),
                       tuple(tuple(grp.blocks.tolist()) for grp in self.sym_groups))

    @cached_property
    def row_norms(self):
        """Per group, the (B, mk) spectral norms of each block of each scaled row."""
        norms = []
        for mats, nz in zip(self.a_mats, self.nonzero):
            out = np.zeros(nz.shape)
            out[nz] = np.abs(np.linalg.eigvalsh(mats[nz])).max(axis=-1)
            norms.append(out)
        return norms

    # -- views ---------------------------------------------------------------

    def psd_mats(self, vec):
        """The symmetric matrix of every PSD block of an svec vector, in block order."""
        stacks = [grp.smat(vec) for grp in self.groups]
        return tuple(stacks[k][j] for k, j in self.block_at)

    def orth_slice(self, vec):
        return vec[self.n_sv:]


def _unscale(form, u, y, z):
    """x, the kept rows' y and z in original units, of one ``_StandardForm``'s
    iterate or of a ``_Stack``'s stacked iterates."""
    n_x = form.col_scale.shape[-1]
    return (u[..., :n_x] * form.col_scale * form.b_scale, y * form.row_scale * form.obj_scale,
            z[..., :n_x] / form.col_scale * form.obj_scale)


# ---------------------------------------------------------------------------
# trials of one layout, stacked


class _Stack:
    """The scaled data of programs that share one standard-form layout, each
    array with the trial as its leading axis. ``lay`` is the first trial's
    form: every trial shares its index maps and sizes."""

    def __init__(self, sfs):
        self.sfs = sfs
        self.lay = sfs[0]

        def stack(arrays):
            # a lone trial's arrays need no copy
            return arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)

        self.a = stack([sf.a_full for sf in sfs])
        self.a_t = _t(self.a)
        self.b = stack([sf.b for sf in sfs])
        self.c = stack([sf.c_full for sf in sfs])
        # per group and block, the rows that are nonzero on it in some trial,
        # and the (T, rows, d, d) stack of its matrices on those rows
        self.block_rows = [[np.flatnonzero(rows) for rows in np.logical_or.reduce(masks)]
                           for masks in zip(*(sf.nonzero for sf in sfs))]
        self.block_mats = [[np.stack([sf.a_mats[k][j, rows] for sf in sfs])
                            for j, rows in enumerate(block_rows)]
                           for k, block_rows in enumerate(self.block_rows)]
        self.col_scale = stack([sf.col_scale for sf in sfs])
        self.row_scale = stack([sf.row_scale for sf in sfs])
        self.b_scale = np.array([[sf.b_scale] for sf in sfs])
        self.obj_scale = np.array([[sf.obj_scale] for sf in sfs])
        self.c_orig = stack([sf.c_orig for sf in sfs])
        self.norm_b = 1.0 + np.abs(self.b).max(axis=1, initial=0.0)
        self.norm_c = 1.0 + np.abs(self.c).max(axis=1, initial=0.0)
        self.b_orig = stack([sf.b_orig for sf in sfs])
        self.b_orig_norm = 1.0 + np.abs(self.b_orig).max(axis=1, initial=0.0)
        self.c_orig_norm = 1.0 + np.abs(self.c_orig).max(axis=1, initial=0.0)

    def take(self, rows):
        return _Stack([self.sfs[r] for r in rows])


# Per-trial products on stacks. Each is a batched matmul whose slices are
# the very BLAS call (gemv, dot) that the same product of one trial makes,
# so the results match it bit for bit; sum(-1) and einsum reduce in another
# order and would not.


def _mv(mats, vecs):
    """(T, p) products of (T, p, q) matrices and (T, q) vectors."""
    return np.matmul(mats, vecs[..., np.newaxis])[..., 0]


def _vm(vecs, mats):
    """(T, q) products of (T, p) vectors and (T, p, q) matrices."""
    return np.matmul(vecs[:, np.newaxis, :], mats)[:, 0]


def _dot(u, v):
    """(T,) dot products of two (T, n) stacks."""
    return np.matmul(u[:, np.newaxis, :], v[..., np.newaxis])[:, 0, 0]


class _Breakdown(np.linalg.LinAlgError):
    """The Newton step broke down for the trials at these rows of the stack."""

    def __init__(self, rows):
        self.rows = [int(r) for r in rows]
        super().__init__(f"breakdown in stack rows {self.rows}")


def _break_where(mask):
    if mask.any():
        raise _Breakdown(np.flatnonzero(mask))


# the gufuncs that numpy.linalg's cholesky, eigh and eigvalsh call on real
# symmetric stacks, with the signatures those functions pass
_linalg = np.linalg._umath_linalg
_CHOLESKY = (_linalg.cholesky_lo, "d->d")
_EIGH = (_linalg.eigh_lo, "d->dd")
_EIGVALSH = (_linalg.eigvalsh_lo, "d->d")


def _lapack(kernel, stack):
    """A LAPACK kernel (``_CHOLESKY``, ``_EIGH`` or ``_EIGVALSH``) on a (T, ...)
    stack in one call, and the (T,) mask of the trials where it failed.

    This is numpy's private gufunc, the very routine the ``numpy.linalg``
    function calls, as the ``linalg`` module already loads scipy's private
    compiled modules. ``numpy.linalg`` raises for the whole stack when one
    matrix fails; the gufunc instead leaves that matrix's result nan, so the
    failing trials are the rows with a nan, and no trial is run again.
    """
    gufunc, signature = kernel
    with np.errstate(all="ignore"):
        out = gufunc(stack, signature=signature)
    first = out[0] if isinstance(out, tuple) else out
    return out, np.isnan(first.reshape(len(stack), -1)).any(axis=1)


def _by_trial(kernel, stack):
    """:func:`_lapack`'s result; the trials where it failed break down."""
    out, failed = _lapack(kernel, stack)
    _break_where(failed)
    return out


class _Scaling:
    """Nesterov-Todd scaling points of stacked iterates, one (T, B, d, d)
    stack per group."""

    def __init__(self, lay, u, z):
        self.g = []
        self.lam = []
        for grp in lay.groups:
            lx = _by_trial(_CHOLESKY, grp.smat(u))
            core = _t(lx) @ grp.smat(z) @ lx
            core = 0.5 * (core + _t(core))
            lam_sq, q = _by_trial(_EIGH, core)
            _break_where((lam_sq[..., 0] <= 0.0).any(axis=-1))  # scaling not positive definite
            lam = np.sqrt(lam_sq)
            self.g.append(lx @ (q * (lam ** -0.5)[..., np.newaxis, :]))
            self.lam.append(lam)
        # per group, sqrt(lam_i lam_j): the step to the boundary divides by it
        self.lam_pairs = [np.sqrt(lam[..., :, np.newaxis] * lam[..., np.newaxis, :])
                          for lam in self.lam]
        x_orth = u[:, lay.n_sv:]
        z_orth = z[:, lay.n_sv:]
        _break_where((x_orth <= 0.0).any(axis=1) | (z_orth <= 0.0).any(axis=1))
        with np.errstate(over="ignore"):
            self.w_orth = np.sqrt(x_orth / z_orth)
        _break_where(~np.isfinite(self.w_orth).all(axis=1))  # x / z overflows
        self.lam_orth = np.sqrt(x_orth * z_orth)


def _scaled_rows(st, scal):
    """Rows of A in the scaled space: svec(G' A_i G) per block, w*a on the
    orthant. A block's entries of the rows that are zero on it in every
    trial stay zero, as G' 0 G is, so only its other rows are scaled."""
    lay = st.lay
    atil = np.zeros((len(st.sfs), len(lay.kept), lay.n_total))
    for grp, g, block_mats, block_rows in zip(lay.groups, scal.g, st.block_mats, st.block_rows):
        # one product per block over all trials and its rows: broadcasting the
        # (T, B, d, d) stack against (T, B, m, d, d) runs several times slower
        for j, (cols, mats, rows) in enumerate(zip(grp.cols, block_mats, block_rows)):
            g_blk = g[:, j, np.newaxis]
            prod = np.matmul(_t(g_blk), np.matmul(mats, g_blk))
            atil[:, rows, cols[0]:cols[-1] + 1] = grp.svec(prod)
    atil[:, :, lay.n_sv:] = st.a[:, :, lay.n_sv:] * scal.w_orth[:, np.newaxis, :]
    return atil


def _scale_dual_vec(lay, scal, vec):
    """Apply the scaling to z-space vectors: svec(G' M G) blocks, w*v orthant."""
    out = np.empty_like(vec)
    for grp, g in zip(lay.groups, scal.g):
        out[:, grp.cols] = grp.svec(_t(g) @ grp.smat(vec) @ g)
    out[:, lay.n_sv:] = scal.w_orth * vec[:, lay.n_sv:]
    return out


def _step_to_boundary(lay, scal, dx_scaled, dz_scaled):
    """Per trial, the largest alpha with lambda + alpha*dir staying PSD /
    positive, scaled space, for the x and the z direction: one eigvalsh per
    group for both."""
    dirs = np.stack((dx_scaled, dz_scaled), axis=1)

    def limit(cap, step):
        # per direction, the least cap / -step over its entries with step < 0
        ratio = np.divide(cap, -step, out=np.full(step.shape, np.inf), where=step < 0)
        return ratio.min(axis=-1, initial=np.inf)

    alpha = limit(scal.lam_orth[:, np.newaxis, :], dirs[..., lay.n_sv:])
    for grp, scale in zip(lay.groups, scal.lam_pairs):
        norm = grp.smat(dirs) / scale[:, np.newaxis]
        alpha = np.minimum(alpha, limit(1.0, _by_trial(_EIGVALSH, norm)[..., 0]))
    return alpha.tolist()


def _interior(lay, u, z):
    """Per trial, whether the iterate is strictly inside the cone."""
    inside = ~((u[:, lay.n_sv:] <= 0.0).any(axis=1) | (z[:, lay.n_sv:] <= 0.0).any(axis=1))
    pair = np.stack((u, z), axis=1)
    for grp in lay.groups:
        inside &= ~_lapack(_CHOLESKY, grp.smat(pair))[1]
    return inside


def _project_structured(lay, vec):
    """Average each structured block with its symmetry image, in place."""
    for grp in lay.sym_groups:
        m = grp.smat(vec)
        vec[:, grp.cols] = grp.svec(0.5 * (m + _embedding_image(m)))
    return vec


def _newton_step(st, u, y, z, r_p, r_d, mu):
    """One Mehrotra predictor-corrector step from stacked interior iterates.

    ``mu`` holds each trial's complementarity. Returns the next iterates and
    each trial's step lengths (u, y, z, alpha_x, alpha_z). Raises _Breakdown
    for the trials whose scaling point, Schur complement or fallback step
    back into the cone breaks down.
    """
    lay = st.lay
    mk = len(lay.kept)
    scal = _Scaling(lay, u, z)
    atil = _scaled_rows(st, scal)
    schur = atil @ _t(atil)
    _break_where(~np.isfinite(schur).all(axis=(1, 2)))
    # LAPACK's potrf and potrs, as scipy's cho_factor and cho_solve call them,
    # without those wrappers' checks, which cost several solves at this size
    factors, failed = [], []
    for r, s in enumerate(schur):
        reg = 1e-14 * (1.0 + np.trace(s) / mk)
        for _ in range(4):
            factor, info = dpotrf(s + reg * np.eye(mk), lower=True, clean=False)
            if info == 0:
                factors.append(factor)
                break
            reg *= 1e3
        else:
            failed.append(r)  # regularized Schur complement is not positive definite
    if failed:
        raise _Breakdown(failed)

    rd_scaled = _scale_dual_vec(lay, scal, r_d)

    def direction(d_target):
        rhs = r_p - _mv(atil, d_target - rd_scaled)
        dy = np.empty_like(rhs)
        for r, (factor, s, b) in enumerate(zip(factors, schur, rhs)):
            d = dpotrs(factor, b, lower=True)[0]
            tol = 1e-15 * max(1.0, np.abs(b).max())
            for _ in range(4):  # refinement against the unregularized system
                resid = b - s @ d
                if np.abs(resid).max() <= tol:
                    break
                d = d + dpotrs(factor, resid, lower=True)[0]
            dy[r] = d
        dz = r_d - _mv(st.a_t, dy)
        dz_scaled = _scale_dual_vec(lay, scal, dz)
        dx_scaled = d_target - dz_scaled
        dx = np.empty_like(dx_scaled)
        for grp, g in zip(lay.groups, scal.g):
            dx[:, grp.cols] = grp.svec(g @ grp.smat(dx_scaled) @ _t(g))
        dx[:, lay.n_sv:] = scal.w_orth * dx_scaled[:, lay.n_sv:]
        return dx, dy, dz, dx_scaled, dz_scaled

    # predictor: drive complementarity to zero
    d_aff = np.zeros_like(u)
    for grp, lam in zip(lay.groups, scal.lam):
        d_aff[:, grp.diag] = -lam
    d_aff[:, lay.n_sv:] = -scal.lam_orth
    dx_a, dy_a, dz_a, dxs_a, dzs_a = direction(d_aff)
    alpha = np.array([[min(1.0, a) for a in pair]
                      for pair in _step_to_boundary(lay, scal, dxs_a, dzs_a)])
    mu_aff = (_dot(u + alpha[:, :1] * dx_a, z + alpha[:, 1:] * dz_a) / lay.cone_degree).tolist()
    sigma_mu = np.array([min(1.0, max(1e-10, (max(m_aff, 0.0) / m) ** 3)) * m
                         for m_aff, m in zip(mu_aff, mu.tolist())])

    # corrector: recentre and take out the second-order term
    d_comb = np.empty_like(u)
    for grp, lam in zip(lay.groups, scal.lam):
        u_mat = grp.smat(dxs_a)
        v_mat = grp.smat(dzs_a)
        cross = 0.5 * (u_mat @ v_mat + v_mat @ u_mat)
        target = sigma_mu[:, np.newaxis, np.newaxis, np.newaxis] * np.eye(grp.d)
        r_mat = target - _diag(lam ** 2) - cross
        d_mat = 2.0 * r_mat / (lam[..., :, np.newaxis] + lam[..., np.newaxis, :])
        d_comb[:, grp.cols] = grp.svec(d_mat)
    lam_o = scal.lam_orth
    d_comb[:, lay.n_sv:] = (sigma_mu[:, np.newaxis] - lam_o ** 2
                            - dxs_a[:, lay.n_sv:] * dzs_a[:, lay.n_sv:]) / lam_o

    dx, dy, dz, dxs, dzs = direction(d_comb)
    alpha = np.array([[min(1.0, _FTB * a) for a in pair]
                      for pair in _step_to_boundary(lay, scal, dxs, dzs)])

    # fallback halving keeps each trial's iterate strictly interior
    u_new = u + alpha[:, :1] * dx
    z_new = z + alpha[:, 1:] * dz
    todo = np.flatnonzero(~_interior(lay, u_new, z_new))
    for _ in range(_MAX_HALVINGS - 1):
        if not todo.size:
            break
        alpha[todo] *= 0.5
        u_new[todo] = u[todo] + alpha[todo, :1] * dx[todo]
        z_new[todo] = z[todo] + alpha[todo, 1:] * dz[todo]
        todo = todo[~_interior(lay, u_new[todo], z_new[todo])]
    if todo.size:
        raise _Breakdown(todo)  # no step keeps the iterate inside the cone
    return (_project_structured(lay, u_new), y + alpha[:, 1:] * dy,
            _project_structured(lay, z_new), alpha[:, 0].tolist(), alpha[:, 1].tolist())


def _farkas_rays(st, y, aty):
    """Per trial, whether multipliers y prove the scaled rows A u = b, u in K
    infeasible; ``aty`` holds A'y.

    A Farkas ray has b'y > 0 and -A'y in the cone (y >= 0 on the slack
    columns). b'y, each orthant entry of A'y and each PSD block's
    lambda_max of A'y are divided by the magnitude of the terms they sum
    (sum |y_i| ||A_i||_2 on a block); these ratios do not change under the
    equilibration, so the verdict holds for the original rows. The PSD
    blocks are tested only on the trials that passed the tests before.
    """
    lay = st.lay
    abs_y = np.abs(y)
    ray = _dot(st.b, y) > _RAY_TOL * _dot(np.abs(st.b), abs_y)
    if not ray.any():
        return ray
    orth = aty[:, lay.n_sv:] > _RAY_TOL * _vm(abs_y, np.abs(st.a[:, :, lay.n_sv:]))
    ray &= ~orth.any(axis=1)
    for k, grp in enumerate(lay.groups):
        rows = np.flatnonzero(ray)
        if not rows.size:
            break
        lam, failed = _lapack(_EIGVALSH, grp.smat(aty[rows]))
        if failed.any():
            raise _Breakdown(rows[failed])
        lam_max = lam[..., -1]
        norms = np.stack([st.sfs[r].row_norms[k] for r in rows])
        ray[rows] = ~(lam_max > _RAY_TOL * _mv(norms, abs_y[rows])).any(axis=1)
    return ray


def _original_residuals(st, x_orig, y_kept, z_orig):
    """Per trial, normalized primal violation and dual residual against
    original data; ``y_kept`` holds the multipliers of the kept rows."""
    # stored rows are diag(row_scale) A_orig diag(col_scale)
    a_x = st.a[:, :, : st.lay.n_x]
    ax = _mv(a_x, x_orig / st.col_scale) / st.row_scale
    viol = np.maximum(0.0, st.b_orig - ax)
    relp = viol.max(axis=1, initial=0.0) / st.b_orig_norm
    aty = _vm(y_kept / st.row_scale, a_x) / st.col_scale
    r_d = st.c_orig - aty - z_orig
    reld = np.abs(r_d).max(axis=1, initial=0.0) / st.c_orig_norm
    return relp.tolist(), reld.tolist()


# ---------------------------------------------------------------------------
# the solve


def solve(problem):
    """Solve one conic problem: :func:`solve_many` on a list of one."""
    return solve_many([problem])[0]


def solve_many(problems):
    """Solve conic problems to optimality or produce infeasibility verdicts.

    Every ``primal_infeasible`` verdict carries a Farkas ray in
    ``multipliers`` and its dual slack -A'y in ``psd_duals`` and
    ``orthant_dual``: a dual iterate that passes ``_farkas_rays``, or the
    unit multiplier of an all-zero row with a positive constant. A solve
    whose best iterate meets the relaxed optimality test but has not
    improved for ``_FLOOR_ITERS`` iterations is at its precision floor: it
    ends there, reporting that iterate as ``optimal``. A solve that stops
    before any test decides ends in ``max_iters`` or ``numerical_failure``,
    unless its best iterate meets the relaxed test. ``exit`` names which of
    these ended the solve. Every objective lies in the dual cone, as a
    ``ConicProblem`` checks when it is built, so no program is unbounded.
    The stop rule's tolerances and the iteration cap are the module
    constants ``_REL_TOL``, ``_ABS_TOL`` and ``_MAX_ITERS``.

    Problems are grouped by standard-form layout, and each group runs
    through one lockstep loop; reports come back in input order, each bit
    for bit what a solve of its problem alone returns. ``solve_time`` is
    the problem's own presolve and report time plus its share of the wall
    time of each lockstep iteration it took part in.
    """
    reports = [None] * len(problems)
    layouts = {}
    for i, problem in enumerate(problems):
        tick = time.perf_counter()
        sf = _StandardForm(problem)
        rep = _presolved_report(sf)
        if rep is not None:
            reports[i] = replace(rep, solve_time=time.perf_counter() - tick)
        else:
            layouts.setdefault(sf.layout, []).append((i, sf, time.perf_counter() - tick))
    for group in layouts.values():
        index, sfs, clocks = zip(*group)
        for i, rep in zip(index, _Lockstep(list(sfs)).run(list(clocks))):
            reports[i] = rep
    return reports


def ray_report(problem, y):
    """The ``primal_infeasible`` report of a problem whose infeasibility the
    multipliers ``y`` (one per constraint, in the >= orientation of a
    report's ``multipliers``) prove, else None.

    The ray is checked, not trusted: it must pass the very test
    ``_farkas_rays`` that accepts the IPM's own rays, on the sub-program of
    the rows where y is nonzero. A ray of some of the rows proves the whole
    program infeasible, and the test's verdict does not depend on the
    equilibration, which differs between the two programs. The report
    carries y in ``multipliers`` (0 off those rows and on rows presolve
    drops) and -A'y in ``psd_duals`` and ``orthant_dual``, with 0
    iterations; ``solve_time`` is this call's own time.
    """
    tick = time.perf_counter()
    y = np.asarray(y, dtype=float)
    support = np.flatnonzero(y)
    sf = _StandardForm(problem, support)
    rows = support[sf.kept]
    y_kept = y[rows] / (sf.row_scale * sf.obj_scale)
    aty = sf.a_full.T @ y_kept
    if not _farkas_rays(_Stack([sf]), y_kept[np.newaxis], aty[np.newaxis])[0]:
        return None
    rep = _report(sf, "primal_infeasible", "closed_form_ray", np.zeros(sf.n_total), y_kept, -aty,
                  0, [])
    multipliers = np.zeros(len(y))
    multipliers[rows] = rep.multipliers[sf.kept]
    return replace(rep, multipliers=multipliers, solve_time=time.perf_counter() - tick)


def _presolved_report(sf):
    """The report of a program that presolve decides, else None."""
    if sf.infeasible_rows.size:
        # 0 >= b_i > 0: the unit multiplier on that row is a ray, as -A'e_i = 0
        zeros = np.zeros(sf.n_total)
        rep = _report(sf, "primal_infeasible", "presolve", zeros, np.zeros(len(sf.kept)), zeros,
                      0, [])
        rep.multipliers[sf.infeasible_rows[0]] = 1.0
        return rep
    if len(sf.kept) == 0:
        # unconstrained over the cone, whose dual cone holds the objective: optimum 0
        return _report(sf, "optimal", "presolve", np.zeros(sf.n_total), np.zeros(0),
                       sf.c_full.copy(), 0, [])
    return None


class _Lockstep:
    """The main loop for programs of one layout, run in lockstep.

    Row r of the stacks holds the iterate of trial ``trials[r]``. A trial
    that exits leaves the stacks with the status, iterate and iteration
    count that a solve of it alone ends with.
    """

    def __init__(self, sfs):
        self.sfs = sfs
        self.lay = lay = sfs[0]
        self.st = _Stack(sfs)
        n_trials = len(sfs)
        self.trials = list(range(n_trials))
        self.exits = [None] * n_trials  # (status, u, y, z, iterations)
        self.logs = [[] for _ in sfs]
        # (merit, iteration, u, y, z, meets_relaxed_criteria)
        self.best = [None] * n_trials
        self.stall = [0] * n_trials
        self.it = 0

        # interior start: identity-like point
        start = np.zeros(lay.n_total)
        for grp in lay.groups:
            start[grp.diag] = 1.0
        start[lay.n_sv:] = 1.0
        scale0 = np.maximum(1.0, np.maximum(np.abs(self.st.b).max(axis=1),
                                            np.abs(self.st.c).max(axis=1)))
        self.u = start * scale0[:, np.newaxis]
        self.z = self.u.copy()
        self.y = np.zeros((n_trials, len(lay.kept)))
        self.resid = ()                 # this iteration's (r_p, r_d, mu) of each row

    def run(self, clocks):
        """Iterate until every trial exits; one report per trial. ``clocks``
        holds the seconds already spent on each trial."""
        while self.trials and self.it < _MAX_ITERS:
            self.it += 1
            tick = time.perf_counter()
            charged = list(self.trials)
            finite = (np.isfinite(self.u).all(axis=1) & np.isfinite(self.y).all(axis=1)
                      & np.isfinite(self.z).all(axis=1))
            self.leave({r: "numerical_failure" for r in np.flatnonzero(~finite)})
            if self.trials:
                self.test_exits()
            if self.trials:
                self.step()
            share = (time.perf_counter() - tick) / len(charged)
            for t in charged:
                clocks[t] += share
        self.leave({r: "max_iters" for r in range(len(self.trials))})

        reports = []
        for t, (status, u, y, z, iters) in enumerate(self.exits):
            tick = time.perf_counter()
            exit = {"optimal": "strict", "primal_infeasible": "ray"}.get(status, "failure")
            if status in ("floor", "max_iters", "numerical_failure") and self.best[t] is not None:
                # fall back to the best iterate seen; accept it when it already meets
                # the feasibility tolerances and a mildly relaxed gap
                _, _, u, y, z, relaxed = self.best[t]
                if relaxed:
                    exit = "floor" if status == "floor" else "breakdown"
                    status = "optimal"
            rep = _report(self.sfs[t], status, exit, u, y, z, iters, self.logs[t])
            reports.append(replace(rep, solve_time=clocks[t] + time.perf_counter() - tick))
        return reports

    def leave(self, ends):
        """End the trials at the rows of ``ends`` at this iteration. Each
        value is a status, or (status, z) for a verdict whose dual slack is
        not the iterate's."""
        if not ends:
            return
        for r, end in ends.items():
            status, z = end if isinstance(end, tuple) else (end, self.z[r].copy())
            u, y = self.u[r].copy(), self.y[r].copy()
            self.exits[self.trials[r]] = (status, u, y, z, self.it)
        keep = [r for r in range(len(self.trials)) if r not in ends]
        self.trials = [self.trials[r] for r in keep]
        self.st = self.st.take(keep) if keep else None
        self.u, self.y, self.z = self.u[keep], self.y[keep], self.z[keep]
        self.resid = tuple(a[keep] for a in self.resid)

    def test_exits(self):
        """The residuals, best iterates and the log of this iteration; end the
        trials that reach the optimum, whose relaxed best iterate has not
        improved for ``_FLOOR_ITERS`` iterations, or that carry a Farkas ray."""
        st, lay = self.st, self.lay
        u, y, z = self.u, self.y, self.z
        aty = _mv(st.a_t, y)
        r_p = st.b - _mv(st.a, u)
        r_d = st.c - aty - z
        mu = _dot(u, z) / lay.cone_degree
        self.resid = (r_p, r_d, mu)
        pobj_s = _dot(st.c, u).tolist()
        dobj_s = _dot(st.b, y).tolist()

        # original-space residuals and objectives
        x_orig, y_kept, z_orig = _unscale(st, u, y, z)
        pobj = _dot(st.c_orig, x_orig).tolist()
        dobj = _dot(st.b_orig, y_kept).tolist()
        relp_o, reld_o = _original_residuals(st, x_orig, y_kept, z_orig)
        relp_s = (np.abs(r_p).max(axis=1, initial=0.0) / st.norm_b).tolist()
        reld_s = (np.abs(r_d).max(axis=1, initial=0.0) / st.norm_c).tolist()

        ends, rows = {}, []
        for r, (t, mu_r) in enumerate(zip(self.trials, mu.tolist())):
            relp = max(relp_s[r], relp_o[r])
            reld = max(reld_s[r], reld_o[r])
            gap_abs = abs(pobj[r] - dobj[r])
            # gap and complementarity are tested in scaled space, where the
            # equilibration makes optimal values O(1) and the test truly relative
            obj_scale_s = max(abs(pobj_s[r]), abs(dobj_s[r]), 1e-300)
            relgap_s = abs(pobj_s[r] - dobj_s[r]) / max(obj_scale_s, _ABS_TOL / _REL_TOL)
            mu_rel = mu_r / max(obj_scale_s, _ABS_TOL / _REL_TOL)
            mu_target = _REL_TOL * _MU_FACTOR
            gap_ok = relgap_s <= _REL_TOL
            mu_ok = mu_rel <= mu_target

            merit = max(relp, reld, relgap_s, mu_rel * _REL_TOL / mu_target)
            if self.best[t] is None or merit < self.best[t][0]:
                # the duality-gap floor is dominated by ||y||*||r_p|| rounding, a
                # pessimistic bound on objective accuracy; a stalled iterate that
                # is feasible and deeply complementary is still accepted
                relaxed = (
                    relp <= _REL_TOL and reld <= _REL_TOL
                    and relgap_s <= 500 * _REL_TOL and mu_rel <= 50 * mu_target
                )
                self.best[t] = (merit, self.it, u[r].copy(), y[r].copy(), z[r].copy(), relaxed)

            self.logs[t].append({
                "iteration": self.it - 1, "primal_obj": pobj[r], "dual_obj": dobj[r],
                "gap": gap_abs, "mu": mu_r, "primal_res": relp, "dual_res": reld,
                "alpha_p": 0.0, "alpha_d": 0.0,
            })

            if relp <= _REL_TOL and reld <= _REL_TOL and gap_ok and mu_ok:
                ends[r] = "optimal"
            elif self.best[t][-1] and self.it - self.best[t][1] >= _FLOOR_ITERS:
                ends[r] = "floor"  # run() reports the best iterate
            else:
                rows.append(r)

        # Farkas rays from the diverging dual iterates
        rays = []
        while rows:
            try:
                sub = st.take(rows) if len(rows) < len(u) else st
                rays = _farkas_rays(sub, y[rows], aty[rows])
                break
            except _Breakdown as exc:
                ends.update((rows[k], "numerical_failure") for k in exc.rows)
                rows = [r for r in rows if r not in ends]
        for r, ray in zip(rows, rays):
            if ray:
                ends[r] = ("primal_infeasible", -st.sfs[r].a_full.T @ y[r])
        self.leave(ends)

    def step(self):
        """The Newton step of every trial left; trials whose step breaks down
        or stalls end in numerical_failure."""
        while self.trials:
            try:
                step = _newton_step(self.st, self.u, self.y, self.z, *self.resid)
                break
            except _Breakdown as exc:
                self.leave({r: "numerical_failure" for r in exc.rows})
        if not self.trials:
            return
        self.u, self.y, self.z, alpha_x, alpha_z = step
        ends = {}
        for r, t in enumerate(self.trials):
            log = self.logs[t][-1]
            log["alpha_p"] = alpha_x[r]
            log["alpha_d"] = alpha_z[r]
            logger.debug("iter %3d  pobj % .9e  dobj % .9e  gap %.3e  mu %.3e  step %.3f/%.3f",
                         self.it, log["primal_obj"], log["dual_obj"], log["gap"], log["mu"],
                         alpha_x[r], alpha_z[r])
            self.stall[t] = self.stall[t] + 1 if max(alpha_x[r], alpha_z[r]) < 1e-4 else 0
            if self.stall[t] >= 4:
                ends[r] = "numerical_failure"  # step lengths stalled
        self.leave(ends)


def _report(sf, status, exit, u, y, z, iters, log):
    """The report of one trial's exit iterate, in the original data's units."""
    x_orig, y_kept, z_orig = _unscale(sf, u, y, z)
    y_orig = np.zeros(sf.m)
    y_orig[sf.kept] = y_kept
    psd_vals = sf.psd_mats(x_orig)
    psd_duals = sf.psd_mats(z_orig)
    orth_vals = sf.orth_slice(x_orig) if sf.n_orth_vars else np.zeros(0)
    orth_dual = sf.orth_slice(z_orig) if sf.n_orth_vars else np.zeros(0)
    return SolverReport(
        status=status,
        exit=exit,
        primal=BlockValues(psd=psd_vals, orthant=orth_vals),
        multipliers=y_orig,
        psd_duals=psd_duals,
        orthant_dual=orth_dual,
        primal_obj=float(sf.c_orig @ x_orig),
        dual_obj=float(sf.b_orig @ y_kept),  # b'y in the all->= orientation
        iterations=iters,
        iter_log=tuple(log),
    )
