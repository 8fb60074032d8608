"""Primal-dual interior-point solver for PSD-cone x orthant conic programs.

Inequalities get orthant slack variables so the cone is exactly a product
of real PSD blocks and a nonnegative orthant; the iteration is an
infeasible-start path-following method with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step. Presolve drops empty rows, equilibrates
block columns, and normalizes every constraint row to unit infinity-norm;
all reported quantities are unscaled back to the original data.

The PSD blocks are stacked by size: each group of same-size blocks is one
(B, d, d) array, gathered from and scattered to the svec vector through
precomputed index maps, so every kernel of an iteration (scaling point,
scaled vectors, direction, targets, step to the boundary, interior check)
is one batched numpy/LAPACK call per group rather than one per block.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .problem import BlockValues, ConicProblem, LinearConstraint

logger = logging.getLogger(__name__)

_FTB = 0.99          # fraction-to-boundary step factor
_MAX_HALVINGS = 12   # step fallback on factorization failure


@dataclass(frozen=True)
class SolverOptions:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-7
    max_iters: int = 200
    infeasibility_threshold: float = 1e-8
    mu_tol_factor: float = 1.0     # extra tightening of final complementarity

    def __post_init__(self):
        if min(self.abs_tol, self.rel_tol, self.infeasibility_threshold) <= 0:
            raise ValueError("tolerances must be positive")
        if self.mu_tol_factor <= 0:
            raise ValueError("mu_tol_factor must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class Residuals:
    primal: float
    dual: float
    gap: float


@dataclass(frozen=True)
class SolverReport:
    status: str                  # optimal | primal_infeasible | dual_infeasible | max_iters | numerical_failure
    primal: BlockValues
    multipliers: np.ndarray      # one nonnegative multiplier per inequality
    psd_duals: tuple             # one real symmetric dual block per PSD variable
    orthant_dual: np.ndarray
    primal_obj: float
    dual_obj: float
    residuals: Residuals
    iterations: int              # main-loop iterations
    phase1_iterations: int = 0   # iterations of the phase-1 solve, 0 when it did not run
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
    """Per matrix of a (..., 2n, 2n) stack: equal to its quarter-turn image
    within 1e-12 of its largest entry (at least 1), compared quadrant by
    quadrant in one quarter-size buffer."""
    n = mats.shape[-1] // 2
    ax = (-2, -1)
    peak = np.maximum(mats.max(axis=ax), -mats.min(axis=ax))
    buf = np.subtract(mats[..., :n, :n], mats[..., n:, n:])
    off = np.abs(buf, out=buf).max(axis=ax)
    np.add(mats[..., :n, n:], mats[..., n:, :n], out=buf)
    off = np.maximum(off, np.abs(buf, out=buf).max(axis=ax))
    return off <= 1e-12 * np.maximum(1.0, peak)


class _BlockGroup:
    """The PSD blocks of one size d, as index maps into svec vectors.

    ``cols[j]`` holds the svec positions of block ``blocks[j]`` (upper
    triangle row by row, off-diagonal entries times sqrt 2), ``pos[j]`` the
    position of every entry of its d x d matrix and ``diag[j]`` those of its
    diagonal, so svec and smat of all B blocks are one gather each.
    """

    def __init__(self, d, blocks, block_starts):
        self.d = d
        self.blocks = np.asarray(blocks, dtype=int)
        self.iu = np.triu_indices(d)
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
        return vec[..., self.pos] / self.w_mat

    def svec(self, mats):
        """(..., B, L) svec entries of (..., B, d, d) symmetric blocks."""
        return mats[..., self.iu[0], self.iu[1]] * self.w

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

    def __init__(self, problem):
        problem.validate()
        m = len(problem.constraints)
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
        self.sense_sign = np.array([1.0 if c.sense == ">=" else -1.0 for c in problem.constraints])
        a = np.zeros((m, self.n_x))
        b = np.empty(m)
        for i, con in enumerate(problem.constraints):
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
        self.zero_row_infeasible = bool(np.any(b[dropped] > 0.0))
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
        self.c_full = np.concatenate([c_scaled, np.zeros(mk)])
        self.c_orig = c
        self.n_total = self.n_x + mk
        self.n_orth_total = self.n_orth_vars + mk
        self.cone_degree = sum(self.psd_dims) + self.n_orth_total
        # per group, the (B, mk, d, d) constraint matrices of the scaled system
        self.a_mats = [grp.row_mats(self.a_full) for grp in self.groups]
        # blocks whose data all commutes with the complex-embedding symmetry
        # J M J' (J the quarter-turn) can have their iterates projected onto
        # that invariant subspace, which keeps Hermitian recovery exact
        self.sym_groups = []
        for grp, cmats, mats in zip(self.groups, objectives, self.a_mats):
            ok = _embedding_symmetric(cmats) & _embedding_symmetric(mats).all(axis=1)
            if ok.any():
                self.sym_groups.append(_BlockGroup(grp.d, grp.blocks[ok], self.block_starts))

    def project_structured(self, vec):
        """Average each structured block with its symmetry image, in place."""
        for grp in self.sym_groups:
            m = grp.smat(vec)
            vec[grp.cols] = grp.svec(0.5 * (m + _embedding_image(m)))
        return vec

    # -- views ---------------------------------------------------------------

    def psd_mats(self, vec):
        """The symmetric matrix of every PSD block of an svec vector, in block order."""
        stacks = [grp.smat(vec) for grp in self.groups]
        return tuple(stacks[k][j] for k, j in self.block_at)

    def orth_slice(self, vec):
        return vec[self.n_sv:]

    def unscale_primal(self, u):
        return u[: self.n_x] * self.col_scale * self.b_scale

    def unscale_dual(self, y, z):
        y_orig = np.zeros(self.m)
        y_orig[self.kept] = y * self.row_scale * self.obj_scale
        z_orig = z[: self.n_x] / self.col_scale * self.obj_scale
        return y_orig, z_orig


class _Scaling:
    """Nesterov-Todd scaling point for one iterate, one (B, d, d) stack per group."""

    def __init__(self, sf, u, z):
        self.g = []
        self.lam = []
        for grp in sf.groups:
            lx = np.linalg.cholesky(grp.smat(u))
            core = _t(lx) @ grp.smat(z) @ lx
            core = 0.5 * (core + _t(core))
            lam_sq, q = np.linalg.eigh(core)
            if np.any(lam_sq[:, 0] <= 0.0):
                raise np.linalg.LinAlgError("scaling matrix not positive definite")
            lam = np.sqrt(lam_sq)
            self.g.append(lx @ (q * (lam ** -0.5)[:, np.newaxis, :]))
            self.lam.append(lam)
        x_orth = u[sf.n_sv:]
        z_orth = z[sf.n_sv:]
        if np.any(x_orth <= 0.0) or np.any(z_orth <= 0.0):
            raise np.linalg.LinAlgError("orthant iterate left the interior")
        self.w_orth = np.sqrt(x_orth / z_orth)
        self.lam_orth = np.sqrt(x_orth * z_orth)


def _scaled_rows(sf, scal):
    """Rows of A in the scaled space: svec(G' A_i G) per block, w*a on the orthant."""
    atil = np.empty((len(sf.kept), sf.n_total))
    for grp, a_mats, g in zip(sf.groups, sf.a_mats, scal.g):
        # one product per block over all rows: broadcasting the (B, d, d)
        # stack against (B, m, d, d) would leave numpy's BLAS path
        for cols, a_blk, g_blk in zip(grp.cols, a_mats, g):
            atil[:, cols] = grp.svec(np.matmul(g_blk.T, np.matmul(a_blk, g_blk)))
    atil[:, sf.n_sv:] = sf.a_full[:, sf.n_sv:] * scal.w_orth[np.newaxis, :]
    return atil


def _scale_dual_vec(sf, scal, vec):
    """Apply the scaling to a z-space vector: svec(G' M G) blocks, w*v orthant."""
    out = np.empty_like(vec)
    for grp, g in zip(sf.groups, scal.g):
        out[grp.cols] = grp.svec(_t(g) @ grp.smat(vec) @ g)
    out[sf.n_sv:] = scal.w_orth * vec[sf.n_sv:]
    return out


def _step_to_boundary(sf, scal, scaled_dir):
    """Largest alpha with lambda + alpha*dir staying PSD / positive, scaled space."""
    alpha = np.inf
    for grp, lam in zip(sf.groups, scal.lam):
        norm = grp.smat(scaled_dir) / np.sqrt(lam[:, :, np.newaxis] * lam[:, np.newaxis, :])
        lo = np.linalg.eigvalsh(norm)[:, 0]
        if np.any(lo < 0):
            alpha = min(alpha, float(np.min(1.0 / -lo[lo < 0])))
    dir_orth = scaled_dir[sf.n_sv:]
    lam_orth = scal.lam_orth
    neg = dir_orth < 0
    if np.any(neg):
        alpha = min(alpha, float(np.min(lam_orth[neg] / -dir_orth[neg])))
    return alpha


def _interior(sf, u, z):
    """Strict cone interior check for a trial iterate."""
    if np.any(u[sf.n_sv:] <= 0.0) or np.any(z[sf.n_sv:] <= 0.0):
        return False
    pair = np.stack((u, z))
    try:
        for grp in sf.groups:
            np.linalg.cholesky(grp.smat(pair))
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_step(sf, u, y, z, r_p, r_d, mu):
    """One Mehrotra predictor-corrector step from an interior iterate.

    Returns the next iterate and its step lengths (u, y, z, alpha_x,
    alpha_z). Raises numpy.linalg.LinAlgError when the scaling point, the
    Schur complement or the fallback step back into the cone breaks down.
    """
    a = sf.a_full
    mk = len(sf.kept)
    scal = _Scaling(sf, u, z)
    atil = _scaled_rows(sf, scal)
    schur = atil @ atil.T
    if not np.all(np.isfinite(schur)):
        raise np.linalg.LinAlgError("Schur complement is not finite")
    reg = 1e-14 * (1.0 + np.trace(schur) / mk)
    for _ in range(4):
        try:
            factor = cho_factor(schur + reg * np.eye(mk), lower=True)
            break
        except (np.linalg.LinAlgError, ValueError):
            reg *= 1e3
    else:
        raise np.linalg.LinAlgError("regularized Schur complement is not positive definite")

    rd_scaled = _scale_dual_vec(sf, scal, r_d)

    def direction(d_target):
        rhs = r_p - atil @ (d_target - rd_scaled)
        # the Schur matrix was checked finite and every iterate is checked
        dy = cho_solve(factor, rhs, check_finite=False)
        for _ in range(4):  # refinement against the unregularized system
            resid = rhs - schur @ dy
            if np.abs(resid).max() <= 1e-15 * max(1.0, np.abs(rhs).max()):
                break
            dy = dy + cho_solve(factor, resid, check_finite=False)
        dz = r_d - a.T @ dy
        dz_scaled = _scale_dual_vec(sf, scal, dz)
        dx_scaled = d_target - dz_scaled
        dx = np.empty(sf.n_total)
        for grp, g in zip(sf.groups, scal.g):
            dx[grp.cols] = grp.svec(g @ grp.smat(dx_scaled) @ _t(g))
        dx[sf.n_sv:] = scal.w_orth * dx_scaled[sf.n_sv:]
        return dx, dy, dz, dx_scaled, dz_scaled

    # predictor: drive complementarity to zero
    d_aff = np.zeros(sf.n_total)
    for grp, lam in zip(sf.groups, scal.lam):
        d_aff[grp.diag] = -lam
    d_aff[sf.n_sv:] = -scal.lam_orth
    dx_a, dy_a, dz_a, dxs_a, dzs_a = direction(d_aff)
    alpha_xa = min(1.0, _step_to_boundary(sf, scal, dxs_a))
    alpha_za = min(1.0, _step_to_boundary(sf, scal, dzs_a))
    mu_aff = float((u + alpha_xa * dx_a) @ (z + alpha_za * dz_a)) / sf.cone_degree
    sigma = min(1.0, max(1e-10, (max(mu_aff, 0.0) / mu) ** 3))

    # corrector: recentre and take out the second-order term
    d_comb = np.empty(sf.n_total)
    for grp, lam in zip(sf.groups, scal.lam):
        u_mat = grp.smat(dxs_a)
        v_mat = grp.smat(dzs_a)
        cross = 0.5 * (u_mat @ v_mat + v_mat @ u_mat)
        r_mat = sigma * mu * np.eye(grp.d) - _diag(lam ** 2) - cross
        d_mat = 2.0 * r_mat / (lam[:, :, np.newaxis] + lam[:, np.newaxis, :])
        d_comb[grp.cols] = grp.svec(d_mat)
    lam_o = scal.lam_orth
    d_comb[sf.n_sv:] = (sigma * mu - lam_o ** 2 - dxs_a[sf.n_sv:] * dzs_a[sf.n_sv:]) / lam_o

    dx, dy, dz, dxs, dzs = direction(d_comb)
    alpha_x = min(1.0, _FTB * _step_to_boundary(sf, scal, dxs))
    alpha_z = min(1.0, _FTB * _step_to_boundary(sf, scal, dzs))

    # fallback halving keeps the trial iterate strictly interior
    for _ in range(_MAX_HALVINGS):
        u_new = u + alpha_x * dx
        z_new = z + alpha_z * dz
        if _interior(sf, u_new, z_new):
            return (sf.project_structured(u_new), y + alpha_z * dy,
                    sf.project_structured(z_new), alpha_x, alpha_z)
        alpha_x *= 0.5
        alpha_z *= 0.5
    raise np.linalg.LinAlgError("no step keeps the iterate inside the cone")


def solve(problem, opts=None, _allow_phase1=True):
    """Solve a conic problem to optimality or produce an infeasibility verdict.

    An IPM ``primal_infeasible`` verdict carries a Farkas ray in
    ``multipliers``: the diverging dual iterate, or the multipliers of the
    phase-1 solve when that decides the verdict.
    """
    t0 = time.perf_counter()
    opts = opts or SolverOptions()
    sf = _StandardForm(problem)

    def report(status, u, y, z, res, iters, log, phase1_iters=0):
        x_orig = sf.unscale_primal(u)
        y_orig, z_orig = sf.unscale_dual(y, z)
        psd_vals = sf.psd_mats(x_orig)
        psd_duals = sf.psd_mats(z_orig)
        orth_vals = sf.orth_slice(x_orig) if sf.n_orth_vars else np.zeros(0)
        orth_dual = sf.orth_slice(z_orig) if sf.n_orth_vars else np.zeros(0)
        pobj = float(sf.c_orig @ x_orig)
        dobj = _dual_objective(sf, y_orig)
        return SolverReport(
            status=status,
            primal=BlockValues(psd=psd_vals, orthant=orth_vals),
            multipliers=y_orig,
            psd_duals=psd_duals,
            orthant_dual=orth_dual,
            primal_obj=pobj,
            dual_obj=dobj,
            residuals=res,
            iterations=iters,
            phase1_iterations=phase1_iters,
            iter_log=tuple(log),
            solve_time=time.perf_counter() - t0,
        )

    if sf.zero_row_infeasible:
        zeros = np.zeros(sf.n_total)
        res = Residuals(primal=np.inf, dual=0.0, gap=np.inf)
        return report("primal_infeasible", zeros, np.zeros(len(sf.kept)), zeros, res, 0, [])

    if len(sf.kept) == 0:
        # unconstrained over the cone: optimum 0 iff the objective is in the dual cone
        u = np.full(sf.n_total, 0.0)
        z = sf.c_full.copy()
        feasible_dual = True
        for grp in sf.groups:
            if np.any(np.linalg.eigvalsh(grp.smat(z))[:, 0] < -opts.abs_tol):
                feasible_dual = False
        if sf.n_orth_vars and np.any(sf.orth_slice(z[: sf.n_x]) < -opts.abs_tol):
            feasible_dual = False
        status = "optimal" if feasible_dual else "dual_infeasible"
        res = Residuals(primal=0.0, dual=0.0, gap=0.0)
        return report(status, u, np.zeros(0), z, res, 0, [])

    mk = len(sf.kept)
    a = sf.a_full
    b = sf.b
    c = sf.c_full

    # interior start: identity-like point
    u = np.zeros(sf.n_total)
    for grp in sf.groups:
        u[grp.diag] = 1.0
    u[sf.n_sv:] = 1.0
    z = u.copy()
    scale0 = max(1.0, float(np.abs(b).max()), float(np.abs(c).max()))
    u *= scale0
    z *= scale0
    y = np.zeros(mk)

    log = []
    status = "max_iters"
    res = Residuals(np.inf, np.inf, np.inf)
    stall = 0
    best = None  # (merit, u, y, z, residuals, meets_relaxed_criteria)
    norm_b = 1.0 + np.abs(b).max(initial=0.0)
    norm_c = 1.0 + np.abs(c).max(initial=0.0)

    it = 0
    try:
        for it in range(1, opts.max_iters + 1):
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
                raise np.linalg.LinAlgError("iterate is not finite")
            r_p = b - a @ u
            r_d = c - a.T @ y - z
            mu = float(u @ z) / sf.cone_degree
            pobj_s = float(c @ u)
            dobj_s = float(b @ y)

            # original-space residuals and objectives
            x_orig = sf.unscale_primal(u)
            y_orig, z_orig = sf.unscale_dual(y, z)
            pobj = float(sf.c_orig @ x_orig)
            dobj = _dual_objective(sf, y_orig)
            relp_o, reld_o = _original_residuals(sf, x_orig, y_orig, z_orig)
            relp = max(float(np.abs(r_p).max(initial=0.0)) / norm_b, relp_o)
            reld = max(float(np.abs(r_d).max(initial=0.0)) / norm_c, reld_o)
            gap_abs = abs(pobj - dobj)
            # gap and complementarity are tested in scaled space, where the
            # equilibration makes optimal values O(1) and the test truly relative
            obj_scale_s = max(abs(pobj_s), abs(dobj_s), 1e-300)
            relgap_s = abs(pobj_s - dobj_s) / max(obj_scale_s, opts.abs_tol / opts.rel_tol)
            mu_rel = mu / max(obj_scale_s, opts.abs_tol / opts.rel_tol)
            mu_target = opts.rel_tol * opts.mu_tol_factor
            gap_ok = relgap_s <= opts.rel_tol
            mu_ok = mu_rel <= mu_target

            merit = max(relp, reld, relgap_s, mu_rel * opts.rel_tol / mu_target)
            if best is None or merit < best[0]:
                # the duality-gap floor is dominated by ||y||*||r_p|| rounding, a
                # pessimistic bound on objective accuracy; a stalled iterate that
                # is feasible and deeply complementary is still accepted
                relaxed = (
                    relp <= opts.rel_tol and reld <= opts.rel_tol
                    and relgap_s <= 500 * opts.rel_tol and mu_rel <= 50 * mu_target
                )
                best = (
                    merit, u.copy(), y.copy(), z.copy(),
                    Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj))),
                    relaxed,
                )

            log.append({
                "iteration": it - 1, "primal_obj": pobj, "dual_obj": dobj, "gap": gap_abs,
                "mu": mu, "primal_res": relp, "dual_res": reld, "alpha_p": 0.0, "alpha_d": 0.0,
            })

            if relp <= opts.rel_tol and reld <= opts.rel_tol and gap_ok and mu_ok:
                status = "optimal"
                res = Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj)))
                break

            # infeasibility certificates from the diverging iterates
            if dobj_s > 0.0:
                ray_res = float(np.abs(a.T @ y + z).max()) / dobj_s
                if ray_res <= opts.infeasibility_threshold * max(1.0, np.abs(c).max()):
                    status = "primal_infeasible"
                    res = Residuals(primal=relp, dual=reld, gap=np.inf)
                    break
            if pobj_s < 0.0:
                ray_res = float(np.abs(a @ u).max()) / -pobj_s
                if ray_res <= opts.infeasibility_threshold * max(1.0, np.abs(b).max()):
                    status = "dual_infeasible"
                    res = Residuals(primal=relp, dual=reld, gap=np.inf)
                    break

            u, y, z, alpha_x, alpha_z = _newton_step(sf, u, y, z, r_p, r_d, mu)
            log[-1]["alpha_p"] = alpha_x
            log[-1]["alpha_d"] = alpha_z
            logger.debug("iter %3d  pobj % .9e  dobj % .9e  gap %.3e  mu %.3e  step %.3f/%.3f",
                         it, pobj, dobj, gap_abs, mu, alpha_x, alpha_z)
            stall = stall + 1 if max(alpha_x, alpha_z) < 1e-4 else 0
            if stall >= 4:
                raise np.linalg.LinAlgError("step lengths stalled")
    except np.linalg.LinAlgError:
        status = "numerical_failure"

    phase1_iters = 0
    if status in ("max_iters", "numerical_failure") and best is not None:
        # fall back to the best iterate seen; accept it when it already meets
        # the feasibility tolerances and a mildly relaxed gap
        _, u, y, z, res, relaxed = best
        if relaxed:
            status = "optimal"
        elif _allow_phase1 and res.primal > opts.rel_tol:
            # unresolved and not primal-feasible: settle feasibility directly
            p1 = _phase1(sf, opts)
            phase1_iters = p1.iterations
            if p1.status == "optimal" and p1.primal_obj > 1e-6:
                # its multipliers are a Farkas ray of the equilibrated rows,
                # and -A'y is that ray's dual slack
                status = "primal_infeasible"
                y = p1.multipliers
                z = -a.T @ y
                res = Residuals(primal=res.primal, dual=res.dual, gap=np.inf)
    return report(status, u, y, z, res, it, log, phase1_iters)


def _phase1(sf, opts):
    """Solve the phase-1 program of the (equilibrated) rows.

    min t s.t. A x + t >= b over the same cone: the optimum is the scaled
    infeasibility measure (zero iff the problem is feasible), and the
    phase-1 program itself is always feasible and bounded. By LP duality
    its multipliers y >= 0 satisfy -A'y in the cone and b'y = t, so with
    t > 0 they prove the rows infeasible.
    """
    mk = len(sf.kept)
    n_orth = sf.n_orth_vars + 1
    # (B, mk) per group: does block j appear in row i
    touches = [np.any(mats != 0.0, axis=(-2, -1)) for mats in sf.a_mats]
    cons = []
    for i in range(mk):
        psd = {blk: sf.a_mats[k][j, i] for blk, (k, j) in enumerate(sf.block_at)
               if touches[k][j, i]}
        orth = np.zeros(n_orth)
        orth[: sf.n_orth_vars] = sf.a_full[i, sf.n_sv: sf.n_x]
        orth[-1] = 1.0
        cons.append(LinearConstraint(
            psd_coeffs=psd, orthant_coeffs=orth, constant=float(sf.b[i]),
            sense=">=", label=f"p1[{i}]",
        ))
    objective = np.zeros(n_orth)
    objective[-1] = 1.0
    phase1 = ConicProblem(
        psd_dims=tuple(sf.psd_dims), orthant_dim=n_orth,
        objective_psd=tuple(np.zeros((d, d)) for d in sf.psd_dims),
        objective_orthant=objective, constraints=tuple(cons),
    )
    p1_opts = SolverOptions(
        abs_tol=max(opts.abs_tol, 1e-9), rel_tol=max(opts.rel_tol, 1e-7),
        max_iters=opts.max_iters, infeasibility_threshold=opts.infeasibility_threshold,
    )
    return solve(phase1, p1_opts, _allow_phase1=False)


def _orig_b(sf):
    # constants of the kept rows in original (unscaled) units, >= orientation
    return sf.b * sf.b_scale / sf.row_scale


def _dual_objective(sf, y_orig):
    """b'y of the original problem in its all->= orientation."""
    return float(_orig_b(sf) @ y_orig[sf.kept])


def _original_residuals(sf, x_orig, y_orig, z_orig):
    """Normalized primal violation and dual residual against original data."""
    # stored rows are diag(row_scale) A_orig diag(col_scale)
    ax = (sf.a_full[:, : sf.n_x] @ (x_orig / sf.col_scale)) / sf.row_scale
    b_orig = _orig_b(sf)
    viol = np.maximum(0.0, b_orig - ax)
    relp = float(viol.max(initial=0.0)) / (1.0 + float(np.abs(b_orig).max(initial=0.0)))
    aty = ((y_orig[sf.kept] / sf.row_scale) @ sf.a_full[:, : sf.n_x]) / sf.col_scale
    r_d = sf.c_orig - aty - z_orig
    reld = float(np.abs(r_d).max(initial=0.0)) / (1.0 + float(np.abs(sf.c_orig).max(initial=0.0)))
    return relp, reld


def kkt_residuals(problem, report):
    """(stationarity, primal feasibility, dual feasibility, complementarity) norms."""
    problem.validate()
    mult = report.multipliers
    signs = np.array([1.0 if con.sense == ">=" else -1.0 for con in problem.constraints])

    # stationarity: C - sum_i sign_i mult_i A_i = Z on every block
    stat = 0.0
    for blk, cmat in enumerate(problem.objective_psd):
        acc = cmat.copy()
        for i, con in enumerate(problem.constraints):
            coeff = con.psd_coeffs.get(blk)
            if coeff is not None:
                acc = acc - signs[i] * mult[i] * coeff
        stat = max(stat, float(np.abs(acc - report.psd_duals[blk]).max()))
    if problem.orthant_dim:
        acc = problem.objective_orthant.copy()
        for i, con in enumerate(problem.constraints):
            acc = acc - signs[i] * mult[i] * con.orthant_coeffs
        stat = max(stat, float(np.abs(acc - report.orthant_dual).max()))

    slacks = problem.slacks(report.primal)
    pfeas = float(np.maximum(0.0, -slacks).max(initial=0.0))
    for mat in report.primal.psd:
        pfeas = max(pfeas, max(0.0, -float(np.linalg.eigvalsh(mat)[0])))
    if problem.orthant_dim:
        pfeas = max(pfeas, max(0.0, -float(report.primal.orthant.min(initial=0.0))))

    dfeas = float(np.maximum(0.0, -mult).max(initial=0.0))
    for mat in report.psd_duals:
        dfeas = max(dfeas, max(0.0, -float(np.linalg.eigvalsh(mat)[0])))
    if problem.orthant_dim:
        dfeas = max(dfeas, max(0.0, -float(report.orthant_dual.min(initial=0.0))))

    comp = float(np.abs(slacks * mult).sum())
    for mat, dual in zip(report.primal.psd, report.psd_duals):
        comp += abs(float(np.sum(mat * dual)))
    if problem.orthant_dim:
        comp += abs(float(report.primal.orthant @ report.orthant_dual))
    return stat, pfeas, dfeas, comp
