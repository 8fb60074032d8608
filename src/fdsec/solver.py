"""Primal-dual interior-point solver for PSD-cone x orthant conic programs.

Inequalities get orthant slack variables so the cone is exactly a product
of real PSD blocks and a nonnegative orthant; the iteration is an
infeasible-start path-following method with Nesterov-Todd scaling and a
Mehrotra predictor-corrector step. Presolve drops empty rows, equilibrates
block columns, and normalizes every constraint row to unit infinity-norm;
all reported quantities are unscaled back to the original data.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .problem import BlockValues

_FTB = 0.99          # fraction-to-boundary step factor
_MAX_HALVINGS = 12   # step fallback on factorization failure


@dataclass(frozen=True)
class SolverOptions:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-7
    max_iters: int = 200
    infeasibility_threshold: float = 1e-8
    mu_tol_factor: float = 1.0     # extra tightening of final complementarity
    log_stream: Optional[object] = None

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
    iterations: int
    iter_log: tuple = field(default=())
    solve_time: float = 0.0


# ---------------------------------------------------------------------------
# svec helpers


def _svec_meta(d):
    iu = np.triu_indices(d)
    w = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return iu, w


def _svec(mat, meta):
    iu, w = meta
    return mat[iu] * w


def _smat(vec, meta, d):
    iu, w = meta
    out = np.zeros((d, d))
    vals = vec / w
    out[iu] = vals
    out[iu[1], iu[0]] = vals
    return out


def _svec_batch(mats, meta):
    iu, w = meta
    return mats[:, iu[0], iu[1]] * w


def _embedding_image(m):
    """Conjugation of a 2n x 2n matrix by the quarter-turn [[0, -I], [I, 0]]."""
    n = m.shape[0] // 2
    out = np.empty_like(m)
    out[:n, :n] = m[n:, n:]
    out[n:, n:] = m[:n, :n]
    out[:n, n:] = -m[n:, :n]
    out[n:, :n] = -m[:n, n:]
    return out


def _is_embedding_symmetric(m):
    if m.shape[0] % 2 != 0:
        return False
    scale = max(1.0, float(np.abs(m).max()))
    return float(np.abs(m - _embedding_image(m)).max()) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# internal standard form


class _StandardForm:
    """min c.u  s.t.  A u = b, u in (PSD blocks) x orthant, plus unscaling data."""

    def __init__(self, problem):
        problem.validate()
        m = len(problem.constraints)
        self.psd_dims = list(problem.psd_dims)
        self.metas = [_svec_meta(d) for d in self.psd_dims]
        self.sv_lens = [d * (d + 1) // 2 for d in self.psd_dims]
        self.block_starts = np.concatenate([[0], np.cumsum(self.sv_lens)]).astype(int)
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
                s = self.block_starts[blk]
                a[i, s:s + self.sv_lens[blk]] = _svec(coeff, self.metas[blk])
            if self.n_orth_vars:
                a[i, n_sv:] = con.orthant_coeffs
            a[i] *= self.sense_sign[i]
            b[i] = self.sense_sign[i] * con.constant
        c = np.zeros(self.n_x)
        for blk, coeff in enumerate(problem.objective_psd):
            s = self.block_starts[blk]
            c[s:s + self.sv_lens[blk]] = _svec(coeff, self.metas[blk])
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
            for blk in range(len(self.psd_dims)):
                s = self.block_starts[blk]
                e = s + self.sv_lens[blk]
                peak = np.abs(a[:, s:e]).max()
                if peak > 0:
                    f = 1.0 / np.sqrt(peak)
                    a[:, s:e] *= f
                    self.col_scale[s:e] *= f
            for jcol in range(n_sv, self.n_x):
                peak = np.abs(a[:, jcol]).max()
                if peak > 0:
                    f = 1.0 / np.sqrt(peak)
                    a[:, jcol] *= f
                    self.col_scale[jcol] *= f
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
        self.b = b
        self.c_full = np.concatenate([c_scaled, np.zeros(mk)])
        self.c_orig = c
        self.n_total = self.n_x + mk
        self.n_orth_total = self.n_orth_vars + mk
        self.cone_degree = sum(self.psd_dims) + self.n_orth_total
        # batched constraint matrices per PSD block, for the scaled system
        self.a_mats = []
        for blk in range(len(self.psd_dims)):
            s = self.block_starts[blk]
            sl = self.a_full[:, s:s + self.sv_lens[blk]]
            d = self.psd_dims[blk]
            mats = np.zeros((mk, d, d))
            iu, w = self.metas[blk]
            vals = sl / w
            mats[:, iu[0], iu[1]] = vals
            mats[:, iu[1], iu[0]] = vals
            self.a_mats.append(mats)
        # blocks whose data all commutes with the complex-embedding symmetry
        # J M J' (J the quarter-turn) can have their iterates projected onto
        # that invariant subspace, which keeps Hermitian recovery exact
        self.structured = []
        for blk, cmat in enumerate(problem.objective_psd):
            ok = _is_embedding_symmetric(cmat) and all(
                _is_embedding_symmetric(self.a_mats[blk][i]) for i in range(mk)
            )
            self.structured.append(ok)

    def project_structured(self, vec):
        """Average each structured block with its symmetry image, in place."""
        for blk, flag in enumerate(self.structured):
            if not flag:
                continue
            d = self.psd_dims[blk]
            s = self.block_starts[blk]
            meta = self.metas[blk]
            m = _smat(vec[s:s + self.sv_lens[blk]], meta, d)
            vec[s:s + self.sv_lens[blk]] = _svec(0.5 * (m + _embedding_image(m)), meta)
        return vec

    # -- views ---------------------------------------------------------------

    def psd_slices(self, vec):
        out = []
        for blk in range(len(self.psd_dims)):
            s = self.block_starts[blk]
            out.append(vec[s:s + self.sv_lens[blk]])
        return out

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
    """Nesterov-Todd scaling point for one iterate."""

    def __init__(self, sf, u, z):
        self.g = []
        self.lam = []
        for blk, meta in enumerate(sf.metas):
            d = sf.psd_dims[blk]
            s = sf.block_starts[blk]
            x_mat = _smat(u[s:s + sf.sv_lens[blk]], meta, d)
            z_mat = _smat(z[s:s + sf.sv_lens[blk]], meta, d)
            lx = np.linalg.cholesky(x_mat)
            core = lx.T @ z_mat @ lx
            core = 0.5 * (core + core.T)
            lam_sq, q = np.linalg.eigh(core)
            if lam_sq[0] <= 0.0:
                raise np.linalg.LinAlgError("scaling matrix not positive definite")
            lam = np.sqrt(lam_sq)
            g = lx @ (q * lam ** -0.5)
            self.g.append(g)
            self.lam.append(lam)
        x_orth = u[sf.n_sv:]
        z_orth = z[sf.n_sv:]
        if np.any(x_orth <= 0.0) or np.any(z_orth <= 0.0):
            raise np.linalg.LinAlgError("orthant iterate left the interior")
        self.w_orth = np.sqrt(x_orth / z_orth)
        self.lam_orth = np.sqrt(x_orth * z_orth)


def _scaled_rows(sf, scal):
    """Rows of A in the scaled space: svec(G' A_i G) per block, w*a on the orthant."""
    parts = []
    for blk, meta in enumerate(sf.metas):
        g = scal.g[blk]
        t = np.matmul(g.T, np.matmul(sf.a_mats[blk], g))
        parts.append(_svec_batch(t, meta))
    orth = sf.a_full[:, sf.n_sv:] * scal.w_orth[np.newaxis, :]
    parts.append(orth)
    return np.hstack(parts)


def _scale_dual_vec(sf, scal, vec):
    """Apply the scaling to a z-space vector: svec(G' M G) blocks, w*v orthant."""
    out = np.empty_like(vec)
    for blk, meta in enumerate(sf.metas):
        d = sf.psd_dims[blk]
        s = sf.block_starts[blk]
        g = scal.g[blk]
        m = _smat(vec[s:s + sf.sv_lens[blk]], meta, d)
        out[s:s + sf.sv_lens[blk]] = _svec(g.T @ m @ g, meta)
    out[sf.n_sv:] = scal.w_orth * vec[sf.n_sv:]
    return out


def _step_to_boundary(sf, scal, scaled_dir):
    """Largest alpha with lambda + alpha*dir staying PSD / positive, scaled space."""
    alpha = np.inf
    for blk, meta in enumerate(sf.metas):
        d = sf.psd_dims[blk]
        s = sf.block_starts[blk]
        lam = scal.lam[blk]
        m = _smat(scaled_dir[s:s + sf.sv_lens[blk]], meta, d)
        norm = m / np.sqrt(np.outer(lam, lam))
        lo = np.linalg.eigvalsh(norm)[0]
        if lo < 0:
            alpha = min(alpha, 1.0 / -lo)
    dir_orth = scaled_dir[sf.n_sv:]
    lam_orth = scal.lam_orth
    neg = dir_orth < 0
    if np.any(neg):
        alpha = min(alpha, float(np.min(lam_orth[neg] / -dir_orth[neg])))
    return alpha


def _interior(sf, u, z):
    """Strict cone interior check for a trial iterate."""
    for vec in (u, z):
        if np.any(vec[sf.n_sv:] <= 0.0):
            return False
        for blk, meta in enumerate(sf.metas):
            d = sf.psd_dims[blk]
            s = sf.block_starts[blk]
            try:
                np.linalg.cholesky(_smat(vec[s:s + sf.sv_lens[blk]], meta, d))
            except np.linalg.LinAlgError:
                return False
    return True


def solve(problem, opts=None, _allow_phase1=True):
    """Solve a conic problem to optimality or produce an infeasibility verdict."""
    t0 = time.perf_counter()
    opts = opts or SolverOptions()
    sf = _StandardForm(problem)

    def report(status, u, y, z, res, iters, log):
        x_orig = sf.unscale_primal(u)
        y_orig, z_orig = sf.unscale_dual(y, z)
        psd_vals = tuple(
            _smat(s_vec, meta, d)
            for s_vec, meta, d in zip(sf.psd_slices(x_orig), sf.metas, sf.psd_dims)
        )
        psd_duals = tuple(
            _smat(s_vec, meta, d)
            for s_vec, meta, d in zip(sf.psd_slices(z_orig), sf.metas, sf.psd_dims)
        )
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
        for blk, meta in enumerate(sf.metas):
            d = sf.psd_dims[blk]
            s = sf.block_starts[blk]
            if np.linalg.eigvalsh(_smat(z[s:s + sf.sv_lens[blk]], meta, d))[0] < -opts.abs_tol:
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
    z = np.zeros(sf.n_total)
    for blk, meta in enumerate(sf.metas):
        s = sf.block_starts[blk]
        ident = _svec(np.eye(sf.psd_dims[blk]), meta)
        u[s:s + sf.sv_lens[blk]] = ident
        z[s:s + sf.sv_lens[blk]] = ident
    u[sf.n_sv:] = 1.0
    z[sf.n_sv:] = 1.0
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
    for it in range(1, opts.max_iters + 1):
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y)) and np.all(np.isfinite(z))):
            status = "numerical_failure"
            break
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

        entry = {
            "iteration": it - 1, "primal_obj": pobj, "dual_obj": dobj, "gap": gap_abs,
            "mu": mu, "primal_res": relp, "dual_res": reld, "alpha_p": 0.0, "alpha_d": 0.0,
        }

        if relp <= opts.rel_tol and reld <= opts.rel_tol and gap_ok and mu_ok:
            status = "optimal"
            res = Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj)))
            log.append(entry)
            break

        # infeasibility certificates from the diverging iterates
        by = dobj_s
        if by > 0.0:
            ray_res = float(np.abs(a.T @ y + z).max()) / by
            if ray_res <= opts.infeasibility_threshold * max(1.0, np.abs(c).max()):
                status = "primal_infeasible"
                res = Residuals(primal=relp, dual=reld, gap=np.inf)
                log.append(entry)
                break
        cx = pobj_s
        if cx < 0.0:
            ray_res = float(np.abs(a @ u).max()) / -cx
            if ray_res <= opts.infeasibility_threshold * max(1.0, np.abs(b).max()):
                status = "dual_infeasible"
                res = Residuals(primal=relp, dual=reld, gap=np.inf)
                log.append(entry)
                break

        try:
            scal = _Scaling(sf, u, z)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            res = Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj)))
            log.append(entry)
            break

        atil = _scaled_rows(sf, scal)
        schur = atil @ atil.T
        if not np.all(np.isfinite(schur)):
            status = "numerical_failure"
            res = Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj)))
            log.append(entry)
            break
        reg = 1e-14 * (1.0 + np.trace(schur) / mk)
        factor = None
        for _ in range(4):
            try:
                factor = cho_factor(schur + reg * np.eye(mk), lower=True)
                break
            except (np.linalg.LinAlgError, ValueError):
                reg *= 1e3
        if factor is None:
            status = "numerical_failure"
            res = Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj)))
            log.append(entry)
            break

        rd_scaled = _scale_dual_vec(sf, scal, r_d)

        def direction(d_target):
            rhs = r_p - atil @ (d_target - rd_scaled)
            dy = cho_solve(factor, rhs)
            for _ in range(4):  # refinement against the unregularized system
                resid = rhs - schur @ dy
                if np.abs(resid).max() <= 1e-15 * max(1.0, np.abs(rhs).max()):
                    break
                dy = dy + cho_solve(factor, resid)
            dz = r_d - a.T @ dy
            dz_scaled = _scale_dual_vec(sf, scal, dz)
            dx_scaled = d_target - dz_scaled
            dx = np.empty(sf.n_total)
            for blk, meta in enumerate(sf.metas):
                d = sf.psd_dims[blk]
                s = sf.block_starts[blk]
                g = scal.g[blk]
                mdx = _smat(dx_scaled[s:s + sf.sv_lens[blk]], meta, d)
                dx[s:s + sf.sv_lens[blk]] = _svec(g @ mdx @ g.T, meta)
            dx[sf.n_sv:] = scal.w_orth * dx_scaled[sf.n_sv:]
            return dx, dy, dz, dx_scaled, dz_scaled

        # predictor: drive complementarity to zero
        d_aff = np.empty(sf.n_total)
        for blk, meta in enumerate(sf.metas):
            s = sf.block_starts[blk]
            d_aff[s:s + sf.sv_lens[blk]] = _svec(np.diag(-scal.lam[blk]), meta)
        d_aff[sf.n_sv:] = -scal.lam_orth
        dx_a, dy_a, dz_a, dxs_a, dzs_a = direction(d_aff)
        alpha_xa = min(1.0, _step_to_boundary(sf, scal, dxs_a))
        alpha_za = min(1.0, _step_to_boundary(sf, scal, dzs_a))
        mu_aff = float((u + alpha_xa * dx_a) @ (z + alpha_za * dz_a)) / sf.cone_degree
        sigma = min(1.0, max(1e-10, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector: recentre and take out the second-order term
        d_comb = np.empty(sf.n_total)
        for blk, meta in enumerate(sf.metas):
            d = sf.psd_dims[blk]
            s = sf.block_starts[blk]
            lam = scal.lam[blk]
            u_mat = _smat(dxs_a[s:s + sf.sv_lens[blk]], meta, d)
            v_mat = _smat(dzs_a[s:s + sf.sv_lens[blk]], meta, d)
            cross = 0.5 * (u_mat @ v_mat + v_mat @ u_mat)
            r_mat = sigma * mu * np.eye(d) - np.diag(lam ** 2) - cross
            d_mat = 2.0 * r_mat / np.add.outer(lam, lam)
            d_comb[s:s + sf.sv_lens[blk]] = _svec(d_mat, meta)
        lam_o = scal.lam_orth
        d_comb[sf.n_sv:] = (sigma * mu - lam_o ** 2 - dxs_a[sf.n_sv:] * dzs_a[sf.n_sv:]) / lam_o

        dx, dy, dz, dxs, dzs = direction(d_comb)
        alpha_x = min(1.0, _FTB * _step_to_boundary(sf, scal, dxs))
        alpha_z = min(1.0, _FTB * _step_to_boundary(sf, scal, dzs))

        # fallback halving keeps the trial iterate strictly interior
        ok = False
        for _ in range(_MAX_HALVINGS):
            u_new = u + alpha_x * dx
            z_new = z + alpha_z * dz
            if _interior(sf, u_new, z_new):
                ok = True
                break
            alpha_x *= 0.5
            alpha_z *= 0.5
        if not ok:
            status = "numerical_failure"
            res = Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj)))
            log.append(entry)
            break
        u = sf.project_structured(u_new)
        y = y + alpha_z * dy
        z = sf.project_structured(z_new)

        entry["alpha_p"] = alpha_x
        entry["alpha_d"] = alpha_z
        log.append(entry)
        if opts.log_stream is not None:
            opts.log_stream.write(
                f"iter {it:3d}  pobj {pobj: .9e}  dobj {dobj: .9e}  gap {gap_abs:.3e}"
                f"  mu {mu:.3e}  step {alpha_x:.3f}/{alpha_z:.3f}\n"
            )

        if max(alpha_x, alpha_z) < 1e-4:
            stall += 1
            if stall >= 4:
                status = "numerical_failure"
                res = Residuals(primal=relp, dual=reld, gap=gap_abs / (1.0 + abs(pobj)))
                break
        else:
            stall = 0
    if status in ("max_iters", "numerical_failure") and best is not None:
        # fall back to the best iterate seen; accept it when it already meets
        # the feasibility tolerances and a mildly relaxed gap
        _, u, y, z, res, relaxed = best
        if relaxed:
            status = "optimal"
        elif _allow_phase1 and res.primal > opts.rel_tol:
            # unresolved and not primal-feasible: settle feasibility directly
            violation = _phase1_violation(sf, opts)
            if violation is not None and violation > 1e-6:
                status = "primal_infeasible"
                res = Residuals(primal=res.primal, dual=res.dual, gap=np.inf)
    return report(status, u, y, z, res, it, log)


def _phase1_violation(sf, opts):
    """Minimum uniform slack making the (equilibrated) rows feasible.

    Solves min t s.t. A x + t >= b over the same cone; the optimum is the
    scaled infeasibility measure (zero iff the problem is feasible) and the
    phase-1 program itself is always feasible and bounded.
    """
    from .problem import ConicProblem, LinearConstraint  # local to avoid cycles

    mk = len(sf.kept)
    n_orth = sf.n_orth_vars + 1
    cons = []
    for i in range(mk):
        psd = {}
        for blk in range(len(sf.psd_dims)):
            s = sf.block_starts[blk]
            sl = sf.a_full[i, s:s + sf.sv_lens[blk]]
            if np.any(sl):
                psd[blk] = _smat(sl, sf.metas[blk], sf.psd_dims[blk])
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
    rep = solve(phase1, p1_opts, _allow_phase1=False)
    if rep.status != "optimal":
        return None
    return max(rep.primal_obj, 0.0)


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
