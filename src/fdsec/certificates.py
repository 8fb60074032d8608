"""Rank-one extraction and the KKT-based tightness certificate.

At an optimum of the relaxed problem, the dual block attached to each DL
beamforming matrix must equal a positive-definite matrix minus a scaled
rank-one channel term; that forces the beamforming matrix onto a
one-dimensional null space, so the relaxation is tight and the beamformer
can be read off the leading eigenpair. The certificate reconstructs that
dual structure from the reported multipliers and verifies it numerically.
"""

from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .linalg import eigvals_herm, herm_eig, scipy_extension, scipy_extension_spec
from .metrics import Allocation, objective, quad_forms, quad_table
from .problem import recover_duals

RANK_TOL = 1e-6
# the trials.csv columns of a RankReport, in order
RANK_CSV_COLUMNS = ("rank_max", "eig_ratio_max", "b_min_eig", "certificate_pass")
# allowance on the eavesdropper-cap rows, per cap noise, that the power
# polish settles for when no point along its directions holds every cap
CAP_TOL_FALLBACK = 1e-7
_LP_TOL = np.sqrt(1e-9) * 10  # linprog's post-solve allowance on x >= 0 and the slacks
# scipy's compiled HiGHS, loaded on the first polish; located here, so that a
# scipy without it fails at import and not after a sweep's IPM work
_HIGHSPY = "scipy.optimize._highspy._core"
scipy_extension_spec(_HIGHSPY)


class NotPsdError(ValueError):
    """Matrix expected to be PSD has a significantly negative eigenvalue."""


class CertificateUnavailableError(RuntimeError):
    """The report is no optimum, or its problem lacks a row the certificate reads."""


@dataclass(frozen=True)
class BeamformerExtraction:
    w: Optional[np.ndarray]     # scaled leading eigenvector, None when rank > 1
    eigenvalues: np.ndarray     # descending
    ratio: float                # lambda_2 / lambda_1 (0 for the zero matrix)

    @property
    def rank_one(self):
        return self.w is not None


@dataclass(frozen=True)
class RankReport:
    ranks: np.ndarray               # numerical rank per DL beam matrix
    eig_ratios: np.ndarray          # lambda_2/lambda_1 per matrix
    w: tuple                        # extracted beamformers (None entries when rank > 1)
    b_min_eig: np.ndarray           # smallest eigenvalue of each dual core matrix
    y_zero_eigs: np.ndarray         # near-null eigenvalue count of each dual block
    y_consistency: np.ndarray       # mismatch vs the solver dual block, relative
    c1_tightness: np.ndarray        # |C1 slack| relative to the constraint scale
    delta: np.ndarray               # C1 multipliers
    certificate_pass: bool

    def csv_fields(self):
        return dict(zip(RANK_CSV_COLUMNS, (
            int(self.ranks.max(initial=0)), float(self.eig_ratios.max(initial=0.0)),
            float(self.b_min_eig.min(initial=np.inf)), self.certificate_pass)))


def extract_beamformer(w_mat):
    """Leading-eigenpair beamformer when the matrix is numerically rank one.

    The returned vector is scaled by the square root of the leading
    eigenvalue and phase-normalized so its largest-magnitude entry is real
    and positive. Raises NotPsdError on significantly indefinite input.
    """
    vals, vecs = herm_eig(w_mat)
    lead = vals[0]
    if vals[-1] < -RANK_TOL * max(lead, 1.0) - 1e-12:
        raise NotPsdError(f"matrix has eigenvalue {vals[-1]:.3e}")
    if lead <= 0.0:
        return BeamformerExtraction(w=np.zeros(w_mat.shape[0], dtype=complex),
                                    eigenvalues=vals, ratio=0.0)
    ratio = max(vals[1], 0.0) / lead if len(vals) > 1 else 0.0
    if ratio > RANK_TOL:
        return BeamformerExtraction(w=None, eigenvalues=vals, ratio=ratio)
    w = np.sqrt(lead) * vecs[:, 0]
    pivot = int(np.argmax(np.abs(w)))
    phase = w[pivot] / abs(w[pivot])
    return BeamformerExtraction(w=w / phase, eigenvalues=vals, ratio=ratio)


def _multiplier(report, vmap, label):
    try:
        return float(report.multipliers[vmap.row_index[label]])
    except KeyError:
        raise CertificateUnavailableError(f"constraint {label} missing from the problem")


def _an_patch_matrices(model):
    """Unit-trace AN columns the power polish adds for the optimal scheme.

    One rank-one direction per eavesdropper m along P l_m, where P projects
    off the DL channels h: it raises eavesdropper m's noise floor without
    touching any DL SINR, but it reaches the UL SINRs through the
    self-interference directions a_j, so its feedback into the powers is
    part of the LP of :func:`rebalance_powers`. When N > K + J, also the
    projector off span{h, a}, which feeds nothing back into any power.
    """
    k, n = model.k_users, model.vecs.shape[1]
    eye = np.eye(n, dtype=complex)

    def projector_off(vecs):
        if not len(vecs):
            return eye
        q, _ = np.linalg.qr(vecs.T)
        return eye - q @ q.conj().T

    off_dl = projector_off(model.vecs[:k])
    patches = []
    for l_vec in model.eves:
        u = off_dl @ l_vec
        norm2 = float(np.vdot(u, u).real)
        if norm2 > 1e-12 * float(np.vdot(l_vec, l_vec).real):
            patches.append(np.outer(u, u.conj()) / norm2)
    if n > len(model.vecs):
        off_all = projector_off(model.vecs)
        patches.append(off_all / float(np.trace(off_all).real))
    return patches


@cache
def _highs():
    """scipy's compiled HiGHS binding, loaded on the first polish without the
    scipy.optimize package, and the options scipy.optimize.linprog passes it."""
    h = scipy_extension(_HIGHSPY)
    options = h.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = 0
    options.log_to_console = options.output_flag = False
    options.primal_feasibility_tolerance = 1e-10
    options.simplex_strategy = 1  # dual
    return h, options


def linprog(cost, a_ub, b_ub):
    """min cost·x subject to a_ub x <= b_ub and x >= 0, by HiGHS's dual simplex.

    Hands a fresh HiGHS instance exactly the model and options that
    ``scipy.optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, method="highs",
    options={"primal_feasibility_tolerance": 1e-10})`` does (column-wise,
    exact zeros dropped, rows ascending) and keeps its input and post-solve
    checks. Returns linprog's x when it reports a solved LP, else None.
    """
    if not (np.isfinite(cost).all() and np.isfinite(a_ub).all() and np.isfinite(b_ub).all()):
        raise ValueError("linprog inputs must be finite")
    n_rows, n_cols = a_ub.shape
    if np.shape(cost) != (n_cols,) or np.shape(b_ub) != (n_rows,):
        raise ValueError("linprog needs one cost per column and one bound per row of a_ub")
    h, options = _highs()
    cols, rows = np.nonzero(a_ub.T)
    counts = np.count_nonzero(a_ub, axis=0)
    highs = h._Highs()
    highs.passOptions(options)
    highs.passModel(n_cols, n_rows, rows.size, h.MatrixFormat.kColwise, h.ObjSense.kMinimize,
                    0.0, cost, np.zeros(n_cols), np.full(n_cols, h.kHighsInf),
                    np.full(n_rows, -h.kHighsInf), b_ub, np.cumsum(counts) - counts, rows,
                    a_ub.T[cols, rows], np.zeros(n_cols, dtype=np.int32))  # all continuous
    highs.run()
    if highs.getModelStatus() != h.HighsModelStatus.kOptimal:
        return None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun, slack = highs.getInfo().objective_function_value, b_ub - solution.row_value
    return x if _solution_ok(x, fun, slack) else None


def _solution_ok(x, fun, slack):
    """linprog's post-solve check of an optimum HiGHS reports: no NaN,
    x >= -_LP_TOL and every slack b_ub - a_ub x >= -_LP_TOL."""
    return not (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
                or (x < -_LP_TOL).any() or (slack < -_LP_TOL).any())


def rebalance_powers(alloc, model, cfg, scheme):
    """Exact power polish: one linear program along fixed directions.

    Each beam keeps the leading eigenvector of its raw matrix, so the
    polished point is rank one by construction. With the directions fixed,
    rows C1-C4 are linear in the K beam powers, the J UL powers and
    nonnegative coefficients on fixed unit-trace AN columns: V / tr V when
    tr V > 0, plus for the optimal scheme the directions of
    :func:`_an_patch_matrices`. Their coefficients are the rows of
    :func:`fdsec.metrics.quad_table` at unit-power beams and the quadratic
    forms of the columns. One HiGHS LP minimises the weighted power over
    them, each row divided by its noise (link rows) or its cap noise
    (eavesdropper rows). Every variable is in one unit, the raw point's
    objective, since HiGHS's tolerances are absolute. When no exact point
    exists the cap rows are relaxed by CAP_TOL_FALLBACK. Returns None when
    neither LP is solved.
    """
    k_users, n = len(alloc.W), alloc.V.shape[0]
    directions = [herm_eig(w_mat)[1][:, 0] for w_mat in alloc.W]
    tr_v = float(np.trace(alloc.V).real)
    cols = [alloc.V / tr_v] if tr_v > 0.0 else []
    if scheme == "optimal":
        cols += _an_patch_matrices(model)
    cols = np.array(cols, dtype=complex).reshape(-1, n, n)

    unit = quad_table(Allocation(W=tuple(np.outer(d, d.conj()) for d in directions),
                                 V=np.zeros_like(alloc.V), P=alloc.P, receivers=alloc.receivers),
                      model)
    targets = np.concatenate([cfg.dl_sinr_targets, cfg.ul_sinr_targets])
    links = unit.x.size
    # C1/C2: interference + AN + noise <= own signal / target, per noise
    a_link = np.hstack([unit.cross - np.diag(unit.own / targets), quad_forms(model.vecs, cols)])
    a_link /= unit.noise[:, np.newaxis]
    # C3/C4: leakage of link t over the cap <= AN + noise at idle user m, per noise
    eve = (unit.eve / cfg.eve_sinr_cap)[:, :, np.newaxis] * np.eye(links)
    eve_an = np.broadcast_to(quad_forms(model.eves, cols)[:, np.newaxis, :],
                             (*unit.eve.shape, len(cols)))
    a_eve = (np.concatenate([eve, -eve_an], axis=2)
             / unit.eve_noise[:, np.newaxis, np.newaxis]).reshape(-1, links + len(cols))
    raw_cost = objective(alloc, cfg)
    a_ub = np.vstack([a_link, a_eve]) * raw_cost
    cost = np.concatenate([np.full(k_users, cfg.alpha), np.full(links - k_users, cfg.beta),
                           np.full(len(cols), cfg.alpha)])  # the columns are unit trace
    for allowance in (0.0, CAP_TOL_FALLBACK):
        b_ub = np.concatenate([np.full(links, -1.0), np.full(a_eve.shape[0], 1.0 + allowance)])
        x = linprog(cost, a_ub, b_ub)
        if x is not None:
            break
    else:
        return None

    x = raw_cost * x
    return Allocation(
        W=tuple(p * np.outer(d, d.conj()) for p, d in zip(x[:k_users], directions)),
        V=np.einsum("i,inp->np", x[links:], cols), P=x[k_users:links],
        receivers=alloc.receivers,
    )


def dual_certificate(report, model, cfg, vmap, alloc):
    """Verify the tightness structure of a solved instance.

    Rebuilds each beam matrix's dual block from the multipliers of the
    link rows (C1, C2) and of C3, checks that its positive part is
    positive definite, that exactly one eigenvalue (per active user)
    vanishes, complementarity with the primal matrix, a strictly positive
    C1 multiplier, and consistency with the dual block the solver
    reported. The primal side is ``alloc``, the allocation a trial keeps
    (polished or the solver's own point).
    """
    if report.status != "optimal":
        raise CertificateUnavailableError(f"no certificate for status {report.status!r}")

    n, k_users, m_users = vmap.n, vmap.k_users, vmap.m_users
    links = [f"C1[{k}]" for k in range(k_users)] + [f"C2[{j}]" for j in range(vmap.j_users)]
    mu = np.array([_multiplier(report, vmap, label) for label in links])
    lam = np.array([
        [_multiplier(report, vmap, f"C3[{m},{k}]") for k in range(k_users)]
        for m in range(m_users)
    ]).reshape(m_users, k_users)
    delta = mu[:k_users]

    # Y_k = alpha I + sum_{r != k} mu_r v_r v_r^H + sum_m lam_mk l_m l_m^H / gamma_tol
    #       - delta_k h_k h_k^H / gamma_k, and its positive part B_k
    v_outer = np.einsum("rn,rp->rnp", model.vecs, model.vecs.conj())
    l_outer = np.einsum("mn,mp->mnp", model.eves, model.eves.conj())
    weights = np.where(np.eye(k_users, mu.size, dtype=bool), 0.0, mu)  # [k, r]
    base = (cfg.alpha * np.eye(n) + np.einsum("kr,rnp->knp", weights, v_outer)
            + np.einsum("mk,mnp->knp", lam / cfg.eve_sinr_cap, l_outer))
    y_mats = base - (delta / cfg.dl_sinr_targets)[:, np.newaxis, np.newaxis] * v_outer[:k_users]

    solver_y = recover_duals(report, vmap)
    # C1 tightness: |lhs - rhs| / max(lhs, rhs), lhs = h^H W_k h / gamma_k
    table = quad_table(alloc, model)
    c1 = table.margins(cfg).c1
    lhs = table.own[:k_users] / cfg.dl_sinr_targets
    tightness = np.abs(c1) / np.maximum(np.maximum(lhs, lhs - c1), 1e-300)

    ranks = np.zeros(k_users, dtype=int)
    ratios = np.zeros(k_users)
    w_out = []
    b_min = np.zeros(k_users)
    zero_counts = np.zeros(k_users, dtype=int)
    consistency = np.zeros(k_users)
    ok = True
    dl_power = sum(float(np.trace(w).real) for w in alloc.W)

    for k, y_mat in enumerate(y_mats):
        b_eigs = eigvals_herm(base[k])
        b_min[k] = b_eigs[-1]
        y_eigs = eigvals_herm(y_mat)
        y_max = max(y_eigs[0], 1e-300)
        zero_counts[k] = int(np.sum(np.abs(y_eigs) <= RANK_TOL * y_max))
        extraction = extract_beamformer(alloc.W[k])
        ratios[k] = extraction.ratio
        trace_w = float(np.trace(alloc.W[k]).real)
        nonzero = trace_w > RANK_TOL * max(dl_power, 1e-300)
        vals = extraction.eigenvalues
        ranks[k] = 0 if not nonzero else (1 if extraction.rank_one else
                                          int(np.sum(vals > RANK_TOL * vals[0])))
        w_out.append(extraction.w if nonzero else np.zeros(n, dtype=complex))

        comp = abs(float(np.sum(y_mat.conj() * alloc.W[k]).real))
        scale_y = max(np.abs(solver_y[k]).max(), np.abs(y_mat).max(), 1e-300)
        consistency[k] = float(np.abs(y_mat - solver_y[k]).max()) / scale_y

        if nonzero:
            user_ok = (
                ranks[k] == 1
                and b_min[k] > 0.0
                and zero_counts[k] == 1
                and comp <= RANK_TOL * max(trace_w, 1e-300) * max(y_max, 1.0)
                and delta[k] > 0.0
                and tightness[k] <= RANK_TOL
            )
            ok = ok and user_ok

    return RankReport(
        ranks=ranks, eig_ratios=ratios, w=tuple(w_out),
        b_min_eig=b_min, y_zero_eigs=zero_counts, y_consistency=consistency,
        c1_tightness=tightness, delta=delta, certificate_pass=bool(ok),
    )
