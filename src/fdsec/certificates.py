"""Rank-one extraction and the KKT-based tightness certificate.

At an optimum of the relaxed problem, the dual block attached to each DL
beamforming matrix must equal a positive-definite matrix minus a scaled
rank-one channel term; that forces the beamforming matrix onto a
one-dimensional null space, so the relaxation is tight and the beamformer
can be read off the leading eigenpair. The certificate reconstructs that
dual structure from the reported multipliers and verifies it numerically.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .linalg import eigvals_herm, herm_eig
from .problem import recover_allocation, recover_duals

RANK_TOL = 1e-6
# relative eavesdropper-cap deficit the power polish treats as held, and
# the one it settles for when no AN patch closes every cap: the IPM's
# default relative feasibility tolerance (SolverOptions.rel_tol)
CAP_TOL = 1e-9
CAP_TOL_FALLBACK = 1e-7


class NotPsdError(ValueError):
    """Matrix expected to be PSD has a significantly negative eigenvalue."""


class CertificateUnavailableError(RuntimeError):
    """Solver report lacks the dual values the certificate needs."""


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
        return {
            "rank_max": int(self.ranks.max(initial=0)),
            "eig_ratio_max": float(self.eig_ratios.max(initial=0.0)),
            "b_min_eig": float(self.b_min_eig.min(initial=np.inf)),
            "certificate_pass": self.certificate_pass,
        }


def extract_beamformer(w_mat, tol=RANK_TOL):
    """Leading-eigenpair beamformer when the matrix is numerically rank one.

    The returned vector is scaled by the square root of the leading
    eigenvalue and phase-normalized so its largest-magnitude entry is real
    and positive. Raises NotPsdError on significantly indefinite input.
    """
    vals, vecs = herm_eig(w_mat)
    lead = vals[0]
    if vals[-1] < -tol * max(lead, 1.0) - 1e-12:
        raise NotPsdError(f"matrix has eigenvalue {vals[-1]:.3e}")
    if lead <= 0.0:
        return BeamformerExtraction(w=np.zeros(w_mat.shape[0], dtype=complex),
                                    eigenvalues=vals, ratio=0.0)
    ratio = max(vals[1], 0.0) / lead if len(vals) > 1 else 0.0
    if ratio > tol:
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


def _an_patch_matrices(chan, si_vecs):
    """Unit-trace AN directions for microscopic eavesdropper-cap repairs.

    One rank-one direction per eavesdropper m along P l_m, where P projects
    off the DL channels: it raises eavesdropper m's noise floor without
    touching any DL SINR, but it reaches the UL SINRs through the
    self-interference directions ``si_vecs``, so its feedback into the
    powers is part of the joint solve in :func:`rebalance_powers`. When
    N > K + J, also the projector off span{DL channels, si_vecs}, which
    feeds nothing back into any power.
    """
    n = chan.h.shape[1]
    eye = np.eye(n, dtype=complex)

    def projector_off(vecs):
        if not len(vecs):
            return eye
        q, _ = np.linalg.qr(np.array(vecs).T)
        return eye - q @ q.conj().T

    off_dl = projector_off(chan.h)
    patches = []
    for l_vec in chan.l:
        u = off_dl @ l_vec
        norm2 = float(np.vdot(u, u).real)
        if norm2 > 1e-12 * float(np.vdot(l_vec, l_vec).real):
            patches.append(np.outer(u, u.conj()) / norm2)
    if n > chan.h.shape[0] + len(si_vecs):
        off_all = projector_off([*chan.h, *si_vecs])
        patches.append(off_all / float(np.trace(off_all).real))
    return patches


def _patch_coefficients(s0, s1, leak, cap0, loads, cost):
    """Cheapest nonnegative patch coefficients that hold every cap.

    The powers move as s0 + s1 @ eps, and cap row (m, t) asks for
    leak[m, t] * power_t <= cap0[m] + loads[m] @ eps, normalised by its own
    cap. A small LP closes the caps exactly when some patch can do it, else
    holds them within CAP_TOL_FALLBACK. None when no patch holds them; the
    caller verifies the answer on the allocation itself.
    """
    a_ub = (leak[:, :, np.newaxis] * s1[np.newaxis, :, :]
            - loads[:, np.newaxis, :]) / cap0[:, np.newaxis, np.newaxis]
    a_ub = a_ub.reshape(-1, s1.shape[1])
    b_ub = (1.0 - leak * s0[np.newaxis, :] / cap0[:, np.newaxis]).ravel()
    col_scale = np.abs(a_ub).max(axis=0)
    if not np.all(np.isfinite(a_ub)) or np.any(col_scale <= 0.0):
        return None
    a_ub = a_ub / col_scale
    for allowance in (0.0, CAP_TOL_FALLBACK):
        res = linprog(cost / col_scale, A_ub=a_ub, b_ub=b_ub + allowance, bounds=(0.0, None),
                      method="highs", options={"primal_feasibility_tolerance": 1e-10})
        if res.status == 0:
            return res.x / col_scale
    return None


def rebalance_powers(alloc, chan, cfg, tol=RANK_TOL, an_repair="free"):
    """Exact power polish along the extracted beam directions.

    With beam directions fixed, the DL and UL SINR targets are linear in
    the K beam powers and J uplink powers; the polish solves for the powers
    that meet every target with equality. Solver-level wobble on the
    eavesdropper caps is absorbed by microscopic additions to the AN
    covariance. Added noise feeds back into the powers: through the
    self-interference directions it raises the UL powers, and with them
    the UL leakage. So the patch coefficients are solved JOINTLY with the
    powers, as one small linear program that runs only when the pinned
    point leaves a cap deficit above CAP_TOL. ``an_repair`` selects the
    patch family: "free" (fully optimized scheme) uses the directions of
    :func:`_an_patch_matrices`, "scale" (baselines) the existing fixed AN
    direction as a single column, "none" no patch. The result is checked
    with :func:`fdsec.metrics.constraint_margins`. Returns None when a beam
    is not rank one, a power comes out nonpositive, no nonnegative patch
    holds the caps within CAP_TOL_FALLBACK, or the repair is not tiny.
    """
    from .metrics import Allocation, constraint_margins, quad_form

    k_users = len(alloc.W)
    j_users = alloc.P.size
    m_users = chan.l.shape[0]
    gamma_dl = cfg.dl_sinr_targets
    gamma_ul = cfg.ul_sinr_targets
    gamma_tol = cfg.eve_sinr_cap
    directions = []
    for w_mat in alloc.W:
        ext = extract_beamformer(w_mat, tol)
        if not ext.rank_one:
            return None
        norm = np.linalg.norm(ext.w)
        if norm == 0.0:
            return None
        directions.append(ext.w / norm)

    si_vecs = [chan.h_si.conj().T @ alloc.receivers.r[j] for j in range(j_users)]
    n_p = k_users + j_users
    base = np.zeros((n_p, n_p))
    for k in range(k_users):
        h = chan.h[k]
        for i in range(k_users):
            gain = abs(np.vdot(h, directions[i])) ** 2
            base[k, i] = gain / gamma_dl[k] if i == k else -gain
        for j in range(j_users):
            base[k, k_users + j] = -abs(chan.f[j, k]) ** 2
    for j in range(j_users):
        r = alloc.receivers.r[j]
        for i in range(j_users):
            gain = abs(np.vdot(r, chan.g[i])) ** 2
            base[k_users + j, k_users + i] = gain / gamma_ul[j] if i == j else -gain
        for k in range(k_users):
            base[k_users + j, k] = -abs(np.vdot(si_vecs[j], directions[k])) ** 2
    base_rhs = np.empty(n_p)
    for k in range(k_users):
        base_rhs[k] = chan.sigma2_dl[k] + quad_form(chan.h[k], alloc.V)
    for j in range(j_users):
        base_rhs[k_users + j] = chan.sigma2_bs * float(np.linalg.norm(alloc.receivers.r[j]) ** 2) \
            + quad_form(si_vecs[j], alloc.V)

    # leakage coefficients: cap of eavesdropper m must cover every term
    leak = np.zeros((m_users, n_p))
    for m in range(m_users):
        for k in range(k_users):
            leak[m, k] = abs(np.vdot(chan.l[m], directions[k])) ** 2 / gamma_tol
        for j in range(j_users):
            leak[m, k_users + j] = abs(chan.t[j, m]) ** 2 / gamma_tol

    def solve_refined(mat, vec):
        sol = np.linalg.solve(mat, vec)
        for _ in range(3):  # refinement; the data mixes very unequal scales
            resid = vec - mat @ sol
            if np.abs(resid).max() <= 1e-16 * max(np.abs(vec).max(), 1e-300):
                break
            sol = sol + np.linalg.solve(mat, resid)
        return sol

    try:
        s0 = solve_refined(base, base_rhs)
    except np.linalg.LinAlgError:
        return None
    if np.any(s0 <= 0.0) or not np.all(np.isfinite(s0)):
        return None

    cap0 = np.array([chan.sigma2_eve[m] + quad_form(chan.l[m], alloc.V)
                     for m in range(m_users)])
    powers, v_mat = s0, alloc.V
    if m_users and float(((leak * s0).max(axis=1) / cap0).max()) - 1.0 > CAP_TOL:
        tr_v = float(np.trace(alloc.V).real)
        if an_repair == "free":
            patches = _an_patch_matrices(chan, si_vecs)
        elif an_repair == "scale" and tr_v > 0.0:
            patches = [alloc.V / tr_v]
        else:
            patches = []
        if not patches:
            return None
        loads = np.array([[quad_form(l_vec, p) for p in patches] for l_vec in chan.l])
        cols = np.array([[quad_form(vec, p) for p in patches] for vec in (*chan.h, *si_vecs)])
        try:
            s1 = solve_refined(base, cols)
        except np.linalg.LinAlgError:
            return None
        weights = np.concatenate([np.full(k_users, cfg.alpha), np.full(j_users, cfg.beta)])
        cost = weights @ s1 + cfg.alpha  # the patches are unit trace
        eps = _patch_coefficients(s0, s1, leak, cap0, loads, cost)
        if eps is None:
            return None
        powers = s0 + s1 @ eps
        if np.any(powers <= 0.0) or not np.all(np.isfinite(powers)):
            return None
        if eps.sum() > 1e-3 * float(powers.sum()):
            return None  # the optimum is never this loose; bail out
        v_mat = alloc.V + sum(e * p for e, p in zip(eps, patches))

    w_new = tuple(p * np.outer(d, d.conj())
                  for p, d in zip(powers[:k_users], directions))
    polished = Allocation(W=w_new, V=v_mat, P=powers[k_users:], receivers=alloc.receivers)
    if v_mat is not alloc.V:
        margins = constraint_margins(polished, chan, cfg)
        caps = np.array([chan.sigma2_eve[m] + quad_form(chan.l[m], v_mat)
                         for m in range(m_users)])[:, np.newaxis]
        if min(float((margins.c3 / caps).min(initial=0.0)),
               float((margins.c4 / caps).min(initial=0.0))) < -CAP_TOL_FALLBACK:
            return None
    return polished


def dual_certificate(report, chan, cfg, receivers, vmap, tol=RANK_TOL, alloc=None):
    """Verify the tightness structure of a solved instance.

    Rebuilds each beam matrix's dual block from the C1/C2/C3 multipliers,
    checks that its positive part is positive definite, that exactly one
    eigenvalue (per active user) vanishes, complementarity with the primal
    matrix, a strictly positive C1 multiplier, and consistency with the
    dual block the solver reported. The primal side is ``alloc`` (for
    example after the power polish), else the solver's own point.
    """
    if report.status != "optimal":
        raise CertificateUnavailableError(f"no certificate for status {report.status!r}")
    if report.multipliers is None or not len(report.psd_duals):
        raise CertificateUnavailableError("solver report carries no dual values")

    n, k_users, j_users, m_users = vmap.n, vmap.k_users, vmap.j_users, vmap.m_users
    gamma_dl = cfg.dl_sinr_targets
    gamma_tol = cfg.eve_sinr_cap

    delta = np.array([_multiplier(report, vmap, f"C1[{k}]") for k in range(k_users)])
    gamma_mult = np.array([_multiplier(report, vmap, f"C2[{j}]") for j in range(j_users)])
    lam = np.array([
        [_multiplier(report, vmap, f"C3[{m},{k}]") for k in range(k_users)]
        for m in range(m_users)
    ]).reshape(m_users, k_users)

    h_mats = [np.outer(chan.h[k], chan.h[k].conj()) for k in range(k_users)]
    l_mats = [np.outer(chan.l[m], chan.l[m].conj()) for m in range(m_users)]
    si_mats = []
    for j in range(j_users):
        a = chan.h_si.conj().T @ receivers.r[j]
        si_mats.append(np.outer(a, a.conj()))

    if alloc is None:
        alloc = recover_allocation(report.primal, vmap, receivers)
    solver_y = recover_duals(report, vmap)

    ranks = np.zeros(k_users, dtype=int)
    ratios = np.zeros(k_users)
    w_out = []
    b_min = np.zeros(k_users)
    zero_counts = np.zeros(k_users, dtype=int)
    consistency = np.zeros(k_users)
    tightness = np.zeros(k_users)
    ok = True
    dl_power = sum(float(np.trace(w).real) for w in alloc.W)

    for k in range(k_users):
        base = cfg.alpha * np.eye(n, dtype=complex)
        for i in range(k_users):
            if i != k:
                base = base + delta[i] * h_mats[i]
        for j in range(j_users):
            base = base + gamma_mult[j] * si_mats[j]
        for m in range(m_users):
            base = base + lam[m, k] * l_mats[m] / gamma_tol
        y_mat = base - delta[k] * h_mats[k] / gamma_dl[k]

        b_eigs = eigvals_herm(base)
        b_min[k] = b_eigs[-1]
        y_eigs = eigvals_herm(y_mat)
        y_max = max(y_eigs[0], 1e-300)
        zero_counts[k] = int(np.sum(np.abs(y_eigs) <= tol * y_max))
        extraction = extract_beamformer(alloc.W[k], tol)
        ratios[k] = extraction.ratio
        trace_w = float(np.trace(alloc.W[k]).real)
        nonzero = trace_w > tol * max(dl_power, 1e-300)
        ranks[k] = 0 if not nonzero else (1 if extraction.rank_one else
                                          int(np.sum(extraction.eigenvalues > tol * extraction.eigenvalues[0])))
        w_out.append(extraction.w if nonzero else np.zeros(n, dtype=complex))

        comp = abs(float(np.sum(y_mat.conj() * alloc.W[k]).real))
        scale_y = max(np.abs(solver_y[k]).max(), np.abs(y_mat).max(), 1e-300)
        consistency[k] = float(np.abs(y_mat - solver_y[k]).max()) / scale_y

        # C1 tightness: slack relative to the constraint's own magnitude
        h = chan.h[k]
        lhs = float(np.real(h.conj() @ alloc.W[k] @ h)) / gamma_dl[k]
        rhs = chan.sigma2_dl[k]
        for i in range(k_users):
            if i != k:
                rhs += float(np.real(h.conj() @ alloc.W[i] @ h))
        if j_users:
            rhs += float(alloc.P @ np.abs(chan.f[:, k]) ** 2)
        rhs += float(np.real(h.conj() @ alloc.V @ h))
        tightness[k] = abs(lhs - rhs) / max(lhs, rhs, 1e-300)

        if nonzero:
            user_ok = (
                ranks[k] == 1
                and b_min[k] > 0.0
                and zero_counts[k] == 1
                and comp <= tol * max(trace_w, 1e-300) * max(y_max, 1.0)
                and delta[k] > 0.0
                and tightness[k] <= tol
            )
            ok = ok and user_ok

    return RankReport(
        ranks=ranks, eig_ratios=ratios, w=tuple(w_out),
        b_min_eig=b_min, y_zero_eigs=zero_counts, y_consistency=consistency,
        c1_tightness=tightness, delta=delta, certificate_pass=bool(ok),
    )
