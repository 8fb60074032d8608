"""Output checks for the benchmark, written from the system model.

Nothing here calls ``fdsec.metrics``: the QoS rows C1-C5, the objective,
the rank test, the infeasibility ray and the half-duplex precheck are
rebuilt from the public ``ChannelRealization`` fields, the allocation and
the config targets. Each check returns the names of the properties that
failed; an empty list means the output is correct. README.md says how
each tolerance below was chosen.
"""

import numpy as np

# slack of a C1-C5 row may fall below zero by this share of the row's
# activity (sum of the magnitudes of all its terms)
ROW_TOL = 1e-6
# lambda_2 / lambda_1 of a rank-one beam; the value of the program's
# certificates.RANK_TOL, fixed here so a change there cannot loosen it
RANK_TOL = 1e-6
# reported objective against alpha (sum tr W + tr V) + beta sum P
OBJECTIVE_TOL = 1e-9
# dual bound may exceed the objective by this share of the objective
DUALITY_TOL = 1e-6
# Farkas ray: worst cone violation as a share of the ray's term magnitudes,
# and the least share of sum y_i b_i in its term magnitudes
RAY_TOL = 1e-6
# per-seed sweep properties, relative to the larger objective compared
SWEEP_TOL = 1e-6


def _quad(vecs, mats):
    """Re(v_a^H M_b v_a) for rows v_a and matrices M_b, shape (a, b)."""
    return np.einsum("an,bnm,am->ab", vecs.conj(), mats, vecs).real


def qos_rows(chan, cfg, W, V, P, r):
    """(slack, activity) for every C1-C5 row; slack >= 0 means held.

    C1_k  h_k^H W_k h_k / g_k >= sum_{i!=k} h_k^H W_i h_k + sum_j P_j |f_jk|^2
                                 + h_k^H V h_k + s2_dl_k
    C2_j  P_j |g_j^H r_j|^2 / g_j >= sum_{i!=j} P_i |g_i^H r_j|^2
                                 + sum_k a_j^H W_k a_j + a_j^H V a_j + s2_bs |r_j|^2,
          a_j = H_si^H r_j
    C3_mk l_m^H W_k l_m / g_tol <= l_m^H V l_m + s2_eve_m
    C4_mj P_j |t_jm|^2 / g_tol <= l_m^H V l_m + s2_eve_m
    C5_j  P_j >= 0
    """
    W = np.asarray(W, dtype=complex).reshape(-1, chan.h.shape[1], chan.h.shape[1])
    P = np.asarray(P, dtype=float)
    V = np.asarray(V, dtype=complex)[np.newaxis]
    g_dl = np.asarray(cfg.dl_sinr_targets, dtype=float)
    g_ul = np.asarray(cfg.ul_sinr_targets, dtype=float)
    g_tol = float(cfg.eve_sinr_cap)
    k_users, j_users = W.shape[0], P.size
    slack, activity = [], []

    hw = _quad(chan.h, W)                          # [k, i] = h_k^H W_i h_k
    hv = _quad(chan.h, V)[:, 0]
    ul_to_dl = np.abs(chan.f) ** 2 * P[:, np.newaxis]   # [j, k]
    for k in range(k_users):
        signal = hw[k, k] / g_dl[k]
        terms = np.concatenate([np.delete(hw[k], k), ul_to_dl[:, k],
                                [hv[k], chan.sigma2_dl[k]]])
        slack.append(signal - terms.sum())
        activity.append(abs(signal) + np.abs(terms).sum())

    if j_users:
        a = chan.h_si.conj().T @ r.T                # column j is a_j
        aw = _quad(a.T, W)                          # [j, k]
        av = _quad(a.T, V)[:, 0]
        gains = np.abs(chan.g.conj() @ r.T) ** 2    # [i, j] = |g_i^H r_j|^2
        for j in range(j_users):
            signal = P[j] * gains[j, j] / g_ul[j]
            terms = np.concatenate([np.delete(P * gains[:, j], j), aw[j],
                                    [av[j], chan.sigma2_bs * float(np.sum(np.abs(r[j]) ** 2))]])
            slack.append(signal - terms.sum())
            activity.append(abs(signal) + np.abs(terms).sum())

    lw = _quad(chan.l, W)                           # [m, k]
    floor = _quad(chan.l, V)[:, 0] + chan.sigma2_eve
    for m in range(chan.l.shape[0]):
        leaks = np.concatenate([lw[m] / g_tol, P * np.abs(chan.t[:, m]) ** 2 / g_tol])
        slack.extend(floor[m] - leaks)
        activity.extend(abs(floor[m]) + np.abs(leaks))
    slack.extend(P)
    activity.extend(np.maximum(np.abs(P), 1e-300))
    return np.array(slack), np.array(activity)


def worst_row_margin(chan, cfg, W, V, P, r):
    slack, activity = qos_rows(chan, cfg, W, V, P, r)
    return float((slack / np.maximum(activity, 1e-300)).min())


def eig_ratio(w_mat):
    """lambda_2 / lambda_1 by LAPACK eigh (0 for the zero matrix)."""
    vals = np.linalg.eigvalsh(w_mat)
    lead = vals[-1]
    if lead <= 0.0:
        return 0.0
    return max(vals[-2], 0.0) / lead if vals.size > 1 else 0.0


def objective(cfg, W, V, P):
    dl = sum(float(np.trace(w).real) for w in W) + float(np.trace(V).real)
    return cfg.alpha * dl + cfg.beta * float(np.sum(P))


def ul_precheck(chan, cfg, r):
    """True when no UL power meets both the UL target and a cap with V = 0.

    With no artificial noise, C2_j forces P_j >= g_j s2_bs |r_j|^2 / |g_j^H r_j|^2
    (all interference dropped) and C4_mj forces P_j <= g_tol s2_eve_m / |t_jm|^2.
    A crossing for any j proves the half-duplex problem infeasible.
    """
    if chan.l.shape[0] == 0 or chan.g.shape[0] == 0:
        return False
    g_ul = np.asarray(cfg.ul_sinr_targets, dtype=float)
    own = np.abs(np.einsum("jn,jn->j", chan.g.conj(), r)) ** 2
    p_min = g_ul * chan.sigma2_bs * np.sum(np.abs(r) ** 2, axis=1) / own
    caps = cfg.eve_sinr_cap * chan.sigma2_eve[np.newaxis, :] / np.abs(chan.t) ** 2
    return bool(np.any(p_min > caps.min(axis=1)))


def ray_margins(problem, y):
    """(cone violation, b share) of multipliers y as a Farkas ray.

    In >= orientation (a_i . x >= b_i) a ray y proves infeasibility when
    y >= 0, sum y_i A_i is negative semidefinite on every PSD block and
    nonpositive on the orthant, and sum y_i b_i > 0. The cone violation is
    the worst of -min y, lambda_max(sum y_i A_i) and max(sum y_i a_i), each
    divided by the magnitude of the terms it sums (<= 0 for an exact ray);
    the b share is sum y_i b_i over sum |y_i b_i|.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (len(problem.constraints),) or not np.all(np.isfinite(y)):
        return np.inf, 0.0
    sign = np.array([1.0 if c.sense == ">=" else -1.0 for c in problem.constraints])
    ys = y * sign
    worst = float(-y.min() / max(np.abs(y).max(), 1e-300))
    for blk, dim in enumerate(problem.psd_dims):
        acc = np.zeros((dim, dim))
        mag = 0.0
        for i, con in enumerate(problem.constraints):
            coeff = con.psd_coeffs.get(blk)
            if coeff is not None:
                acc += ys[i] * coeff
                mag += abs(y[i]) * float(np.linalg.norm(coeff, 2))
        if mag > 0.0:
            worst = max(worst, float(np.linalg.eigvalsh(0.5 * (acc + acc.T))[-1]) / mag)
    if problem.orthant_dim:
        coeffs = np.array([c.orthant_coeffs for c in problem.constraints])
        acc = ys @ coeffs
        mag = np.abs(y) @ np.abs(coeffs)
        worst = max(worst, float(np.max(acc / np.maximum(mag, 1e-300))))
    consts = np.array([c.constant for c in problem.constraints])
    b_share = float(ys @ consts) / max(float(np.abs(y) @ np.abs(consts)), 1e-300)
    return worst, b_share


def valid_ray(problem, y):
    violation, b_share = ray_margins(problem, y)
    return violation <= RAY_TOL and b_share > RAY_TOL


def check_instance(inst):
    """Failed property names for one ``harness.evaluate_instance`` result."""
    report = inst.report
    status = report.status
    if status == "primal_infeasible":
        if valid_ray(inst.problem, report.multipliers):
            return []
        if ul_precheck(inst.chan, inst.cfg, inst.receivers.r) and inst.scheme == "hd":
            return []
        return ["infeasibility_unproven"]
    if status != "optimal":
        return [f"status:{status}"]
    if inst.alloc is None:
        # the half-duplex probe keeps no allocation; read the solver point
        from fdsec.problem import recover_allocation
        alloc = recover_allocation(report.primal, inst.vmap, inst.receivers)
        reported = report.primal_obj
    else:
        alloc = inst.alloc
        reported = inst.qos.objective
    failed = []
    if worst_row_margin(inst.chan, inst.cfg, alloc.W, alloc.V, alloc.P,
                        inst.receivers.r) < -ROW_TOL:
        failed.append("rows")
    if inst.alloc is not None and max(eig_ratio(w) for w in alloc.W) > RANK_TOL:
        failed.append("rank_one")
    obj = objective(inst.cfg, alloc.W, alloc.V, alloc.P)
    if abs(obj - reported) > OBJECTIVE_TOL * abs(obj):
        failed.append("objective")
    if report.dual_obj > obj + DUALITY_TOL * abs(obj):
        failed.append("weak_duality")
    if inst.scheme == "optimal" and not inst.rank.certificate_pass:
        failed.append("certificate")
    return failed


def check_seed_sweep(objectives):
    """Per-seed sweep properties over {(gamma, scheme): objective}.

    Only trials that passed their own checks are passed in. The optimal
    objective must not exceed any baseline's at the same gamma, and must
    not fall as gamma_DL rises. Returns a list of (gamma, scheme, name).
    """
    failed = []
    gammas = sorted({g for g, _ in objectives})
    for g in gammas:
        opt = objectives.get((g, "optimal"))
        if opt is None:
            continue
        if any(g2 == g and scheme != "optimal" and opt > obj + SWEEP_TOL * max(opt, obj)
               for (g2, scheme), obj in objectives.items()):
            failed.append((g, "optimal", "dominance"))
    prev = None
    for g in gammas:
        opt = objectives.get((g, "optimal"))
        if opt is None:
            continue
        if prev is not None and opt < prev - SWEEP_TOL * max(opt, prev):
            failed.append((g, "optimal", "monotone"))
        prev = opt
    return failed
