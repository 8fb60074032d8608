"""Shared independent oracles used by the solver, problem and acceptance tests."""

import itertools

import numpy as np

from fdsec.channel import MAX_RETRIES, ChannelRealization, _link_gain_lin, db2lin, noise_powers
from fdsec.problem import BlockValues, ConicProblem, LinearConstraint, _embed_real


def lp_problem(c, rows, senses, consts, labels=None):
    """Orthant-only conic problem from dense LP data."""
    c = np.asarray(c, dtype=float)
    labels = labels or [f"r{i}" for i in range(len(rows))]
    cons = tuple(
        LinearConstraint(psd_coeffs={}, orthant_coeffs=np.asarray(r, dtype=float),
                         constant=float(b), sense=s, label=lab)
        for r, s, b, lab in zip(rows, senses, consts, labels)
    )
    return ConicProblem(psd_dims=(), orthant_dim=len(c), objective_psd=(),
                        objective_orthant=c, constraints=cons)


def enumerate_lp_optimum(c, rows, senses, consts):
    """Vertex-enumeration oracle for small LPs over the nonnegative orthant.

    Tries every active set built from constraint rows and variable bounds;
    independent of any interior-point machinery.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    a_rows = [np.asarray(r, dtype=float) for r in rows]
    bounds = [np.eye(n)[i] for i in range(n)]
    all_rows = a_rows + bounds
    all_rhs = list(consts) + [0.0] * n
    best = np.inf
    for combo in itertools.combinations(range(len(all_rows)), n):
        a_sq = np.array([all_rows[i] for i in combo])
        b_sq = np.array([all_rhs[i] for i in combo])
        try:
            v = np.linalg.solve(a_sq, b_sq)
        except np.linalg.LinAlgError:
            continue
        if np.any(v < -1e-9):
            continue
        feasible = True
        for r, s, b in zip(a_rows, senses, consts):
            val = r @ v
            if s == ">=" and val < b - 1e-9 * (1 + abs(b)):
                feasible = False
            if s == "<=" and val > b + 1e-9 * (1 + abs(b)):
                feasible = False
        if feasible:
            best = min(best, float(c @ v))
    return best


def random_diagonal_instance(rng, n_psd=2, n_orth=2, m=4, dims=None):
    """Diagonal-data SDP whose optimum matches an LP over the diagonals.

    The block sizes are ``dims``, or n_psd random sizes from {2, 4}.
    """
    if dims is None:
        dims = [2 * rng.integers(1, 3) for _ in range(n_psd)]
    n_lp = sum(dims) + n_orth
    c = rng.uniform(0.5, 2.0, size=n_lp)
    v0 = rng.uniform(0.2, 1.5, size=n_lp)
    rows, senses, consts = [], [], []
    for i in range(m):
        r = rng.uniform(-1.0, 1.0, size=n_lp) * (rng.uniform(size=n_lp) < 0.7)
        if np.all(r == 0):
            r[rng.integers(0, n_lp)] = 1.0
        val = r @ v0
        if i % 2 == 0:
            rows.append(r); senses.append(">="); consts.append(val - abs(rng.normal(0.2)))
        else:
            rows.append(r); senses.append("<="); consts.append(val + abs(rng.normal(0.2)))
    cons = []
    for r, s, b in zip(rows, senses, consts):
        psd = {}
        off = 0
        for blk, d in enumerate(dims):
            psd[blk] = np.diag(r[off:off + d])
            off += d
        cons.append(LinearConstraint(psd_coeffs=psd, orthant_coeffs=r[off:],
                                     constant=b, sense=s, label=f"r{len(cons)}"))
    obj_psd = []
    off = 0
    for d in dims:
        obj_psd.append(np.diag(c[off:off + d]))
        off += d
    prob = ConicProblem(psd_dims=tuple(dims), orthant_dim=n_orth,
                        objective_psd=tuple(obj_psd), objective_orthant=c[off:],
                        constraints=tuple(cons))
    return prob, (c, rows, senses, consts)


# ---------------------------------------------------------------------------
# evaluation of a conic problem at a point, and its KKT residuals


def constraint_value(problem, con, values):
    acc = float(con.orthant_coeffs @ values.orthant) if problem.orthant_dim else 0.0
    for b, c in con.psd_coeffs.items():
        acc += float(np.sum(c * values.psd[b]))
    return acc


def slacks(problem, values):
    """Signed slack per constraint (nonnegative means satisfied)."""
    out = np.empty(len(problem.constraints))
    for i, con in enumerate(problem.constraints):
        v = constraint_value(problem, con, values)
        out[i] = v - con.constant if con.sense == ">=" else con.constant - v
    return out


def objective_value(problem, values):
    acc = float(problem.objective_orthant @ values.orthant) if problem.orthant_dim else 0.0
    for b, c in enumerate(problem.objective_psd):
        acc += float(np.sum(c * values.psd[b]))
    return acc


def labels(problem):
    return [con.label for con in problem.constraints]


def rows(vmap, prefix):
    """(label, row) pairs for one constraint family, in built order."""
    return [(lab, i) for lab, i in vmap.row_index.items() if lab.startswith(prefix)]


def allocation_to_blocks(alloc, vmap):
    """Embed an allocation into the block layout of the built problem."""
    psd = [None] * (vmap.k_users + (1 if vmap.v_block is not None else 0))
    for k, b in enumerate(vmap.w_blocks):
        psd[b] = _embed_real(alloc.W[k])
    orth = np.zeros(vmap.j_users + (1 if vmap.v_orthant_index is not None else 0))
    orth[: vmap.j_users] = alloc.P
    if vmap.v_block is not None:
        psd[vmap.v_block] = _embed_real(alloc.V)
    elif vmap.v_orthant_index is not None:
        d = vmap.v_direction
        scale = float(np.trace(alloc.V).real)
        if scale > 0 and np.abs(alloc.V - scale * d).max() > 1e-8 * max(1.0, np.abs(alloc.V).max()):
            raise ValueError("allocation AN covariance is not on the baseline direction")
        orth[vmap.v_orthant_index] = scale
    return BlockValues(psd=tuple(psd), orthant=orth)


def kkt_residuals(problem, report):
    """(stationarity, primal feasibility, dual feasibility, complementarity) norms."""
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

    slack = slacks(problem, report.primal)
    pfeas = float(np.maximum(0.0, -slack).max(initial=0.0))
    for mat in report.primal.psd:
        pfeas = max(pfeas, max(0.0, -float(np.linalg.eigvalsh(mat)[0])))
    if problem.orthant_dim:
        pfeas = max(pfeas, max(0.0, -float(report.primal.orthant.min(initial=0.0))))

    dfeas = float(np.maximum(0.0, -mult).max(initial=0.0))
    for mat in report.psd_duals:
        dfeas = max(dfeas, max(0.0, -float(np.linalg.eigvalsh(mat)[0])))
    if problem.orthant_dim:
        dfeas = max(dfeas, max(0.0, -float(report.orthant_dual.min(initial=0.0))))

    comp = float(np.abs(slack * mult).sum())
    for mat, dual in zip(report.primal.psd, report.psd_duals):
        comp += abs(float(np.sum(mat * dual)))
    if problem.orthant_dim:
        comp += abs(float(report.primal.orthant @ report.orthant_dual))
    return stat, pfeas, dfeas, comp


def _duality_cov(h, lam, alpha):
    """alpha I + sum_i lambda_i h_i h_i^H over the DL channel rows h_i."""
    return alpha * np.eye(h.shape[1]) + (h.T * lam) @ h.conj()


def downlink_duality_multipliers(chan, cfg, max_rounds=10_000):
    """The uplink-downlink duality fixed point of a DL-only drop (J = 0, M = 0):
    lambda_k = 1 / ((1 + 1/gamma_k) h_k^H (alpha I + sum_i lambda_i h_i h_i^H)^-1 h_k).
    The iteration is a standard interference function, so it rises
    monotonically to the fixed point from 0.
    """
    h, gamma = chan.h, cfg.dl_sinr_targets
    lam = np.zeros(len(h))
    for _ in range(max_rounds):
        cov = _duality_cov(h, lam, cfg.alpha)
        gains = np.einsum("kn,nk->k", h.conj(), np.linalg.solve(cov, h.T)).real
        new = 1.0 / ((1.0 + 1.0 / gamma) * gains)
        if np.abs(new - lam).max() <= 1e-15 * new.max():
            return new
        lam = new
    raise RuntimeError("duality fixed point did not converge")


def downlink_duality_optimum(chan, cfg):
    """Least transmit power of a DL-only drop by uplink-downlink duality:
    sum_k lambda_k sigma_k^2 at the fixed point."""
    return float(downlink_duality_multipliers(chan, cfg) @ chan.sigma2_dl)


def downlink_duality_directions(chan, cfg):
    """Row k is (alpha I + sum_i lambda_i h_i h_i^H)^-1 h_k at the fixed point:
    the dual UL MMSE filter, which is user k's optimal DL beam up to scale
    (the beam w_k serves it with gain |h_k^H w_k|^2)."""
    h = chan.h
    lam = downlink_duality_multipliers(chan, cfg)
    return np.linalg.solve(_duality_cov(h, lam, cfg.alpha), h.T).T


# ---------------------------------------------------------------------------
# the plain forms of kernels the program computes with fewer operations


def embed_real_block(h):
    """Real symmetric embedding [[A, -B], [B, A]] of H = A + iB, by np.block."""
    h = np.asarray(h, dtype=complex)
    a, b = h.real, h.imag
    return np.block([[a, -b], [b, a]])


def scaled_rows_all(st, scal):
    """Rows of A in the scaled space, svec(G' A_i G) of every row on every
    block (none skipped as zero) and w*a on the orthant, for a solver stack
    ``st`` and its scaling ``scal``."""
    lay = st.lay
    atil = np.empty((len(st.sfs), len(lay.kept), lay.n_total))
    for k, (grp, g) in enumerate(zip(lay.groups, scal.g)):
        a_mats = np.stack([sf.a_mats[k] for sf in st.sfs])
        for j, cols in enumerate(grp.cols):
            g_blk = g[:, j, np.newaxis]
            prod = np.matmul(np.swapaxes(g_blk, -1, -2), np.matmul(a_mats[:, j], g_blk))
            atil[:, :, cols] = grp.svec(prod)
    atil[:, :, lay.n_sv:] = st.a[:, :, lay.n_sv:] * scal.w_orth[:, np.newaxis, :]
    return atil


def _cn_draw(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_channels_per_link(cfg, geometry, seed):
    """Reference for :func:`fdsec.channel.sample_channels`: one draw per link,
    in a Python loop, so its arrays fix the random stream bit for bit."""
    n, k, j, m = cfg.n_antennas, cfg.n_dl, cfg.n_ul, cfg.n_idle
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng([int(seed), 1, attempt])

        h = np.empty((k, n), dtype=complex)
        for i in range(k):
            h[i] = np.sqrt(_link_gain_lin(cfg, geometry.dl_dist[i], True)) * _cn_draw(rng, n)
        g = np.empty((j, n), dtype=complex)
        for i in range(j):
            g[i] = np.sqrt(_link_gain_lin(cfg, geometry.ul_dist[i], True)) * _cn_draw(rng, n)
        l = np.empty((m, n), dtype=complex)
        for i in range(m):
            l[i] = np.sqrt(_link_gain_lin(cfg, geometry.idle_dist[i], True)) * _cn_draw(rng, n)

        f = np.empty((j, k), dtype=complex)
        for jj in range(j):
            for kk in range(k):
                d = np.linalg.norm(geometry.ul_pos[jj] - geometry.dl_pos[kk])
                f[jj, kk] = np.sqrt(_link_gain_lin(cfg, d, False)) * _cn_draw(rng)
        t = np.empty((j, m), dtype=complex)
        for jj in range(j):
            for mm in range(m):
                d = np.linalg.norm(geometry.ul_pos[jj] - geometry.idle_pos[mm])
                t[jj, mm] = np.sqrt(_link_gain_lin(cfg, d, False)) * _cn_draw(rng)

        kappa = float(db2lin(cfg.rician_factor_db))
        los_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        los = np.sqrt(kappa / (1.0 + kappa)) * los_phase * np.ones((n, n))
        nlos = np.sqrt(1.0 / (1.0 + kappa)) * _cn_draw(rng, n, n)
        h_si = np.sqrt(db2lin(cfg.si_cancellation_db)) * (los + nlos)

        sigma2_dl, sigma2_bs, sigma2_eve = noise_powers(cfg)

        if j > 1:
            gram = np.abs(np.linalg.eigvalsh(g.conj() @ g.T))
            if np.sqrt(gram.max() / max(gram.min(), 1e-300)) > 1e10:
                continue
        return ChannelRealization(
            h=h, g=g, l=l, f=f, t=t, h_si=h_si,
            sigma2_dl=sigma2_dl, sigma2_bs=sigma2_bs, sigma2_eve=sigma2_eve,
        )
    raise RuntimeError(f"no well-conditioned UL channels after {MAX_RETRIES} attempts")
