"""QoS evaluation for a candidate allocation.

Everything is computed in covariance (trace) form so relaxed solutions of
any rank remain evaluable; extracted rank-one beamformers are carried
alongside when available. Eavesdropper SINRs use the worst-case upper
bounds (interference-free denominators) that the optimization constrains.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


def quad_form(vec, mat):
    """Real value of vec^H M vec for Hermitian M."""
    return float(np.real(vec.conj() @ mat @ vec))


@dataclass(frozen=True)
class Allocation:
    """DL beamforming matrices, AN covariance, UL powers, and receivers."""

    W: tuple                 # K Hermitian (N, N) matrices
    V: np.ndarray            # (N, N) artificial-noise covariance
    P: np.ndarray            # (J,) UL transmit powers, W
    receivers: object        # ReceiverSet
    w: Optional[tuple] = None  # extracted beamformers when rank one

    def __post_init__(self):
        object.__setattr__(self, "W", tuple(np.asarray(m, dtype=complex) for m in self.W))
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        for m in (*self.W, self.V):
            if not np.all(np.isfinite(m.view(float))):
                raise ValueError("allocation matrices must be finite")
            if np.abs(m - m.conj().T).max() > 1e-8 * max(1.0, np.abs(m).max()):
                raise ValueError("allocation matrices must be Hermitian")
        if np.any(self.P < -1e-12):
            raise ValueError("UL powers must be nonnegative")


@dataclass(frozen=True)
class Margins:
    """Signed slack per constraint; nonnegative means satisfied."""

    c1: np.ndarray  # (K,)   DL SINR targets
    c2: np.ndarray  # (J,)   UL SINR targets
    c3: np.ndarray  # (M, K) DL eavesdropper caps
    c4: np.ndarray  # (M, J) UL eavesdropper caps
    c5: np.ndarray  # (J,)   UL power nonnegativity

    def worst(self):
        parts = [m.min() for m in (self.c1, self.c2, self.c3, self.c4, self.c5) if m.size]
        return min(parts) if parts else 0.0


@dataclass(frozen=True)
class QosReport:
    dl_sinr: np.ndarray         # (K,)
    ul_sinr: np.ndarray         # (J,)
    eve_dl_sinr_ub: np.ndarray  # (M, K)
    eve_ul_sinr_ub: np.ndarray  # (M, J)
    dl_secrecy: np.ndarray      # (K,) bit/s/Hz
    ul_secrecy: np.ndarray      # (J,)
    objective: float            # weighted power, W
    margins: Margins


def _si_vector(j, alloc, chan):
    """Self-interference direction H_SI^H r_j seen by receiver j."""
    return chan.h_si.conj().T @ alloc.receivers.r[j]


def dl_sinr(k, alloc, chan):
    """Receive SINR at DL user k, covariance form."""
    h = chan.h[k]
    signal = quad_form(h, alloc.W[k])
    interference = sum(quad_form(h, alloc.W[i]) for i in range(len(alloc.W)) if i != k)
    interference += float(alloc.P @ (np.abs(chan.f[:, k]) ** 2))
    interference += quad_form(h, alloc.V)
    return signal / (interference + chan.sigma2_dl[k])


def ul_sinr(j, alloc, chan):
    """Receive SINR of UL user j at the BS for the configured receivers."""
    r = alloc.receivers.r[j]
    gains = np.abs(chan.g.conj() @ r) ** 2  # |g_i^H r_j|^2
    signal = alloc.P[j] * gains[j]
    interference = float(np.delete(alloc.P * gains, j).sum())
    a = _si_vector(j, alloc, chan)
    interference += sum(quad_form(a, w) for w in alloc.W) + quad_form(a, alloc.V)
    noise = chan.sigma2_bs * float(np.linalg.norm(r) ** 2)
    return signal / (interference + noise)


def eve_dl_sinr_ub(m, k, alloc, chan):
    """Worst-case bound on idle user m's SINR for DL user k's message."""
    l_vec = chan.l[m]
    return quad_form(l_vec, alloc.W[k]) / (quad_form(l_vec, alloc.V) + chan.sigma2_eve[m])


def eve_ul_sinr_ub(m, j, alloc, chan):
    """Worst-case bound on idle user m's SINR for UL user j's message."""
    l_vec = chan.l[m]
    num = alloc.P[j] * abs(chan.t[j, m]) ** 2
    return num / (quad_form(l_vec, alloc.V) + chan.sigma2_eve[m])


def secrecy_rates(alloc, chan):
    """Nonnegative DL and UL secrecy rates against the best eavesdropper."""
    k_users = len(alloc.W)
    j_users = alloc.P.size
    m_users = chan.l.shape[0]
    dl = np.empty(k_users)
    for k in range(k_users):
        legit = np.log2(1.0 + dl_sinr(k, alloc, chan))
        eve = max(
            (np.log2(1.0 + eve_dl_sinr_ub(m, k, alloc, chan)) for m in range(m_users)),
            default=0.0,
        )
        dl[k] = max(legit - eve, 0.0)
    ul = np.empty(j_users)
    for j in range(j_users):
        legit = np.log2(1.0 + ul_sinr(j, alloc, chan))
        eve = max(
            (np.log2(1.0 + eve_ul_sinr_ub(m, j, alloc, chan)) for m in range(m_users)),
            default=0.0,
        )
        ul[j] = max(legit - eve, 0.0)
    return dl, ul


def objective(alloc, cfg):
    """Weighted sum of DL (beams plus AN) and UL transmit powers, watts."""
    dl_power = sum(float(np.trace(w).real) for w in alloc.W) + float(np.trace(alloc.V).real)
    return cfg.alpha * dl_power + cfg.beta * float(alloc.P.sum())


def constraint_margins(alloc, chan, cfg):
    """Signed slacks of the QoS constraint system at this allocation."""
    k_users, j_users, m_users = len(alloc.W), alloc.P.size, chan.l.shape[0]
    gamma_dl = cfg.dl_sinr_targets
    gamma_ul = cfg.ul_sinr_targets
    gamma_tol = cfg.eve_sinr_cap

    c1 = np.empty(k_users)
    for k in range(k_users):
        h = chan.h[k]
        others = sum(quad_form(h, alloc.W[i]) for i in range(k_users) if i != k)
        others += float(alloc.P @ (np.abs(chan.f[:, k]) ** 2)) if j_users else 0.0
        others += quad_form(h, alloc.V) + chan.sigma2_dl[k]
        c1[k] = quad_form(h, alloc.W[k]) / gamma_dl[k] - others

    c2 = np.empty(j_users)
    for j in range(j_users):
        r = alloc.receivers.r[j]
        gains = np.abs(chan.g.conj() @ r) ** 2
        a = _si_vector(j, alloc, chan)
        others = float(np.delete(alloc.P * gains, j).sum())
        others += sum(quad_form(a, w) for w in alloc.W) + quad_form(a, alloc.V)
        others += chan.sigma2_bs * float(np.linalg.norm(r) ** 2)
        c2[j] = alloc.P[j] * gains[j] / gamma_ul[j] - others

    c3 = np.empty((m_users, k_users))
    c4 = np.empty((m_users, j_users))
    for m in range(m_users):
        l_vec = chan.l[m]
        an_floor = quad_form(l_vec, alloc.V) + chan.sigma2_eve[m]
        for k in range(k_users):
            c3[m, k] = an_floor - quad_form(l_vec, alloc.W[k]) / gamma_tol
        for j in range(j_users):
            c4[m, j] = an_floor - alloc.P[j] * abs(chan.t[j, m]) ** 2 / gamma_tol

    c5 = alloc.P.copy()
    return Margins(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5)


def evaluate_qos(alloc, chan, cfg):
    """Full QoS report for one allocation."""
    k_users, j_users, m_users = len(alloc.W), alloc.P.size, chan.l.shape[0]
    dl_secrecy, ul_secrecy = secrecy_rates(alloc, chan)
    return QosReport(
        dl_sinr=np.array([dl_sinr(k, alloc, chan) for k in range(k_users)]),
        ul_sinr=np.array([ul_sinr(j, alloc, chan) for j in range(j_users)]),
        eve_dl_sinr_ub=np.array(
            [[eve_dl_sinr_ub(m, k, alloc, chan) for k in range(k_users)] for m in range(m_users)]
        ).reshape(m_users, k_users),
        eve_ul_sinr_ub=np.array(
            [[eve_ul_sinr_ub(m, j, alloc, chan) for j in range(j_users)] for m in range(m_users)]
        ).reshape(m_users, j_users),
        dl_secrecy=dl_secrecy,
        ul_secrecy=ul_secrecy,
        objective=objective(alloc, cfg),
        margins=constraint_margins(alloc, chan, cfg),
    )


def qos_csv_header(k_users, j_users, m_users):
    """Column order for one QosReport row (prefix columns added by callers)."""
    cols = []
    cols += [f"dl_sinr_{k}" for k in range(k_users)]
    cols += [f"ul_sinr_{j}" for j in range(j_users)]
    cols += [f"eve_dl_ub_{m}_{k}" for m in range(m_users) for k in range(k_users)]
    cols += [f"eve_ul_ub_{m}_{j}" for m in range(m_users) for j in range(j_users)]
    cols += [f"dl_secrecy_{k}" for k in range(k_users)]
    cols += [f"ul_secrecy_{j}" for j in range(j_users)]
    cols += ["objective_w", "min_margin"]
    return cols


def qos_csv_row(report):
    """Values matching :func:`qos_csv_header`."""
    vals = []
    vals += list(report.dl_sinr)
    vals += list(report.ul_sinr)
    vals += list(report.eve_dl_sinr_ub.ravel())
    vals += list(report.eve_ul_sinr_ub.ravel())
    vals += list(report.dl_secrecy)
    vals += list(report.ul_secrecy)
    vals += [report.objective, report.margins.worst()]
    return vals
