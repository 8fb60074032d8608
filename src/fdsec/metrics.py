"""QoS evaluation for a candidate allocation: the one post-solve row model.

Everything is computed in covariance (trace) form so relaxed solutions of
any rank remain evaluable; extracted rank-one beamformers are carried
alongside when available. Eavesdropper SINRs use the worst-case upper
bounds (interference-free denominators) that the optimization constrains.

One vectorized pass, :func:`quad_table`, computes every quadratic form and
gain that the QoS rows C1-C5 read. The SINRs, the eavesdropper bounds, the
secrecy rates and the row margins with their activities all come from that
table, and so do the power polish and the C1 tightness of
:mod:`fdsec.certificates`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


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
    """Signed slack per constraint; nonnegative means satisfied.

    ``activity`` holds, in the same shapes, each row's sum of the
    magnitudes of its terms: the natural scale of its slack.
    """

    c1: np.ndarray  # (K,)   DL SINR targets
    c2: np.ndarray  # (J,)   UL SINR targets
    c3: np.ndarray  # (M, K) DL eavesdropper caps
    c4: np.ndarray  # (M, J) UL eavesdropper caps
    c5: np.ndarray  # (J,)   UL power nonnegativity
    activity: tuple  # (a1, a2, a3, a4, a5)

    def worst(self):
        """Worst slack / activity over all rows (0.0 when there is none)."""
        slack = np.concatenate([np.ravel(c) for c in (self.c1, self.c2, self.c3, self.c4, self.c5)])
        scale = np.concatenate([np.ravel(a) for a in self.activity])
        return float((slack / np.maximum(scale, 1e-300)).min()) if slack.size else 0.0


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


def link_vectors(chan, receivers):
    """(K+J, N) rows through which the links hear the BS transmission.

    Rows h_1..h_K of the DL users, then the self-interference directions
    a_j = H_SI^H r_j of the UL receivers: link r hears a covariance X as
    v_r^H X v_r.
    """
    return np.vstack([chan.h, receivers.r @ chan.h_si.conj()])


def quad_forms(vecs, mats):
    """Re(v_a^H M_b v_a) for rows v_a of ``vecs`` and matrices M_b: shape (a, b)."""
    return np.einsum("ban,an->ab", vecs.conj() @ mats, vecs).real


@dataclass(frozen=True)
class QuadTable:
    """Every term of the QoS rows C1-C5 of one allocation.

    Links r = 0..K+J-1 are the K DL users, then the J UL receivers; idle
    users are m = 0..M-1. In x = (1, ..., 1, P), beam terms carry their
    matrix's power and UL terms are per watt. Link r receives own[r] * x_r
    of signal, cross[r] @ x of interference, an[r] of artificial noise and
    noise[r] of receiver noise. Idle user m hears eve[m, r] * x_r of link
    r's message over eve_an[m] + eve_noise[m].
    """

    own: np.ndarray        # (K+J,)
    cross: np.ndarray      # (K+J, K+J), zero diagonal
    an: np.ndarray         # (K+J,)
    noise: np.ndarray      # (K+J,)
    eve: np.ndarray        # (M, K+J)
    eve_an: np.ndarray     # (M,)
    eve_noise: np.ndarray  # (M,)
    x: np.ndarray          # (K+J,)
    k_users: int

    def sinrs(self):
        """Receive SINR of every link, (K+J,)."""
        return self.own * self.x / (self.cross @ self.x + self.an + self.noise)

    def eve_bounds(self):
        """Worst-case eavesdropper SINR bounds, (M, K+J)."""
        return self.eve * self.x / (self.eve_an + self.eve_noise)[:, np.newaxis]

    def margins(self, cfg):
        """Slack and activity of every row C1-C5."""
        k = self.k_users
        targets = np.concatenate([cfg.dl_sinr_targets, cfg.ul_sinr_targets])
        signal = self.own * self.x / targets
        terms = self.cross * self.x
        s12 = signal - (terms.sum(axis=1) + self.an + self.noise)
        a12 = np.abs(signal) + np.abs(terms).sum(axis=1) + np.abs(self.an) + self.noise
        leak = self.eve * self.x / cfg.eve_sinr_cap
        s34 = (self.eve_an + self.eve_noise)[:, np.newaxis] - leak
        a34 = (np.abs(self.eve_an) + self.eve_noise)[:, np.newaxis] + np.abs(leak)
        p = self.x[k:]
        return Margins(c1=s12[:k], c2=s12[k:], c3=s34[:, :k], c4=s34[:, k:], c5=p.copy(),
                       activity=(a12[:k], a12[k:], a34[:, :k], a34[:, k:], np.abs(p)))


def quad_table(alloc, chan):
    """The :class:`QuadTable` of an allocation, in one vectorized pass."""
    k, n = len(alloc.W), chan.h.shape[1]
    r = alloc.receivers.r
    links = link_vectors(chan, alloc.receivers)
    w = np.array(alloc.W).reshape(-1, n, n)
    v = np.asarray(alloc.V)[np.newaxis]
    gains = np.abs(chan.g.conj() @ r.T) ** 2              # [i, j] = |g_i^H r_j|^2
    cross = np.hstack([quad_forms(links, w), np.vstack([np.abs(chan.f.T) ** 2, gains.T])])
    own = np.diag(cross).copy()
    np.fill_diagonal(cross, 0.0)
    return QuadTable(
        own=own, cross=cross, an=quad_forms(links, v)[:, 0],
        noise=np.concatenate([chan.sigma2_dl, chan.sigma2_bs * np.linalg.norm(r, axis=1) ** 2]),
        eve=np.hstack([quad_forms(chan.l, w), np.abs(chan.t.T) ** 2]),
        eve_an=quad_forms(chan.l, v)[:, 0], eve_noise=chan.sigma2_eve,
        x=np.concatenate([np.ones(k), alloc.P]), k_users=k,
    )


def dl_sinr(k, alloc, chan):
    """Receive SINR at DL user k, covariance form."""
    return float(quad_table(alloc, chan).sinrs()[k])


def ul_sinr(j, alloc, chan):
    """Receive SINR of UL user j at the BS for the configured receivers."""
    return float(quad_table(alloc, chan).sinrs()[len(alloc.W) + j])


def eve_dl_sinr_ub(m, k, alloc, chan):
    """Worst-case bound on idle user m's SINR for DL user k's message."""
    return float(quad_table(alloc, chan).eve_bounds()[m, k])


def eve_ul_sinr_ub(m, j, alloc, chan):
    """Worst-case bound on idle user m's SINR for UL user j's message."""
    return float(quad_table(alloc, chan).eve_bounds()[m, len(alloc.W) + j])


def _secrecy(sinrs, eve_bounds):
    """Nonnegative secrecy rate of every link against its best eavesdropper."""
    eve = np.log2(1.0 + eve_bounds.max(axis=0, initial=0.0))
    return np.maximum(np.log2(1.0 + sinrs) - eve, 0.0)


def secrecy_rates(alloc, chan):
    """Nonnegative DL and UL secrecy rates against the best eavesdropper."""
    table = quad_table(alloc, chan)
    rates = _secrecy(table.sinrs(), table.eve_bounds())
    return rates[:table.k_users], rates[table.k_users:]


def objective(alloc, cfg):
    """Weighted sum of DL (beams plus AN) and UL transmit powers, watts."""
    dl_power = sum(float(np.trace(w).real) for w in alloc.W) + float(np.trace(alloc.V).real)
    return cfg.alpha * dl_power + cfg.beta * float(alloc.P.sum())


def constraint_margins(alloc, chan, cfg):
    """Signed slacks and activities of the QoS constraint system."""
    return quad_table(alloc, chan).margins(cfg)


def evaluate_qos(alloc, chan, cfg):
    """Full QoS report for one allocation."""
    table = quad_table(alloc, chan)
    k = table.k_users
    sinrs, eve = table.sinrs(), table.eve_bounds()
    rates = _secrecy(sinrs, eve)
    return QosReport(
        dl_sinr=sinrs[:k], ul_sinr=sinrs[k:],
        eve_dl_sinr_ub=eve[:, :k], eve_ul_sinr_ub=eve[:, k:],
        dl_secrecy=rates[:k], ul_secrecy=rates[k:],
        objective=objective(alloc, cfg),
        margins=table.margins(cfg),
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
    return vals
