"""QoS evaluation for a candidate allocation: the one post-solve row model.

Everything is computed in covariance (trace) form so relaxed solutions of
any rank remain evaluable; extracted rank-one beamformers are carried
alongside when available. Eavesdropper SINRs use the worst-case upper
bounds (interference-free denominators) that the optimization constrains.

The rows C1-C5 have two shapes: a link row (own signal over its target
against interference, AN and noise) and an eavesdropper row (leakage over
the cap against AN and noise). :func:`link_model` holds their channel
terms; a trial computes it once, and every later stage takes it in place
of the channel and receivers: the conic assembly of :mod:`fdsec.problem`,
the QoS, the power polish, the dual certificate and the half-duplex
precheck. One vectorized pass over it, :func:`quad_table`, computes every
term of the rows at an allocation. The SINRs, the eavesdropper bounds, the
secrecy rates and the row margins with their activities all come from that
table through :func:`evaluate_qos`, the one QoS entry point; the power
polish and the C1 tightness of :mod:`fdsec.certificates` read the table
itself.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Allocation:
    """DL beamforming matrices, AN covariance, UL powers, and receivers."""

    W: tuple                 # K Hermitian (N, N) matrices
    V: np.ndarray            # (N, N) artificial-noise covariance
    P: np.ndarray            # (J,) UL transmit powers, W
    receivers: object        # ReceiverSet

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


@dataclass(frozen=True)
class LinkModel:
    """Channel side of the rows C1-C5 for one (channel, receivers) pair.

    Links r = 0..K+J-1 are the K DL users, then the J UL receivers; idle
    users are m = 0..M-1. Link r hears a BS covariance X as v_r^H X v_r
    and UL user j's power as ul[r, j] per watt (its own signal at
    r = K + j); idle user m hears X as l_m^H X l_m and UL user j as
    eve_ul[m, j] per watt.
    """

    vecs: np.ndarray       # (K+J, N) h_k, then a_j = H_SI^H r_j
    ul: np.ndarray         # (K+J, J) |f_jk|^2, then |g_i^H r_j|^2 at [K + j, i]
    noise: np.ndarray      # (K+J,) sigma2_dl, then sigma2_bs |r_j|^2
    eves: np.ndarray       # (M, N) l_m
    eve_ul: np.ndarray     # (M, J) |t_jm|^2
    eve_noise: np.ndarray  # (M,)
    k_users: int


def link_model(chan, receivers):
    """The :class:`LinkModel` of a channel and its UL receivers.

    a_j, |r_j|^2 and |t_jm|^2 are computed one receiver and one scalar at
    a time: numpy's batched forms round differently in the last bit, and
    the IPM's iterates follow the last bits of the rows it is given.
    """
    r = receivers.r
    gains = np.abs(chan.g.conj() @ r.T) ** 2              # [i, j] = |g_i^H r_j|^2
    eve_ul = [[abs(x) ** 2 for x in col] for col in chan.t.T.tolist()]
    return LinkModel(
        vecs=np.vstack([chan.h, *(chan.h_si.conj().T @ r_j for r_j in r)]),
        ul=np.vstack([np.abs(chan.f.T) ** 2, gains.T]),
        noise=np.concatenate([chan.sigma2_dl,
                              [chan.sigma2_bs * float(np.linalg.norm(r_j) ** 2) for r_j in r]]),
        eves=chan.l, eve_ul=np.array(eve_ul).reshape(chan.l.shape[0], r.shape[0]),
        eve_noise=chan.sigma2_eve, k_users=chan.h.shape[0],
    )


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


def quad_table(alloc, model):
    """The :class:`QuadTable` of an allocation over a :class:`LinkModel`."""
    n = model.vecs.shape[1]
    w = np.array(alloc.W).reshape(-1, n, n)
    v = np.asarray(alloc.V)[np.newaxis]
    cross = np.hstack([quad_forms(model.vecs, w), model.ul])
    own = np.diag(cross).copy()
    np.fill_diagonal(cross, 0.0)
    return QuadTable(
        own=own, cross=cross, an=quad_forms(model.vecs, v)[:, 0], noise=model.noise,
        eve=np.hstack([quad_forms(model.eves, w), model.eve_ul]),
        eve_an=quad_forms(model.eves, v)[:, 0], eve_noise=model.eve_noise,
        x=np.concatenate([np.ones(model.k_users), alloc.P]), k_users=model.k_users,
    )


def _secrecy(sinrs, eve_bounds):
    """Nonnegative secrecy rate of every link against its best eavesdropper."""
    eve = np.log2(1.0 + eve_bounds.max(axis=0, initial=0.0))
    return np.maximum(np.log2(1.0 + sinrs) - eve, 0.0)


def dl_power(alloc):
    """DL transmit power, beams plus artificial noise, watts."""
    return sum(float(np.trace(w).real) for w in alloc.W) + float(np.trace(alloc.V).real)


def objective(alloc, cfg):
    """Weighted sum of DL (beams plus AN) and UL transmit powers, watts."""
    return cfg.alpha * dl_power(alloc) + cfg.beta * float(alloc.P.sum())


def evaluate_qos(alloc, model, cfg):
    """Full QoS report for one allocation over a :class:`LinkModel`: the one
    QoS entry point."""
    table = quad_table(alloc, model)
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


def qos_csv_fields(report):
    """One QosReport as {column of :func:`qos_csv_header`: value}."""
    m_users, k_users = report.eve_dl_sinr_ub.shape
    values = np.concatenate([report.dl_sinr, report.ul_sinr, report.eve_dl_sinr_ub.ravel(),
                             report.eve_ul_sinr_ub.ravel(), report.dl_secrecy, report.ul_secrecy])
    return dict(zip(qos_csv_header(k_users, report.ul_sinr.size, m_users), values, strict=True))
