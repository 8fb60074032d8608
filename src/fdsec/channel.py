"""Random system drops: geometry, path loss, fading, self-interference, noise.

One drop places K downlink users, J uplink users, and M idle receivers
uniformly in distance between the reference distance and the cell edge,
then draws Rayleigh-faded links scaled by a log-distance path-loss model
and a Rician-faded residual self-interference channel.
"""

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 3e8
MAX_RETRIES = 20  # fading draws tried per seed for a well-conditioned UL matrix


def db2lin(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm2watt(x_dbm):
    return 10.0 ** (np.asarray(x_dbm, dtype=float) / 10.0) * 1e-3


def watt2dbm(x_w):
    """dBm of powers in W; 0 W, the optimum of a zero-cost objective, is -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(x_w, dtype=float) * 1e3)


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters; physical constants default to the standard setup."""

    n_antennas: int = 8
    n_dl: int = 6
    n_ul: int = 3
    n_idle: int = 5
    gamma_dl_req_db: tuple = ()        # per DL user; empty -> shared default below
    gamma_ul_req_db: tuple = ()        # per UL user
    gamma_dl_req_default_db: float = 12.0
    gamma_ul_req_default_db: float = 10.0
    gamma_tol_db: float = -10.0        # shared eavesdropper SINR cap
    alpha: float = 1.0                 # DL transmit power weight
    beta: float = 1.0                  # UL transmit power weight
    carrier_hz: float = 1.9e9
    pathloss_exponent: float = 3.6
    ref_distance_m: float = 30.0
    max_distance_m: float = 500.0
    si_cancellation_db: float = -110.0
    thermal_noise_dbm: float = -121.0  # -174 dBm/Hz over a 200 kHz band
    user_noise_figure_db: float = 9.0
    bs_noise_figure_db: float = 2.0
    bs_antenna_gain_dbi: float = 18.0
    rician_factor_db: float = 6.0

    def __post_init__(self):
        if min(self.n_dl, self.n_ul, self.n_idle) < 0:
            raise ValueError("user counts n_dl, n_ul and n_idle must be nonnegative")
        if self.n_antennas <= self.n_ul or self.n_antennas <= self.n_idle:
            raise ValueError("need N > J and N > M for UL detection and security")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("objective weights must be nonnegative")
        if len(self.gamma_dl_req_db) not in (0, self.n_dl):
            raise ValueError("gamma_dl_req_db must have one entry per DL user")
        if len(self.gamma_ul_req_db) not in (0, self.n_ul):
            raise ValueError("gamma_ul_req_db must have one entry per UL user")
        object.__setattr__(self, "gamma_dl_req_db", tuple(float(g) for g in self.gamma_dl_req_db))
        object.__setattr__(self, "gamma_ul_req_db", tuple(float(g) for g in self.gamma_ul_req_db))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (float, tuple) and not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.ref_distance_m <= self.max_distance_m:
            raise ValueError("need 0 < ref_distance_m <= max_distance_m")

    @property
    def dl_sinr_targets(self):
        """Linear minimum required DL SINRs, one per DL user."""
        g = self.gamma_dl_req_db or (self.gamma_dl_req_default_db,) * self.n_dl
        return db2lin(np.array(g))

    @property
    def ul_sinr_targets(self):
        g = self.gamma_ul_req_db or (self.gamma_ul_req_default_db,) * self.n_ul
        return db2lin(np.array(g))

    @property
    def eve_sinr_cap(self):
        """Linear maximum tolerable eavesdropper SINR."""
        return float(db2lin(self.gamma_tol_db))

    def with_updates(self, **kw):
        return replace(self, **kw)


CONFIG_FIELD_TYPES = {f.name: f.type for f in fields(SystemConfig)}


@dataclass(frozen=True)
class Geometry:
    """User positions (meters, BS at the origin) and BS distances for one drop."""

    dl_pos: np.ndarray      # (K, 2)
    ul_pos: np.ndarray      # (J, 2)
    idle_pos: np.ndarray    # (M, 2)

    @property
    def dl_dist(self):
        return np.linalg.norm(self.dl_pos, axis=1)

    @property
    def ul_dist(self):
        return np.linalg.norm(self.ul_pos, axis=1)

    @property
    def idle_dist(self):
        return np.linalg.norm(self.idle_pos, axis=1)


@dataclass(frozen=True)
class ChannelRealization:
    """All links and noise powers for one scheduling slot."""

    h: np.ndarray           # (K, N) BS -> DL user rows
    g: np.ndarray           # (J, N) UL user -> BS rows
    l: np.ndarray           # (M, N) BS -> idle user rows
    f: np.ndarray           # (J, K) UL user -> DL user scalars
    t: np.ndarray           # (J, M) UL user -> idle user scalars
    h_si: np.ndarray        # (N, N) residual self-interference channel
    sigma2_dl: np.ndarray   # (K,) DL receiver noise powers, W
    sigma2_bs: float        # per-antenna BS noise power, W
    sigma2_eve: np.ndarray  # (M,) idle-receiver noise powers, W

    def __post_init__(self):
        for name in ("h", "g", "l", "f", "t", "h_si"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError(f"channel {name} has non-finite entries")
        if np.any(self.sigma2_dl <= 0) or self.sigma2_bs <= 0 or np.any(self.sigma2_eve <= 0):
            raise ValueError("noise powers must be strictly positive")


def path_loss_db(d_m, cfg):
    """Log-distance path loss anchored at free-space loss for the reference distance."""
    d_m = float(d_m)
    if d_m < cfg.ref_distance_m:
        raise ValueError(f"distance {d_m} m below reference {cfg.ref_distance_m} m")
    fspl_ref = 20.0 * np.log10(4.0 * np.pi * cfg.ref_distance_m * cfg.carrier_hz / SPEED_OF_LIGHT)
    return fspl_ref + 10.0 * cfg.pathloss_exponent * np.log10(d_m / cfg.ref_distance_m)


def noise_powers(cfg):
    """(DL-user, BS per-antenna, idle-user) noise powers in watts."""
    sigma2_user = dbm2watt(cfg.thermal_noise_dbm + cfg.user_noise_figure_db)
    sigma2_bs = float(dbm2watt(cfg.thermal_noise_dbm + cfg.bs_noise_figure_db))
    k, m = cfg.n_dl, cfg.n_idle
    return np.full(k, sigma2_user), sigma2_bs, np.full(m, sigma2_user)


def drop_geometry(cfg, seed):
    """Place users with i.i.d. uniform BS distances on [ref, max] and uniform bearing."""
    rng = np.random.default_rng([int(seed), 0])
    total = cfg.n_dl + cfg.n_ul + cfg.n_idle
    radius = rng.uniform(cfg.ref_distance_m, cfg.max_distance_m, size=total)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=total)
    pos = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    k, j = cfg.n_dl, cfg.n_ul
    return Geometry(dl_pos=pos[:k], ul_pos=pos[k:k + j], idle_pos=pos[k + j:])


def _link_gain_lin(cfg, d_m, bs_side):
    """Mean linear power gain of one link; BS-side links add the array gain."""
    d_eff = max(float(d_m), cfg.ref_distance_m)
    gain_db = -path_loss_db(d_eff, cfg)
    if bs_side:
        gain_db += cfg.bs_antenna_gain_dbi
    return float(db2lin(gain_db))


def _cn(re, im):
    """Standard circularly-symmetric complex Gaussians from real and
    imaginary standard normal draws."""
    return (re + 1j * im) / np.sqrt(2.0)


def _pair_amplitudes(cfg, tx_pos, rx_pos):
    """Fading amplitude of each user-to-user link, (len(tx_pos), len(rx_pos))."""
    return np.array([[np.sqrt(_link_gain_lin(cfg, np.linalg.norm(a - b), False)) for b in rx_pos]
                     for a in tx_pos]).reshape(len(tx_pos), len(rx_pos))


def sample_channels(cfg, geometry, seed):
    """Draw one fading realization for the given geometry.

    BS-side links (h, g, l) are Rayleigh with the array gain applied;
    user-to-user links (f, t) are Rayleigh from pairwise distances; the
    self-interference channel is Rician with unit mean power scaled by the
    cancellation budget. Retries (logged) if the UL channel matrix is
    ill-conditioned, which matters only on a probability-zero event.

    Each link group is drawn in one call, in the stream order of one draw
    per link: a BS-side row takes its N real parts, then its N imaginary
    parts, and a user-to-user link its real part, then its imaginary part.
    The mean gains stay scalar: numpy's array ``power`` can differ from
    the scalar one in the last bit.
    """
    n, k, j, m = cfg.n_antennas, cfg.n_dl, cfg.n_ul, cfg.n_idle
    dists = np.concatenate([geometry.dl_dist, geometry.ul_dist, geometry.idle_dist])
    bs_amp = np.array([np.sqrt(_link_gain_lin(cfg, d, True)) for d in dists])[:, np.newaxis]
    f_amp = _pair_amplitudes(cfg, geometry.ul_pos, geometry.dl_pos)
    t_amp = _pair_amplitudes(cfg, geometry.ul_pos, geometry.idle_pos)
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng([int(seed), 1, attempt])

        z = rng.standard_normal((k + j + m, 2, n))
        bs = bs_amp * _cn(z[:, 0], z[:, 1])
        h, g, l = bs[:k], bs[k:k + j], bs[k + j:]
        z = rng.standard_normal((j, k, 2))
        f = f_amp * _cn(z[..., 0], z[..., 1])
        z = rng.standard_normal((j, m, 2))
        t = t_amp * _cn(z[..., 0], z[..., 1])

        kappa = float(db2lin(cfg.rician_factor_db))
        los_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        los = np.sqrt(kappa / (1.0 + kappa)) * los_phase * np.ones((n, n))
        z = rng.standard_normal((2, n, n))
        nlos = np.sqrt(1.0 / (1.0 + kappa)) * _cn(z[0], z[1])
        h_si = np.sqrt(db2lin(cfg.si_cancellation_db)) * (los + nlos)

        sigma2_dl, sigma2_bs, sigma2_eve = noise_powers(cfg)

        if j > 1:
            gram = np.abs(np.linalg.eigvalsh(g.conj() @ g.T))
            cond = np.sqrt(gram.max() / max(gram.min(), 1e-300))
            if cond > 1e10:
                log.warning("ill-conditioned UL channel matrix (cond %.2e), retrying", cond)
                continue
        return ChannelRealization(
            h=h, g=g, l=l, f=f, t=t, h_si=h_si,
            sigma2_dl=sigma2_dl, sigma2_bs=sigma2_bs, sigma2_eve=sigma2_eve,
        )
    raise RuntimeError(f"no well-conditioned UL channels after {MAX_RETRIES} attempts")


def realize(cfg, seed):
    """Geometry plus channels for one seed (the per-trial entry point)."""
    geometry = drop_geometry(cfg, seed)
    return geometry, sample_channels(cfg, geometry, seed)
