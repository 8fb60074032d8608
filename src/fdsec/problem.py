"""Assemble the power-minimization conic program and map solutions back.

The relaxed problem is a linear objective over K+1 Hermitian PSD variables
(DL beamforming matrices and the AN covariance) plus nonnegative UL powers,
with one affine inequality per QoS constraint. Hermitian data is embedded
into real symmetric blocks with a factor 1/2 so every linear functional
keeps its complex-domain value, and reported powers stay physical. The
embedding is private to this module: callers get Hermitian matrices back
from :func:`recover_allocation` and :func:`recover_duals`.

Baseline schemes replace the AN covariance by a nonnegative power on a
fixed unit-trace direction; the half-duplex probe removes it entirely.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import Allocation

SENSES = (">=", "<=")


@dataclass(frozen=True)
class LinearConstraint:
    """One affine inequality: sum of block functionals {>=,<=} constant."""

    psd_coeffs: dict          # block index -> real symmetric coefficient
    orthant_coeffs: np.ndarray
    constant: float
    sense: str
    label: str


@dataclass(frozen=True)
class BlockValues:
    """A point in the variable space: one matrix per PSD block plus orthant."""

    psd: tuple
    orthant: np.ndarray


@dataclass(frozen=True)
class ConicProblem:
    psd_dims: tuple
    orthant_dim: int
    objective_psd: tuple      # one real symmetric matrix per PSD block
    objective_orthant: np.ndarray
    constraints: tuple

    def validate(self):
        for d in self.psd_dims:
            if d <= 0 or d % 2 != 0:
                raise ValueError("PSD block dims must be positive and even")
        if len(self.objective_psd) != len(self.psd_dims):
            raise ValueError("objective must cover every PSD block")
        for b, c in enumerate(self.objective_psd):
            if c.shape != (self.psd_dims[b], self.psd_dims[b]):
                raise ValueError(f"objective block {b} has wrong shape")
            if not np.all(np.isfinite(c)):
                raise ValueError("objective coefficients must be finite")
        if self.objective_orthant.shape != (self.orthant_dim,):
            raise ValueError("orthant objective has wrong length")
        for con in self.constraints:
            if con.sense not in SENSES:
                raise ValueError(f"unknown sense {con.sense!r}")
            if con.orthant_coeffs.shape != (self.orthant_dim,):
                raise ValueError(f"{con.label}: orthant coefficient length mismatch")
            for b, c in con.psd_coeffs.items():
                if not (0 <= b < len(self.psd_dims)):
                    raise ValueError(f"{con.label}: references undeclared block {b}")
                if c.shape != (self.psd_dims[b], self.psd_dims[b]):
                    raise ValueError(f"{con.label}: block {b} coefficient shape mismatch")
            if not np.isfinite(con.constant):
                raise ValueError(f"{con.label}: non-finite constant")
        return self

    def constraint_value(self, con, values):
        acc = float(con.orthant_coeffs @ values.orthant) if self.orthant_dim else 0.0
        for b, c in con.psd_coeffs.items():
            acc += float(np.sum(c * values.psd[b]))
        return acc

    def row_activity(self, con, values):
        """Sum of absolute term magnitudes; the natural scale for slacks."""
        acc = abs(con.constant)
        if self.orthant_dim:
            acc += float(np.abs(con.orthant_coeffs * values.orthant).sum())
        for b, c in con.psd_coeffs.items():
            acc += abs(float(np.sum(c * values.psd[b])))
        return acc

    def slacks(self, values):
        """Signed slack per constraint (nonnegative means satisfied)."""
        out = np.empty(len(self.constraints))
        for i, con in enumerate(self.constraints):
            v = self.constraint_value(con, values)
            out[i] = v - con.constant if con.sense == ">=" else con.constant - v
        return out

    def objective_value(self, values):
        acc = float(self.objective_orthant @ values.orthant) if self.orthant_dim else 0.0
        for b, c in enumerate(self.objective_psd):
            acc += float(np.sum(c * values.psd[b]))
        return acc

    def labels(self):
        return [con.label for con in self.constraints]


@dataclass(frozen=True)
class VariableMap:
    """Correspondence between the physical variables and problem blocks."""

    n: int                       # complex antenna dimension
    k_users: int
    j_users: int
    m_users: int
    w_blocks: tuple              # PSD block index per DL user
    p_orthant: tuple             # orthant index per UL user
    v_block: Optional[int] = None
    v_orthant_index: Optional[int] = None
    v_direction: Optional[np.ndarray] = None  # unit-trace Hermitian direction
    row_index: dict = field(default_factory=dict)

    def rows(self, prefix):
        """(label, row) pairs for one constraint family, in built order."""
        return [(lab, i) for lab, i in self.row_index.items() if lab.startswith(prefix)]


def _embed_real(h):
    """Real symmetric embedding [[A, -B], [B, A]] of a Hermitian H = A + iB.

    Eigenvalues of the embedding are those of H, each doubled in
    multiplicity, and the trace doubles.
    """
    h = np.asarray(h, dtype=complex)
    a, b = h.real, h.imag
    return np.block([[a, -b], [b, a]])


def _unembed_hermitian(m, atol=1e-6):
    """Invert :func:`_embed_real`, averaging the redundant blocks.

    Raises if the input deviates from the embedding structure by more than
    ``atol`` relative to its Frobenius norm.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    if d % 2 != 0:
        raise ValueError("embedded matrix must have even dimension")
    n = d // 2
    m11, m12, m21, m22 = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    scale = max(np.linalg.norm(m), 1e-300)
    asym = np.sqrt(np.linalg.norm(m11 - m22) ** 2 + np.linalg.norm(m12 + m21) ** 2)
    if asym > atol * scale:
        raise ValueError(f"embedding asymmetry {asym / scale:.3e} exceeds {atol:.1e}")
    a = 0.5 * (m11 + m22)
    b = 0.5 * (m21 - m12)
    a = 0.5 * (a + a.T)
    b = 0.5 * (b - b.T)
    return a + 1j * b


def hermitian_coeff(h):
    """Real-embedded coefficient whose pairing with embed(X) equals Tr(hX)."""
    e = 0.5 * _embed_real(h)
    return 0.5 * (e + e.T)  # exact symmetry despite ulp-level rounding upstream


def recover_duals(report, vmap):
    """Hermitian dual matrix of each DL beam block of a solver report.

    Every coefficient carries the factor 1/2 of :func:`hermitian_coeff`, so
    an embedded dual block is half the embedding of the Hermitian dual; the
    factor 2 undoes it.
    """
    return [2.0 * _unembed_hermitian(report.psd_duals[b], atol=1e-4) for b in vmap.w_blocks]


def _check_dims(chan, cfg, receivers):
    n, k, j, m = cfg.n_antennas, cfg.n_dl, cfg.n_ul, cfg.n_idle
    if chan.h.shape != (k, n) or chan.g.shape != (j, n) or chan.l.shape != (m, n):
        raise ValueError("channel dimensions do not match the configuration")
    if receivers.r.shape != (j, n):
        raise ValueError("receiver dimensions do not match the configuration")
    return n, k, j, m


def _assemble(chan, cfg, receivers, an_mode, direction=None):
    n, k, j, m = _check_dims(chan, cfg, receivers)
    gamma_dl = cfg.dl_sinr_targets
    gamma_ul = cfg.ul_sinr_targets
    gamma_tol = cfg.eve_sinr_cap

    h_mats = [np.outer(chan.h[i], chan.h[i].conj()) for i in range(k)]
    l_mats = [np.outer(chan.l[i], chan.l[i].conj()) for i in range(m)]
    si_vecs = [chan.h_si.conj().T @ receivers.r[i] for i in range(j)]
    si_mats = [np.outer(a, a.conj()) for a in si_vecs]
    ul_gains = np.abs(chan.g.conj() @ receivers.r.T) ** 2 if j else np.zeros((0, 0))
    # ul_gains[i, jj] = |g_i^H r_jj|^2

    n_emb = 2 * n
    if an_mode == "matrix":
        psd_dims = (n_emb,) * (k + 1)
        v_block = k
    else:
        psd_dims = (n_emb,) * k
        v_block = None
    orthant_dim = j + (1 if an_mode == "direction" else 0)
    v_orth = j if an_mode == "direction" else None

    def v_terms(coeff_complex, psd, orth):
        """Route a coefficient on the AN covariance to its representation."""
        if an_mode == "matrix":
            psd[v_block] = psd.get(v_block, 0) + hermitian_coeff(coeff_complex)
        elif an_mode == "direction":
            orth[v_orth] += float(np.trace(coeff_complex @ direction).real)
        # "none": V identically zero, term dropped

    constraints = []
    row_index = {}

    def add(psd, orth, constant, sense, label):
        row_index[label] = len(constraints)
        constraints.append(LinearConstraint(
            psd_coeffs=psd, orthant_coeffs=orth, constant=float(constant),
            sense=sense, label=label,
        ))

    for kk in range(k):
        psd = {kk: hermitian_coeff(h_mats[kk] / gamma_dl[kk])}
        for i in range(k):
            if i != kk:
                psd[i] = hermitian_coeff(-h_mats[kk])
        orth = np.zeros(orthant_dim)
        orth[:j] = -np.abs(chan.f[:, kk]) ** 2
        v_terms(-h_mats[kk], psd, orth)
        add(psd, orth, chan.sigma2_dl[kk], ">=", f"C1[{kk}]")

    for jj in range(j):
        psd = {i: hermitian_coeff(-si_mats[jj]) for i in range(k)}
        orth = np.zeros(orthant_dim)
        orth[:j] = -ul_gains[:, jj]
        orth[jj] = ul_gains[jj, jj] / gamma_ul[jj]
        v_terms(-si_mats[jj], psd, orth)
        noise = chan.sigma2_bs * float(np.linalg.norm(receivers.r[jj]) ** 2)
        add(psd, orth, noise, ">=", f"C2[{jj}]")

    for mm in range(m):
        for kk in range(k):
            psd = {kk: hermitian_coeff(l_mats[mm] / gamma_tol)}
            orth = np.zeros(orthant_dim)
            v_terms(-l_mats[mm], psd, orth)
            add(psd, orth, chan.sigma2_eve[mm], "<=", f"C3[{mm},{kk}]")

    for mm in range(m):
        for jj in range(j):
            psd = {}
            orth = np.zeros(orthant_dim)
            orth[jj] = abs(chan.t[jj, mm]) ** 2 / gamma_tol
            v_terms(-l_mats[mm], psd, orth)
            add(psd, orth, chan.sigma2_eve[mm], "<=", f"C4[{mm},{jj}]")

    for jj in range(j):
        orth = np.zeros(orthant_dim)
        orth[jj] = 1.0
        add({}, orth, 0.0, ">=", f"C5[{jj}]")

    obj_psd = [hermitian_coeff(cfg.alpha * np.eye(n, dtype=complex)) for _ in range(k)]
    if an_mode == "matrix":
        obj_psd.append(hermitian_coeff(cfg.alpha * np.eye(n, dtype=complex)))
    obj_orth = np.full(orthant_dim, cfg.beta)
    if an_mode == "direction":
        obj_orth[v_orth] = cfg.alpha * float(np.trace(direction).real)

    problem = ConicProblem(
        psd_dims=psd_dims,
        orthant_dim=orthant_dim,
        objective_psd=tuple(obj_psd),
        objective_orthant=obj_orth,
        constraints=tuple(constraints),
    ).validate()
    vmap = VariableMap(
        n=n, k_users=k, j_users=j, m_users=m,
        w_blocks=tuple(range(k)), p_orthant=tuple(range(j)),
        v_block=v_block, v_orthant_index=v_orth,
        v_direction=None if direction is None else direction.copy(),
        row_index=row_index,
    )
    return problem, vmap


def build_optimal_problem(chan, cfg, receivers):
    """Relaxed joint design with a fully optimized AN covariance."""
    return _assemble(chan, cfg, receivers, "matrix")


def an_direction(chan, scheme, n):
    """Unit-trace AN covariance direction used by the baseline schemes.

    baseline1 beams the noise at the idle users' subspace. With no idle
    user no constraint rewards AN, so its power optimises to zero along any
    direction; baseline1 then uses the isotropic one.
    """
    if scheme == "baseline1":
        if chan.l.shape[0] == 0:
            return np.eye(n, dtype=complex) / n
        stack = chan.l.T  # columns l_1..l_M
        d = stack @ stack.conj().T
        return d / float(np.trace(d).real)
    if scheme == "baseline2":
        return np.eye(n, dtype=complex) / n
    raise ValueError(f"unknown baseline scheme {scheme!r}")


def build_baseline_problem(chan, cfg, receivers, scheme):
    """Same constraint system with AN restricted to a fixed direction."""
    direction = an_direction(chan, scheme, cfg.n_antennas)
    return _assemble(chan, cfg, receivers, "direction", direction=direction)


def build_hd_problem(chan, cfg, receivers):
    """Probe with artificial noise forced to zero (half-duplex style BS)."""
    return _assemble(chan, cfg, receivers, "none")


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


def recover_allocation(values, vmap, receivers, asym_tol=1e-6):
    """Rebuild Hermitian matrices and powers from solved block values."""
    w_mats = tuple(_unembed_hermitian(values.psd[b], atol=asym_tol) for b in vmap.w_blocks)
    if vmap.v_block is not None:
        v_mat = _unembed_hermitian(values.psd[vmap.v_block], atol=asym_tol)
    elif vmap.v_orthant_index is not None:
        v_mat = float(values.orthant[vmap.v_orthant_index]) * vmap.v_direction
    else:
        v_mat = np.zeros((vmap.n, vmap.n), dtype=complex)
    p = np.array([max(float(values.orthant[i]), 0.0) for i in vmap.p_orthant])
    return Allocation(W=w_mats, V=v_mat, P=p, receivers=receivers)
