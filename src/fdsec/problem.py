"""Assemble the power-minimization conic program and map solutions back.

The relaxed problem is a linear objective over K+1 Hermitian PSD variables
(DL beamforming matrices and the AN covariance) plus nonnegative UL powers,
with one affine inequality per QoS constraint, read off the channel terms
of the :class:`fdsec.metrics.LinkModel` that every builder takes. Hermitian
data is embedded into real symmetric blocks with a factor 1/2 so every
linear functional keeps its complex-domain value, and reported powers stay
physical. The embedding is private to this module: callers get Hermitian
matrices back from :func:`recover_allocation` and :func:`recover_duals`.

Baseline schemes replace the AN covariance by a nonnegative power on a
fixed unit-trace direction; the half-duplex probe removes it entirely.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import Allocation

SENSES = (">=", "<=")
_EMBED_TOL = 1e-6  # relative deviation from the embedding structure _unembed_hermitian accepts


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

    def __post_init__(self):
        """Reject a program the solver cannot take, so every one built is valid."""
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
            # the objective lies in the dual cone, so no program is unbounded
            if np.linalg.eigvalsh(c)[0] < -1e-12 * np.abs(c).max():
                raise ValueError(f"objective block {b} is not positive semidefinite")
        if self.objective_orthant.shape != (self.orthant_dim,):
            raise ValueError("orthant objective has wrong length")
        if np.any(self.objective_orthant < 0.0):
            raise ValueError("orthant objective weights must be nonnegative")
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


def _embed_real(h):
    """Real symmetric embedding [[A, -B], [B, A]] of a Hermitian H = A + iB.

    Eigenvalues of the embedding are those of H, each doubled in
    multiplicity, and the trace doubles.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = out[n:, n:] = h.real
    np.negative(h.imag, out=out[:n, n:])
    out[n:, :n] = h.imag
    return out


def _unembed_hermitian(m):
    """Invert :func:`_embed_real`: H = A + iB read off the left quadrants.

    Every block the solver reports equals its quarter-turn image, so the
    right quadrants repeat the left ones; raises if the input deviates from
    that structure by more than ``_EMBED_TOL`` relative to its Frobenius norm.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    if d % 2 != 0:
        raise ValueError("embedded matrix must have even dimension")
    n = d // 2
    m11, m12, m21, m22 = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    scale = max(np.linalg.norm(m), 1e-300)
    asym = np.sqrt(np.linalg.norm(m11 - m22) ** 2 + np.linalg.norm(m12 + m21) ** 2)
    if asym > _EMBED_TOL * scale:
        raise ValueError(f"embedding asymmetry {asym / scale:.3e} exceeds {_EMBED_TOL:.1e}")
    return m11 + 1j * m21


def hermitian_coeff(h):
    """Real-embedded coefficient whose pairing with embed(X) equals Tr(hX),
    read-only, as the blocks and rows of a program may share one."""
    e = 0.5 * _embed_real(h)
    out = 0.5 * (e + e.T)  # exact symmetry despite ulp-level rounding upstream
    out.flags.writeable = False
    return out


def recover_duals(report, vmap):
    """Hermitian dual matrix of each DL beam block of a solver report.

    Every coefficient carries the factor 1/2 of :func:`hermitian_coeff`, so
    an embedded dual block is half the embedding of the Hermitian dual; the
    factor 2 undoes it.
    """
    return [2.0 * _unembed_hermitian(report.psd_duals[b]) for b in vmap.w_blocks]


def _assemble(model, cfg, an_mode, direction=None):
    n, k, j, m = cfg.n_antennas, cfg.n_dl, cfg.n_ul, cfg.n_idle
    if (model.k_users, model.vecs.shape, model.eves.shape) != (k, (k + j, n), (m, n)):
        raise ValueError("link model dimensions do not match the configuration")
    targets = np.concatenate([cfg.dl_sinr_targets, cfg.ul_sinr_targets])
    gamma_tol = cfg.eve_sinr_cap

    v_block = k if an_mode == "matrix" else None
    v_orth = j if an_mode == "direction" else None
    psd_dims = (2 * n,) * (k + (v_block is not None))
    orthant_dim = j + (v_orth is not None)

    constraints = []
    row_index = {}

    def add(psd, orth, constant, sense, label, outer=None, neg=None):
        """Add one row; ``outer`` enters it as the AN term -Tr(outer V), whose
        coefficient ``neg`` = hermitian_coeff(-outer) the row shares."""
        if outer is not None and an_mode == "matrix":
            psd[v_block] = neg
        elif outer is not None and an_mode == "direction":
            orth[v_orth] += float(np.trace(-outer @ direction).real)
        # "none": V identically zero, term dropped
        row_index[label] = len(constraints)
        constraints.append(LinearConstraint(
            psd_coeffs=psd, orthant_coeffs=orth, constant=float(constant),
            sense=sense, label=label,
        ))

    # link rows: C1 (DL user r), then C2 (UL receiver r - K)
    for r, vec in enumerate(model.vecs):
        outer = np.outer(vec, vec.conj())
        neg = hermitian_coeff(-outer)
        psd = {r: hermitian_coeff(outer / targets[r])} if r < k else {}
        psd.update((i, neg) for i in range(k) if i != r)
        orth = np.zeros(orthant_dim)
        orth[:j] = -model.ul[r]
        if r >= k:
            orth[r - k] = model.ul[r, r - k] / targets[r]
        add(psd, orth, model.noise[r], ">=", f"C1[{r}]" if r < k else f"C2[{r - k}]",
            outer, neg)

    # eavesdropper rows (m, r): C3 for the DL messages, then C4 for the UL
    # ones; the rows of one eavesdropper share its coefficients
    eve_outers = [np.outer(vec, vec.conj()) for vec in model.eves]
    eve_caps = [hermitian_coeff(outer / gamma_tol) for outer in eve_outers]
    eve_negs = [hermitian_coeff(-outer) if an_mode == "matrix" else None for outer in eve_outers]
    for mm, r in sorted(np.ndindex(m, k + j), key=lambda mr: mr[1] >= k):
        psd, orth = {}, np.zeros(orthant_dim)
        if r < k:
            psd[r] = eve_caps[mm]
        else:
            orth[r - k] = model.eve_ul[mm, r - k] / gamma_tol
        label = f"C3[{mm},{r}]" if r < k else f"C4[{mm},{r - k}]"
        add(psd, orth, model.eve_noise[mm], "<=", label, eve_outers[mm], eve_negs[mm])

    for jj, orth in enumerate(np.eye(j, orthant_dim)):
        add({}, orth, 0.0, ">=", f"C5[{jj}]")

    obj_psd = [hermitian_coeff(cfg.alpha * np.eye(n, dtype=complex))] * len(psd_dims)
    obj_orth = np.full(orthant_dim, cfg.beta)
    if an_mode == "direction":
        obj_orth[v_orth] = cfg.alpha * float(np.trace(direction).real)

    problem = ConicProblem(
        psd_dims=psd_dims,
        orthant_dim=orthant_dim,
        objective_psd=tuple(obj_psd),
        objective_orthant=obj_orth,
        constraints=tuple(constraints),
    )
    vmap = VariableMap(
        n=n, k_users=k, j_users=j, m_users=m,
        w_blocks=tuple(range(k)), p_orthant=tuple(range(j)),
        v_block=v_block, v_orthant_index=v_orth,
        v_direction=None if direction is None else direction.copy(),
        row_index=row_index,
    )
    return problem, vmap


def build_optimal_problem(model, cfg):
    """Relaxed joint design with a fully optimized AN covariance."""
    return _assemble(model, cfg, "matrix")


def an_direction(model, scheme):
    """Unit-trace AN covariance direction used by the baseline schemes.

    baseline1 beams the noise at the idle users' subspace. With no idle
    user no constraint rewards AN, so its power optimises to zero along any
    direction; baseline1 then uses the isotropic one.
    """
    n = model.vecs.shape[1]
    if scheme == "baseline1":
        if model.eves.shape[0] == 0:
            return np.eye(n, dtype=complex) / n
        stack = model.eves.T  # columns l_1..l_M
        d = stack @ stack.conj().T
        return d / float(np.trace(d).real)
    if scheme == "baseline2":
        return np.eye(n, dtype=complex) / n
    raise ValueError(f"unknown baseline scheme {scheme!r}")


def build_baseline_problem(model, cfg, scheme):
    """Same constraint system with AN restricted to a fixed direction."""
    return _assemble(model, cfg, "direction", direction=an_direction(model, scheme))


def build_hd_problem(model, cfg):
    """Probe with artificial noise forced to zero (half-duplex style BS)."""
    return _assemble(model, cfg, "none")


def recover_allocation(values, vmap, receivers):
    """Rebuild Hermitian matrices and powers from solved block values."""
    w_mats = tuple(_unembed_hermitian(values.psd[b]) for b in vmap.w_blocks)
    if vmap.v_block is not None:
        v_mat = _unembed_hermitian(values.psd[vmap.v_block])
    elif vmap.v_orthant_index is not None:
        v_mat = float(values.orthant[vmap.v_orthant_index]) * vmap.v_direction
    else:
        v_mat = np.zeros((vmap.n, vmap.n), dtype=complex)
    p = np.array([max(float(values.orthant[i]), 0.0) for i in vmap.p_orthant])
    return Allocation(W=w_mats, V=v_mat, P=p, receivers=receivers)
