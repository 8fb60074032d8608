"""Shared independent oracles used by the solver and acceptance tests."""

import itertools

import numpy as np

from fdsec.problem import ConicProblem, LinearConstraint


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
