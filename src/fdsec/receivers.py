"""Zero-forcing uplink receive beamformers at the base station.

Receiver j is the j-th row of the left pseudoinverse of the stacked UL
channel matrix, conjugated, so that r_j^H g_i = delta_ij. Receivers are
computed once per channel realization and enter the optimization as data.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import pseudoinverse_full_col_rank

ZF_TOL = 1e-8


@dataclass(frozen=True)
class ReceiverSet:
    """Rows are the uplink receive beamformers r_j (length N)."""

    r: np.ndarray  # (J, N) complex

    def __post_init__(self):
        if self.r.ndim != 2:
            raise ValueError("receiver array must be (J, N)")

    @property
    def count(self):
        return self.r.shape[0]


def zf_receivers(g):
    """Zero-forcing receivers for UL channel rows ``g`` ((J, N) or a list).

    Raises numpy.linalg.LinAlgError when the stacked channels are
    numerically rank deficient.
    """
    g = np.atleast_2d(np.asarray(g, dtype=complex))
    j, n = g.shape
    if j == 0:
        return ReceiverSet(r=np.zeros((0, n), dtype=complex))
    if j > n:
        raise np.linalg.LinAlgError(f"cannot zero-force {j} users with {n} antennas")
    q = g.T  # columns are the UL channels
    pinv = pseudoinverse_full_col_rank(q)
    rec = ReceiverSet(r=pinv.conj())
    cross = rec.r.conj() @ q
    if np.abs(cross - np.eye(j)).max() > ZF_TOL:
        raise np.linalg.LinAlgError("zero-forcing identity violated beyond tolerance")
    return rec
