"""Secure full-duplex resource allocation toolkit.

Channel simulation, zero-forcing uplink receivers, SDP-relaxed joint
beamforming / artificial-noise / uplink-power optimization, a primal-dual
interior-point conic solver, rank-one optimality certificates, and a
Monte Carlo experiment harness.
"""

from .certificates import BeamformerExtraction, RankReport, dual_certificate, extract_beamformer
from .channel import (
    ChannelRealization,
    Geometry,
    SystemConfig,
    drop_geometry,
    noise_powers,
    path_loss_db,
    realize,
    sample_channels,
)
from .harness import SweepSpec, TrialResult, run_trial, run_trials, summarize, sweep
from .metrics import Allocation, Margins, QosReport, evaluate_qos, objective
from .problem import (
    BlockValues,
    ConicProblem,
    VariableMap,
    build_baseline_problem,
    build_hd_problem,
    build_optimal_problem,
    recover_allocation,
)
from .receivers import ReceiverSet, zf_receivers
from .solver import SolverReport, solve, solve_many

__all__ = [
    "Allocation",
    "BeamformerExtraction",
    "BlockValues",
    "ChannelRealization",
    "ConicProblem",
    "Geometry",
    "Margins",
    "QosReport",
    "RankReport",
    "ReceiverSet",
    "SolverReport",
    "SweepSpec",
    "SystemConfig",
    "TrialResult",
    "VariableMap",
    "build_baseline_problem",
    "build_hd_problem",
    "build_optimal_problem",
    "drop_geometry",
    "dual_certificate",
    "evaluate_qos",
    "extract_beamformer",
    "noise_powers",
    "objective",
    "path_loss_db",
    "realize",
    "recover_allocation",
    "run_trial",
    "run_trials",
    "sample_channels",
    "solve",
    "solve_many",
    "summarize",
    "sweep",
    "zf_receivers",
]
