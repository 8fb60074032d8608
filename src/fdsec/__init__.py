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
from .metrics import (
    Allocation,
    Margins,
    QosReport,
    constraint_margins,
    dl_sinr,
    eve_dl_sinr_ub,
    eve_ul_sinr_ub,
    evaluate_qos,
    objective,
    secrecy_rates,
    ul_sinr,
)
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
from .solver import Residuals, SolverOptions, SolverReport, kkt_residuals, solve

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
    "Residuals",
    "SolverOptions",
    "SolverReport",
    "SweepSpec",
    "SystemConfig",
    "TrialResult",
    "VariableMap",
    "build_baseline_problem",
    "build_hd_problem",
    "build_optimal_problem",
    "constraint_margins",
    "dl_sinr",
    "drop_geometry",
    "dual_certificate",
    "eve_dl_sinr_ub",
    "eve_ul_sinr_ub",
    "evaluate_qos",
    "extract_beamformer",
    "kkt_residuals",
    "noise_powers",
    "objective",
    "path_loss_db",
    "realize",
    "recover_allocation",
    "run_trial",
    "run_trials",
    "sample_channels",
    "secrecy_rates",
    "solve",
    "summarize",
    "sweep",
    "ul_sinr",
    "zf_receivers",
]
