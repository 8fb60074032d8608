"""Monte Carlo experiments: trials, parameter sweeps, and aggregation.

One trial draws a channel, builds the scheme's problem, solves it,
recovers and certifies the allocation, and evaluates all QoS metrics.
Trials are keyed by seed, so any degree of parallelism yields identical
results, and per-trial substreams derive as base seed + trial index.
The half-duplex probe records a feasibility verdict only.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from scipy import stats

from .certificates import dual_certificate, rebalance_powers
from .channel import CONFIG_FIELD_TYPES, SystemConfig, realize, watt2dbm
from .metrics import evaluate_qos, link_model, qos_csv_header, qos_csv_row
from .problem import (
    build_baseline_problem,
    build_hd_problem,
    build_optimal_problem,
    recover_allocation,
)
from .receivers import zf_receivers
from .solver import SolverOptions, solve

SCHEMES = ("optimal", "baseline1", "baseline2", "hd")

# solver statuses that end a trial without a verdict on feasibility
FAILED_STATUSES = ("numerical_failure", "max_iters")

# deep final complementarity so rank-one eigenvalue tails and constraint
# tightness land well inside the certificate tolerances
TRIAL_SOLVER_OPTIONS = SolverOptions(mu_tol_factor=1e-3)

# level of the t-interval on each scheme's mean power in summary.txt
CONFIDENCE = 0.95


@dataclass(frozen=True)
class TrialResult:
    trial_id: int
    seed: int
    scheme: str
    status: str
    objective_w: float             # nan unless solved
    objective_dbm: float
    dl_power_w: float              # beams plus artificial noise
    ul_powers_w: tuple
    min_margin: float              # worst slack / activity over rows C1-C5
    qos: Optional[object]          # QosReport for solved trials
    rank: Optional[object]         # RankReport for solved trials
    hd_precheck_infeasible: Optional[bool]
    iterations: int
    solve_time: float
    sweep_value: Optional[float] = None

    @property
    def feasible(self):
        return self.status == "optimal"


@dataclass(frozen=True)
class SweepSpec:
    parameter: str                 # "gamma_dl_req_db" or "n_antennas"
    values: tuple
    trials: int = 100
    schemes: tuple = ("optimal", "baseline1", "baseline2")
    base_config: SystemConfig = field(default_factory=SystemConfig)
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.parameter not in ("gamma_dl_req_db", "n_antennas"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise ValueError("sweep needs a nonempty value list")
        if self.trials < 1:
            raise ValueError("need at least one trial per point")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")

    def config_for(self, value):
        if self.parameter == "gamma_dl_req_db":
            return self.base_config.with_updates(
                gamma_dl_req_db=(), gamma_dl_req_default_db=float(value))
        return self.base_config.with_updates(n_antennas=int(value))


def hd_precheck_fires(chan, cfg, receivers):
    """Analytic infeasibility test for the no-AN probe.

    The UL target forces P_j >= gamma_j noise_j / own_j, its noise-limited
    minimum; with no artificial noise each eavesdropper cap bounds P_j
    above by gamma_tol sigma_m / |t_jm|^2. A crossing for any j proves
    infeasibility before any solver runs.
    """
    model = link_model(chan, receivers)
    k = model.k_users
    p_min = cfg.ul_sinr_targets * model.noise[k:] / model.ul[k:].diagonal()
    caps = cfg.eve_sinr_cap * model.eve_noise[:, np.newaxis] / model.eve_ul
    return bool(np.any(p_min > caps.min(axis=0, initial=np.inf)))


def evaluate_instance(cfg, seed, scheme):
    """Build, solve, recover, polish, and certify one instance.

    Returns a namespace with the full intermediate products; run_trial
    condenses it into a TrialResult row. After rank-one extraction the DL
    beam powers are rebalanced so every DL SINR target is exactly tight,
    which only reduces radiated power. The polished allocation is kept
    when its worst row margin (slack / activity of the physical rows
    C1-C5, :meth:`fdsec.metrics.Margins.worst`) is at least -2e-7; else
    the raw solver point is. ``min_margin`` is that margin of the kept
    allocation.
    """
    from types import SimpleNamespace

    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    geometry, chan = realize(cfg, seed)
    receivers = zf_receivers(chan.g)
    if scheme == "optimal":
        problem, vmap = build_optimal_problem(chan, cfg, receivers)
    elif scheme == "hd":
        problem, vmap = build_hd_problem(chan, cfg, receivers)
    else:
        problem, vmap = build_baseline_problem(chan, cfg, receivers, scheme)

    report = solve(problem, TRIAL_SOLVER_OPTIONS)
    out = SimpleNamespace(
        cfg=cfg, seed=seed, scheme=scheme, geometry=geometry, chan=chan,
        receivers=receivers, problem=problem, vmap=vmap, report=report,
        alloc=None, qos=None, rank=None, min_margin=float("nan"),
        precheck=hd_precheck_fires(chan, cfg, receivers) if scheme == "hd" else None,
    )
    if scheme == "hd" or report.status != "optimal":
        return out

    raw = recover_allocation(report.primal, vmap, receivers)
    polished = rebalance_powers(raw, chan, cfg,
                                an_repair="free" if scheme == "optimal" else "scale")
    qos = None if polished is None else evaluate_qos(polished, chan, cfg)
    # the polish pins the target constraints exactly; tolerate only an
    # eps-level wobble on the remaining families
    if qos is not None and qos.margins.worst() >= -2e-7:
        out.alloc = polished
    else:
        out.alloc, qos = raw, evaluate_qos(raw, chan, cfg)
    out.qos = qos
    out.min_margin = qos.margins.worst()
    out.rank = dual_certificate(report, chan, cfg, receivers, vmap, alloc=out.alloc)
    return out


def run_trial(cfg, seed, scheme, trial_id=0):
    """Full pipeline for one (config, seed, scheme) task."""
    inst = evaluate_instance(cfg, seed, scheme)
    report = inst.report
    if inst.alloc is None:
        return TrialResult(
            trial_id=trial_id, seed=seed, scheme=scheme, status=report.status,
            objective_w=float("nan"), objective_dbm=float("nan"),
            dl_power_w=float("nan"), ul_powers_w=(),
            min_margin=float("nan"), qos=None, rank=None,
            hd_precheck_infeasible=inst.precheck,
            iterations=report.iterations, solve_time=report.solve_time,
        )
    alloc = inst.alloc
    obj = inst.qos.objective
    dl_power = sum(float(np.trace(w).real) for w in alloc.W) + float(np.trace(alloc.V).real)
    return TrialResult(
        trial_id=trial_id, seed=seed, scheme=scheme, status=report.status,
        objective_w=obj,
        objective_dbm=float(watt2dbm(obj)),
        dl_power_w=dl_power,
        ul_powers_w=tuple(float(p) for p in alloc.P),
        min_margin=inst.min_margin,
        qos=inst.qos, rank=inst.rank, hd_precheck_infeasible=inst.precheck,
        iterations=report.iterations, solve_time=report.solve_time,
    )


def _trial_task(args):
    cfg, seed, scheme, trial_id = args
    return run_trial(cfg, seed, scheme, trial_id=trial_id)


def run_trials(cfg, seeds, schemes, jobs=1):
    """All (seed, scheme) combinations, optionally in parallel, seed-ordered."""
    tasks = [
        (cfg, seed, scheme, i)
        for i, (seed, scheme) in enumerate((s, sch) for s in seeds for sch in schemes)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_trial_task, tasks, chunksize=4))
    else:
        results = [_trial_task(t) for t in tasks]
    return sorted(results, key=lambda r: (r.seed, r.scheme))


@dataclass(frozen=True)
class SweepPoint:
    parameter: str
    value: float
    scheme: str
    trials: int
    feasible: int
    failed: int                    # trials with a status in FAILED_STATUSES
    feasibility_rate: float
    common_feasible: int
    mean_power_w: float
    mean_power_dbm: float          # mean of the per-trial dBm values
    se_power_dbm: float
    mean_dl_secrecy: float
    mean_ul_secrecy: float
    rank_one_rate: float
    mean_iterations: float
    mean_solve_time: float


def _aggregate_point(parameter, value, scheme, rows, common_seeds):
    feas = [r for r in rows if r.feasible]
    common = [r for r in feas if r.seed in common_seeds]
    if common:
        dbm = np.array([r.objective_dbm for r in common])
        watts = np.array([r.objective_w for r in common])
        dl_sec = np.array([r.qos.dl_secrecy.mean() for r in common if r.qos.dl_secrecy.size])
        ul_sec = np.array([r.qos.ul_secrecy.mean() for r in common if r.qos.ul_secrecy.size])
        rank_ok = np.array([r.rank.certificate_pass for r in common])
        mean_w = float(watts.mean())
        mean_dbm = float(dbm.mean())
        se_dbm = float(dbm.std(ddof=1) / np.sqrt(len(dbm))) if len(dbm) > 1 else 0.0
        mean_dl = float(dl_sec.mean()) if dl_sec.size else float("nan")
        mean_ul = float(ul_sec.mean()) if ul_sec.size else float("nan")
        rank_rate = float(rank_ok.mean())
    else:
        mean_w = mean_dbm = se_dbm = mean_dl = mean_ul = rank_rate = float("nan")
    return SweepPoint(
        parameter=parameter, value=float(value), scheme=scheme,
        trials=len(rows), feasible=len(feas),
        failed=sum(r.status in FAILED_STATUSES for r in rows),
        feasibility_rate=len(feas) / len(rows) if rows else float("nan"),
        common_feasible=len(common),
        mean_power_w=mean_w, mean_power_dbm=mean_dbm, se_power_dbm=se_dbm,
        mean_dl_secrecy=mean_dl, mean_ul_secrecy=mean_ul,
        rank_one_rate=rank_rate,
        mean_iterations=float(np.mean([r.iterations for r in rows])),
        mean_solve_time=float(np.mean([r.solve_time for r in rows])),
    )


def sweep(spec):
    """Run the sweep and aggregate per (value, scheme).

    Averages are taken over seeds feasible for every compared scheme at
    that point (the HD probe never counts as comparable); points with no
    commonly feasible seed are flagged by common_feasible == 0, never
    dropped. Returns (points, trial results).
    """
    from dataclasses import replace as _replace

    all_trials = []
    points = []
    comparable = [s for s in spec.schemes if s != "hd"]
    for value in spec.values:
        cfg = spec.config_for(value)
        seeds = [spec.base_seed + i for i in range(spec.trials)]
        results = [_replace(r, sweep_value=float(value))
                   for r in run_trials(cfg, seeds, spec.schemes, jobs=spec.jobs)]
        all_trials.extend(results)
        by_scheme = {s: [r for r in results if r.scheme == s] for s in spec.schemes}
        if comparable:
            common_seeds = set(seeds)
            for s in comparable:
                common_seeds &= {r.seed for r in by_scheme[s] if r.feasible}
        else:
            common_seeds = set()
        for s in spec.schemes:
            points.append(_aggregate_point(spec.parameter, value, s, by_scheme[s], common_seeds))
    return points, all_trials


@dataclass(frozen=True)
class SummaryRow:
    scheme: str
    count: int
    mean_dbm: float
    half_width_dbm: float          # 95% t-interval half width
    mean_w: float
    feasibility_rate: float


def summarize(results):
    """Aggregate trial results by scheme with CONFIDENCE t-intervals."""
    groups = {}
    for r in results:
        groups.setdefault(r.scheme, []).append(r)
    rows = []
    for scheme in sorted(groups):
        rows_g = groups[scheme]
        feas = [r for r in rows_g if r.feasible]
        if feas:
            dbm = np.array([r.objective_dbm for r in feas])
            mean = float(dbm.mean())
            if len(dbm) > 1 and dbm.std(ddof=1) > 0:
                half = float(stats.t.ppf(0.5 + CONFIDENCE / 2, len(dbm) - 1)
                             * dbm.std(ddof=1) / np.sqrt(len(dbm)))
            else:
                half = 0.0
            mean_w = float(np.mean([r.objective_w for r in feas]))
        else:
            mean = half = mean_w = float("nan")
        rows.append(SummaryRow(
            scheme=scheme, count=len(rows_g), mean_dbm=mean,
            half_width_dbm=half, mean_w=mean_w,
            feasibility_rate=len(feas) / len(rows_g),
        ))
    return rows


# ---------------------------------------------------------------------------
# file output


def trial_csv_header(cfg):
    base = ["trial_id", "seed", "scheme", "status", "objective_w", "objective_dbm",
            "dl_power_w"]
    base += [f"ul_power_{j}_w" for j in range(cfg.n_ul)]
    base += ["min_margin", "hd_precheck_infeasible", "iterations", "solve_time"]
    base += qos_csv_header(cfg.n_dl, cfg.n_ul, cfg.n_idle)
    base += ["rank_max", "eig_ratio_max", "b_min_eig", "certificate_pass"]
    return base


def trial_csv_row(result, cfg):
    row = [result.trial_id, result.seed, result.scheme, result.status,
           result.objective_w, result.objective_dbm, result.dl_power_w]
    powers = list(result.ul_powers_w) + [float("nan")] * (cfg.n_ul - len(result.ul_powers_w))
    row += powers
    row += [result.min_margin, result.hd_precheck_infeasible,
            result.iterations, result.solve_time]
    if result.qos is not None:
        row += qos_csv_row(result.qos)
    else:
        row += [float("nan")] * len(qos_csv_header(cfg.n_dl, cfg.n_ul, cfg.n_idle))
    if result.rank is not None:
        f = result.rank.csv_fields()
        row += [f["rank_max"], f["eig_ratio_max"], f["b_min_eig"], f["certificate_pass"]]
    else:
        row += [float("nan")] * 4
    return row


def write_trials_csv(path, results, cfg):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trial_csv_header(cfg))
        for r in results:
            writer.writerow(trial_csv_row(r, cfg))


SWEEP_COLUMNS = [
    "parameter", "value", "scheme", "trials", "feasible", "failed", "feasibility_rate",
    "common_feasible", "mean_power_w", "mean_power_dbm", "se_power_dbm",
    "mean_dl_secrecy", "mean_ul_secrecy", "rank_one_rate",
    "mean_iterations", "mean_solve_time",
]


def write_sweep_csv(path, points):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for p in points:
            writer.writerow([getattr(p, c) for c in SWEEP_COLUMNS])


def write_sweep_dat(path, points):
    """Whitespace table for gnuplot: one line per value, columns per scheme."""
    values = sorted({p.value for p in points})
    schemes = sorted({p.scheme for p in points})
    with open(path, "w") as fh:
        cols = ["value"]
        for s in schemes:
            cols += [f"{s}_dbm", f"{s}_se", f"{s}_feas", f"{s}_failed"]
        fh.write("# " + " ".join(cols) + "\n")
        for v in values:
            line = [f"{v:g}"]
            for s in schemes:
                match = [p for p in points if p.value == v and p.scheme == s]
                if match:
                    p = match[0]
                    line += [f"{p.mean_power_dbm:.6f}", f"{p.se_power_dbm:.6f}",
                             f"{p.feasibility_rate:.4f}", f"{p.failed:d}"]
                else:
                    line += ["nan", "nan", "nan", "nan"]
            fh.write(" ".join(line) + "\n")


def write_summary(path, rows):
    with open(path, "w") as fh:
        fh.write(f"{'scheme':<12} {'trials':>7} {'feas_rate':>10} "
                 f"{'mean_dbm':>12} {'ci95_half':>10} {'mean_w':>14}\n")
        for r in rows:
            fh.write(f"{r.scheme:<12} {r.count:>7d} {r.feasibility_rate:>10.3f} "
                     f"{r.mean_dbm:>12.4f} {r.half_width_dbm:>10.4f} {r.mean_w:>14.6e}\n")


# ---------------------------------------------------------------------------
# config file I/O


def load_config(path):
    """Flat key = value text file; unknown keys are rejected."""
    updates = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            kind = CONFIG_FIELD_TYPES[key]
            if kind is int:
                updates[key] = int(val)
            elif kind is float:
                updates[key] = float(val)
            elif kind is tuple:
                updates[key] = tuple(float(x) for x in val.split(",")) if val else ()
            else:
                updates[key] = val
    return SystemConfig(**updates)


def write_default_config(stream):
    cfg = SystemConfig()
    stream.write("# scenario configuration; defaults reproduce the standard setup\n")
    for f in fields(SystemConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = ",".join(str(x) for x in val)
        stream.write(f"{f.name} = {val}\n")
