"""Monte Carlo experiments: trials, parameter sweeps, and aggregation.

One trial draws a channel, builds the scheme's problem, solves it,
recovers and certifies the allocation, and evaluates all QoS metrics.
Trials are keyed by seed, so any degree of parallelism yields identical
results, and per-trial substreams derive as base seed + trial index.
Trials run in lockstep batches: the trials of one batch are prepared one by
one, solved together by :func:`fdsec.solver.solve_many` (the trial is one
more axis of every IPM stack, and each result is bit for bit that of a solo
solve), and finished one by one. A batch holds at most ``BATCH_TRIALS``
trials of one problem layout and one system size: baseline1 and baseline2,
whose problems differ only in the fixed AN direction, share batches, and so
do sweep values of ``gamma_dl_req_db``, while those of ``n_antennas`` do
not. One sweep runs one process pool over all of its batches, one batch per
chunk.
The half-duplex probe records a feasibility verdict only. When its
analytic precheck fires, the precheck's two rows give a closed-form Farkas
ray; a trial whose ray passes the solver's exact ray test is decided by it,
with 0 IPM iterations, and only the other trials run the IPM.
"""

import csv
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import product
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .certificates import RANK_CSV_COLUMNS, dual_certificate, rebalance_powers
from .channel import CONFIG_FIELD_TYPES, SystemConfig, realize, watt2dbm
from .metrics import dl_power, evaluate_qos, link_model, qos_csv_fields, qos_csv_header
from .problem import (
    build_baseline_problem,
    build_hd_problem,
    build_optimal_problem,
    recover_allocation,
)
from .receivers import zf_receivers
from .solver import ray_report, solve, solve_many

# the problem layout of each scheme: the baselines' problems differ only in
# the fixed AN direction, so they share one layout
LAYOUTS = {"optimal": "an_matrix", "baseline1": "an_direction", "baseline2": "an_direction",
           "hd": "no_an"}
SCHEMES = tuple(LAYOUTS)

# solver statuses that end a trial without a verdict on feasibility
FAILED_STATUSES = ("numerical_failure", "max_iters")

# level of the t-interval on each scheme's mean power in summary.txt
CONFIDENCE = 0.95

# most trials that one lockstep IPM batch runs together
BATCH_TRIALS = 8


@dataclass(frozen=True)
class TrialResult:
    """The one record of a trial; every trials.csv column is read off it.

    Columns follow the field order: ``ul_powers_w`` expands to one
    ``ul_power_{j}_w`` column per UL user, ``qos`` to the columns of
    :func:`fdsec.metrics.qos_csv_header` and ``rank`` to those of
    ``RankReport.csv_fields``. An unsolved trial leaves them nan.
    """

    trial_id: int
    seed: int
    scheme: str
    status: str
    exit: str                      # how the solve ended: SolverReport.exit
    objective_w: float             # nan unless solved
    objective_dbm: float
    dl_power_w: float              # beams plus artificial noise
    ul_powers_w: tuple
    min_margin: float              # worst slack / activity over rows C1-C5
    hd_precheck_infeasible: Optional[bool]
    iterations: int
    solve_time: float              # its share of its lockstep solve, or its ray check
    qos: Optional[object]          # QosReport for solved trials
    rank: Optional[object]         # RankReport for solved trials
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
        if not np.isfinite(self.values).all():
            raise ValueError(f"sweep values must be finite, got {self.values}")
        if self.parameter == "n_antennas" and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"antenna counts must be whole numbers, got {self.values}")
        if self.trials < 1:
            raise ValueError("need at least one trial per point")
        check_schemes(self.schemes)
        _check_jobs(self.jobs)
        for value in self.values:
            self.config_for(value)  # raises on a value no SystemConfig takes

    def config_for(self, value):
        if self.parameter == "gamma_dl_req_db":
            return self.base_config.with_updates(
                gamma_dl_req_db=(), gamma_dl_req_default_db=float(value))
        return self.base_config.with_updates(n_antennas=int(value))


def hd_crossing(model, cfg):
    """The widest (j, m) crossing of the no-AN probe's link model, or None.

    The UL target forces P_j >= gamma_j noise_j / own_j, its noise-limited
    minimum; with no artificial noise each eavesdropper cap bounds P_j
    above by gamma_tol sigma_m / |t_jm|^2. A crossing for any j proves
    infeasibility before any solver runs. The widest is the UL user j with
    the largest ratio of minimum to least cap, and m the idle user of that
    cap.
    """
    k = model.k_users
    p_min = cfg.ul_sinr_targets * model.noise[k:] / model.ul[k:].diagonal()
    caps = cfg.eve_sinr_cap * model.eve_noise[:, np.newaxis] / model.eve_ul
    cap = caps.min(axis=0, initial=np.inf)
    fires = p_min > cap
    if not fires.any():
        return None
    j = int(np.argmax(np.where(fires, p_min / cap, 0.0)))
    return j, int(np.argmin(caps[:, j]))


def hd_ray(vmap, model, cfg, crossing):
    """The Farkas ray of a crossing (j, m) of the no-AN probe: multiplier
    gamma_j / |g_j^H r_j|^2 on C2[j] and gamma_tol / |t_jm|^2 on C4[m, j],
    0 elsewhere. P_j cancels; every other entry of A'y is a negated
    interference term, and b'y = p_min_j - cap_mj > 0 is the crossing."""
    j, m = crossing
    y = np.zeros(len(vmap.row_index))
    y[vmap.row_index[f"C2[{j}]"]] = cfg.ul_sinr_targets[j] / model.ul[model.k_users + j, j]
    y[vmap.row_index[f"C4[{m},{j}]"]] = cfg.eve_sinr_cap / model.eve_ul[m, j]
    return y


def evaluate_instance(cfg, seed, scheme):
    """Build, solve, recover, polish, and certify one instance.

    Returns a namespace with the full intermediate products; run_trial
    condenses it into a TrialResult row. The solver point is polished by
    one LP over the powers along fixed directions
    (:func:`fdsec.certificates.rebalance_powers`): the leading eigenvector
    of each beam matrix and the scheme's AN columns, so the polished point
    is rank one. It is kept when its worst row margin (slack / activity of
    the physical rows C1-C5, :meth:`fdsec.metrics.Margins.worst`) is at
    least -2e-7; when the LP has no solution or misses that gate, the raw
    solver point is kept. ``min_margin`` is that margin of the kept
    allocation.
    """
    return evaluate_batch([(cfg, seed, scheme)])[0]


def evaluate_batch(tasks):
    """:func:`evaluate_instance` of each (cfg, seed, scheme) task. A
    half-duplex trial whose precheck fires is decided by its closed-form
    Farkas ray (:func:`hd_ray`), checked by
    :func:`fdsec.solver.ray_report`, with 0 IPM iterations; every other
    problem, and one whose ray is refused, is solved in one
    :func:`fdsec.solver.solve_many` call. A batch of one such problem calls
    :func:`fdsec.solver.solve`, which returns the same report. Keep that
    fork: ``bench/spans.py`` times solves by wrapping
    ``fdsec.harness.solve``, so without it every ``solver.*`` span of a
    serial trial loop would read 0."""
    insts = [_prepare(*task) for task in tasks]
    reports = [None if inst.ray is None else ray_report(inst.problem, inst.ray)
               for inst in insts]
    todo = [i for i, report in enumerate(reports) if report is None]
    problems = [insts[i].problem for i in todo]
    solved = [solve(problems[0])] if len(problems) == 1 else solve_many(problems)
    for i, report in zip(todo, solved):
        reports[i] = report
    return [_finish(inst, report) for inst, report in zip(insts, reports)]


def _prepare(cfg, seed, scheme):
    """Channel, receivers, link model and conic problem of one task; for the
    half-duplex probe also its precheck verdict and, when that fires, the
    candidate ray. Every later stage reads the one link model."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _, chan = realize(cfg, seed)
    receivers = zf_receivers(chan.g)
    model = link_model(chan, receivers)
    precheck = ray = None
    if scheme == "optimal":
        problem, vmap = build_optimal_problem(model, cfg)
    elif scheme == "hd":
        problem, vmap = build_hd_problem(model, cfg)
        crossing = hd_crossing(model, cfg)
        precheck = crossing is not None
        if precheck:
            ray = hd_ray(vmap, model, cfg, crossing)
    else:
        problem, vmap = build_baseline_problem(model, cfg, scheme)
    return SimpleNamespace(
        cfg=cfg, seed=seed, scheme=scheme, chan=chan, receivers=receivers, model=model,
        problem=problem, vmap=vmap, report=None, alloc=None, qos=None, rank=None,
        min_margin=float("nan"), precheck=precheck, ray=ray,
    )


def _finish(out, report):
    """Recover, polish and certify a prepared instance from its report."""
    out.report = report
    if out.scheme == "hd" or report.status != "optimal":
        return out
    model, cfg = out.model, out.cfg
    raw = recover_allocation(report.primal, out.vmap, out.receivers)
    polished = rebalance_powers(raw, model, cfg, out.scheme)
    qos = None if polished is None else evaluate_qos(polished, model, cfg)
    if qos is not None and qos.margins.worst() >= -2e-7:
        out.alloc = polished
    else:
        out.alloc, qos = raw, evaluate_qos(raw, model, cfg)
    out.qos = qos
    out.min_margin = qos.margins.worst()
    out.rank = dual_certificate(report, model, cfg, out.vmap, out.alloc)
    return out


def _trial_result(inst, trial_id):
    alloc, nan = inst.alloc, float("nan")
    obj = nan if alloc is None else inst.qos.objective
    return TrialResult(
        trial_id=trial_id, seed=inst.seed, scheme=inst.scheme, status=inst.report.status,
        exit=inst.report.exit, objective_w=obj, objective_dbm=float(watt2dbm(obj)),
        dl_power_w=nan if alloc is None else dl_power(alloc),
        ul_powers_w=() if alloc is None else tuple(float(p) for p in alloc.P),
        min_margin=inst.min_margin, hd_precheck_infeasible=inst.precheck,
        iterations=inst.report.iterations, solve_time=inst.report.solve_time,
        qos=inst.qos, rank=inst.rank,
    )


def run_trial(cfg, seed, scheme, trial_id=0):
    """Full pipeline for one (config, seed, scheme) task."""
    return _trial_result(evaluate_instance(cfg, seed, scheme), trial_id)


def _run_batch(tasks):
    """run_trial of each (cfg, seed, scheme, trial_id) task, solved in lockstep."""
    insts = evaluate_batch([task[:3] for task in tasks])
    return [_trial_result(inst, task[3]) for inst, task in zip(insts, tasks)]


def _tasks(cfg, seeds, schemes):
    """run_trial arguments of every (seed, scheme) pair, listed in (seed,
    scheme) order; trial_id numbers them seed-major in the given order."""
    tasks = [(cfg, seed, scheme, i) for i, (seed, scheme) in enumerate(product(seeds, schemes))]
    return sorted(tasks, key=lambda t: t[1:3])


def check_schemes(schemes):
    """At least one scheme, each known and none twice (it would run twice)."""
    if not schemes:
        raise ValueError("need at least one scheme")
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; choose from {SCHEMES}")
    if len(set(schemes)) < len(schemes):
        raise ValueError(f"scheme list {tuple(schemes)} repeats a scheme")


def _check_jobs(jobs):
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _batches(tasks, jobs):
    """Task indices per lockstep batch. Tasks of one problem layout
    (``LAYOUTS``) and system size form a group; each group is dealt
    round-robin into at least ``jobs`` batches (fewer only when it has
    fewer tasks) of at most BATCH_TRIALS, so every worker gets a share of
    every layout."""
    groups = {}
    for i, (cfg, _, scheme, _) in enumerate(tasks):
        key = (LAYOUTS[scheme], cfg.n_antennas, cfg.n_dl, cfg.n_ul, cfg.n_idle)
        groups.setdefault(key, []).append(i)
    batches = []
    for members in groups.values():
        count = max(-(-len(members) // BATCH_TRIALS), min(jobs, len(members)))
        batches += [members[k::count] for k in range(count)]
    return batches


def _run_tasks(tasks, jobs):
    """run_trial on each argument tuple, in task order, by lockstep batches:
    in process for one job or batch, else one pool of at most jobs workers,
    one batch per chunk."""
    batches = _batches(tasks, jobs)
    work = [[tasks[i] for i in batch] for batch in batches]
    if jobs > 1 and len(work) > 1:
        # imported on first use: serial trials never load the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            done = list(pool.map(_run_batch, work))
    else:
        done = [_run_batch(w) for w in work]
    results = [None] * len(tasks)
    for batch, rows in zip(batches, done):
        for i, row in zip(batch, rows):
            results[i] = row
    return results


def run_trials(cfg, seeds, schemes, jobs=1):
    """All (seed, scheme) combinations, optionally in parallel, seed-ordered."""
    check_schemes(schemes)
    _check_jobs(jobs)
    return _run_tasks(_tasks(cfg, seeds, schemes), jobs)


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


def _power_stats(solved):
    """Mean power in W, mean power in dBm and the sample standard deviation
    of the dBm values of solved trials: all nan for none, sd 0 for one."""
    if not solved:
        return (float("nan"),) * 3
    dbm = np.array([r.objective_dbm for r in solved])
    sd = float(dbm.std(ddof=1)) if len(dbm) > 1 else 0.0
    return float(np.mean([r.objective_w for r in solved])), float(dbm.mean()), sd


def _aggregate_point(parameter, value, scheme, rows, common_seeds):
    feas = [r for r in rows if r.feasible]
    common = [r for r in feas if r.seed in common_seeds]
    mean_w, mean_dbm, sd_dbm = _power_stats(common)
    nan = float("nan")
    if common:
        dl_sec = np.array([r.qos.dl_secrecy.mean() for r in common if r.qos.dl_secrecy.size])
        ul_sec = np.array([r.qos.ul_secrecy.mean() for r in common if r.qos.ul_secrecy.size])
        mean_dl = float(dl_sec.mean()) if dl_sec.size else nan
        mean_ul = float(ul_sec.mean()) if ul_sec.size else nan
        rank_rate = float(np.mean([r.rank.certificate_pass for r in common]))
    else:
        mean_dl = mean_ul = rank_rate = nan
    return SweepPoint(
        parameter=parameter, value=float(value), scheme=scheme,
        trials=len(rows), feasible=len(feas),
        failed=sum(r.status in FAILED_STATUSES for r in rows),
        feasibility_rate=len(feas) / len(rows) if rows else nan,
        common_feasible=len(common),
        mean_power_w=mean_w, mean_power_dbm=mean_dbm,
        se_power_dbm=float(sd_dbm / np.sqrt(len(common))) if common else nan,
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
    seeds = [spec.base_seed + i for i in range(spec.trials)]
    per_value = len(seeds) * len(spec.schemes)
    tasks = [t for value in spec.values
             for t in _tasks(spec.config_for(value), seeds, spec.schemes)]
    done = _run_tasks(tasks, spec.jobs)
    all_trials = []
    points = []
    comparable = [s for s in spec.schemes if s != "hd"]
    for n, value in enumerate(spec.values):
        results = [replace(r, sweep_value=float(value))
                   for r in done[n * per_value:(n + 1) * per_value]]
        all_trials.extend(results)
        by_scheme = {s: [r for r in results if r.scheme == s] for s in spec.schemes}
        common_seeds = set(seeds) if comparable else set()
        for s in comparable:
            common_seeds &= {r.seed for r in by_scheme[s] if r.feasible}
        for s in spec.schemes:
            common = common_seeds if s in comparable else set()
            points.append(_aggregate_point(spec.parameter, value, s, by_scheme[s], common))
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
    from scipy.special import stdtrit  # on first use: trials never load scipy.special

    groups = {}
    for r in results:
        groups.setdefault(r.scheme, []).append(r)
    rows = []
    for scheme in sorted(groups):
        rows_g = groups[scheme]
        feas = [r for r in rows_g if r.feasible]
        mean_w, mean, sd = _power_stats(feas)
        if sd > 0:
            half = float(stdtrit(len(feas) - 1, 0.5 + CONFIDENCE / 2) * sd / np.sqrt(len(feas)))
        else:
            half = 0.0 if feas else float("nan")
        rows.append(SummaryRow(
            scheme=scheme, count=len(rows_g), mean_dbm=mean,
            half_width_dbm=half, mean_w=mean_w,
            feasibility_rate=len(feas) / len(rows_g),
        ))
    return rows


# ---------------------------------------------------------------------------
# file output


def trial_csv_header(cfg):
    """trials.csv columns: the fields of :class:`TrialResult` in order."""
    cols = []
    for f in fields(TrialResult):
        if f.name == "ul_powers_w":
            cols += [f"ul_power_{j}_w" for j in range(cfg.n_ul)]
        elif f.name == "qos":
            cols += qos_csv_header(cfg.n_dl, cfg.n_ul, cfg.n_idle)
        elif f.name == "rank":
            cols += RANK_CSV_COLUMNS
        else:
            cols.append(f.name)
    return cols


def trial_csv_row(result):
    """One trials.csv record as {column: value}; an unsolved trial has no
    UL power, QoS or rank entries, which the writer fills with nan."""
    row = {f.name: getattr(result, f.name) for f in fields(result)}
    row.update((f"ul_power_{j}_w", p) for j, p in enumerate(row.pop("ul_powers_w")))
    qos, rank = row.pop("qos"), row.pop("rank")
    if qos is not None:
        row.update(qos_csv_fields(qos))
    if rank is not None:
        row.update(rank.csv_fields())
    return row


def write_trials_csv(path, results, cfg):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, trial_csv_header(cfg), restval=float("nan"))
        writer.writeheader()
        writer.writerows(trial_csv_row(r) for r in results)


def write_sweep_csv(path, points):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(SweepPoint)])
        writer.writerows(astuple(p) for p in points)


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
            try:
                if kind is tuple:
                    updates[key] = tuple(float(x) for x in val.split(",")) if val else ()
                else:
                    updates[key] = kind(val)
            except ValueError as err:
                raise ValueError(f"config key {key!r}: {err}") from None
    return SystemConfig(**updates)


def write_default_config(stream):
    cfg = SystemConfig()
    stream.write("# scenario configuration; defaults reproduce the standard setup\n")
    for f in fields(SystemConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = ",".join(str(x) for x in val)
        stream.write(f"{f.name} = {val}\n")
