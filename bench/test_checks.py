"""The benchmark's output checks accept program output and reject broken output.

    python3 -m pytest -q bench/test_checks.py
"""

import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (puts the program's sources on sys.path)
import checks  # noqa: E402
from fdsec.harness import evaluate_instance  # noqa: E402

SWEEP_6DB = workloads.SWEEP_CONFIG.with_updates(gamma_dl_req_db=(), gamma_dl_req_default_db=6.0)


def with_fields(inst, **changes):
    return SimpleNamespace(**{**vars(inst), **changes})


@pytest.fixture(scope="module")
def solved():
    inst = evaluate_instance(SWEEP_6DB, 0, "optimal")
    assert inst.report.status == "optimal"
    return inst


@pytest.fixture(scope="module")
def infeasible():
    # paper seed 3: the hd verdict comes with a valid ray, the precheck does not fire
    inst = evaluate_instance(workloads.PAPER_CONFIG, 3, "hd")
    assert inst.report.status == "primal_infeasible"
    assert not checks.ul_precheck(inst.chan, inst.cfg, inst.receivers.r)
    return inst


def test_program_output_passes(solved, infeasible):
    assert checks.check_instance(solved) == []
    assert checks.check_instance(infeasible) == []


def test_scaled_down_beam_breaks_its_sinr_row(solved):
    w = list(solved.alloc.W)
    w[0] = 0.9 * w[0]
    broken = with_fields(solved, alloc=replace(solved.alloc, W=tuple(w)))
    assert "rows" in checks.check_instance(broken)


def test_rank_two_beam_is_rejected(solved):
    w = list(solved.alloc.W)
    lead = np.linalg.eigh(w[0])[1][:, -1]
    other = np.linalg.eigh(w[0])[1][:, 0]
    w[0] = w[0] + 1e-4 * np.trace(w[0]).real * np.outer(other, other.conj())
    assert abs(np.vdot(lead, other)) < 1e-12
    broken = with_fields(solved, alloc=replace(solved.alloc, W=tuple(w)))
    assert "rank_one" in checks.check_instance(broken)


def test_wrong_objective_is_rejected(solved):
    qos = SimpleNamespace(objective=solved.qos.objective * (1 + 1e-6))
    assert "objective" in checks.check_instance(with_fields(solved, qos=qos))


def test_dual_bound_above_objective_is_rejected(solved):
    report = replace(solved.report, dual_obj=solved.qos.objective * (1 + 1e-4))
    assert "weak_duality" in checks.check_instance(with_fields(solved, report=report))


def test_sign_flipped_ray_is_rejected(infeasible):
    report = replace(infeasible.report, multipliers=-infeasible.report.multipliers)
    assert checks.check_instance(with_fields(infeasible, report=report)) == [
        "infeasibility_unproven"]


def test_infeasible_verdict_on_a_solved_problem_is_rejected(solved):
    report = replace(solved.report, status="primal_infeasible")
    assert checks.check_instance(with_fields(solved, report=report)) == [
        "infeasibility_unproven"]


def test_unaccepted_status_is_a_failure(solved):
    report = replace(solved.report, status="max_iters")
    assert checks.check_instance(with_fields(solved, report=report)) == ["status:max_iters"]


def test_failed_certificate_is_rejected(solved):
    rank = replace(solved.rank, certificate_pass=False)
    assert "certificate" in checks.check_instance(with_fields(solved, rank=rank))


def test_sweep_properties():
    good = {(6.0, "optimal"): 1.0, (6.0, "baseline1"): 1.5, (12.0, "optimal"): 2.0}
    assert checks.check_seed_sweep(good) == []
    above_baseline = {**good, (6.0, "baseline2"): 0.9}
    assert checks.check_seed_sweep(above_baseline) == [(6.0, "optimal", "dominance")]
    falling = {**good, (12.0, "optimal"): 0.5}
    assert checks.check_seed_sweep(falling) == [(12.0, "optimal", "monotone")]
