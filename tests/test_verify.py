"""Independent verifier and brute-force oracle."""

import random
from fractions import Fraction

import pytest

from tdmcfg.ilp import solve_direct
from tdmcfg.mip import MipStatus
from tdmcfg.model import ClientRequirement, ProblemInstance, Schedule
from tdmcfg.verify import (
    BudgetExceededError,
    _feasible_masks,
    brute_force_optimum,
    client_feasible,
    schedule_feasible,
)

from conftest import ServiceCurve, random_instance


def test_client_feasible_rate_violation():
    req = ClientRequirement(1, "c", Fraction(1, 2), None)
    report = client_feasible((1, 0, 0, 0), req, 4)
    assert not report.feasible
    assert report.violations[0].kind == "rate"


def test_client_feasible_latency_violation():
    # enough slots but all bunched: latency of (1,1,0,0) is 2 > 1
    req = ClientRequirement(1, "c", Fraction(1, 2), Fraction(1))
    report = client_feasible((1, 1, 0, 0), req, 4)
    assert not report.feasible
    assert report.violations[0].kind == "latency"
    ok = client_feasible((1, 0, 1, 0), req, 4)
    assert ok.feasible


def test_client_feasible_latency_witness_is_first_late_window():
    rng = random.Random(11)
    for _ in range(60):
        f = rng.randint(2, 16)
        mask = [rng.randint(0, 1) for _ in range(f)]
        mask[rng.randrange(f)] = 1
        theta = Fraction(rng.randint(0, 2 * f), rng.choice([1, 2, 3]))
        req = ClientRequirement(1, "c", Fraction(1, f), theta)
        report = client_feasible(mask, req, f)
        late = ServiceCurve(mask).first_late_window(theta)
        witnesses = [v.witness for v in report.violations if v.kind == "latency"]
        assert witnesses == ([] if late is None else [late])


@pytest.mark.parametrize(
    "rate, latency, f",
    [
        (Fraction(1, 4), None, 8),
        (Fraction(1, 5), Fraction(5, 2), 10),
        (Fraction(1, 3), Fraction(2), 9),
        (Fraction(0), Fraction(3), 6),
    ],
    ids=["rate-only", "fractional-latency", "integer-latency", "zero-rate"],
)
def test_feasible_masks_match_service_curve_scan(rate, latency, f):
    req = ClientRequirement(1, "c", rate, latency)
    theta = req.effective_latency(f)
    expected = []
    for bits in range(1 << f):
        mask = [(bits >> s) & 1 for s in range(f)]
        curve = ServiceCurve(mask)
        if Fraction(curve.total, f) < rate:
            continue
        if rate > 0 and curve.total < -(-f // (theta + 1)):
            continue  # below the latency slot bound
        if rate > 0 and curve.first_late_window(theta) is not None:
            continue
        expected.append(bits)
    expected.sort(key=lambda b: (b.bit_count(), b))
    assert _feasible_masks(req, f) == expected


def test_schedule_feasible_flags_unknown_client():
    inst = ProblemInstance(4, (ClientRequirement(1, "c", Fraction(1, 4), None),))
    schedule = Schedule((1, 9, None, None))
    report = schedule_feasible(schedule, inst)
    assert not report.feasible
    assert any(v.kind == "collision" for v in report.violations)


def test_schedule_feasible_accepts_valid(golden_instance):
    schedule = Schedule((2, 1, 1, 2, 1, 1, 2, None, 1, None))
    report = schedule_feasible(schedule, golden_instance)
    assert report.feasible, report.violations
    assert report.objective == Fraction(4, 5)


def test_brute_force_golden_optimum(golden_instance):
    schedule, objective = brute_force_optimum(golden_instance)
    assert objective == Fraction(4, 5)
    assert schedule_feasible(schedule, golden_instance).feasible


def test_brute_force_detects_infeasible():
    clients = tuple(
        ClientRequirement(i, f"c{i}", Fraction(1, 2), None) for i in (1, 2, 3)
    )
    schedule, objective = brute_force_optimum(ProblemInstance(4, clients))
    assert schedule is None and objective is None


def test_brute_force_budget_guard():
    clients = tuple(
        ClientRequirement(i, f"c{i}", Fraction(1, 30), None) for i in range(1, 6)
    )
    inst = ProblemInstance(30, clients)
    with pytest.raises(BudgetExceededError):
        brute_force_optimum(inst, budget=10**6)


def test_brute_force_agrees_with_ilp():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_instance(rng, max_frame=8)
        _, bf_obj = brute_force_optimum(inst)
        _, status, ilp_obj, _ = solve_direct(inst)
        if bf_obj is None:
            assert status == MipStatus.INFEASIBLE
        else:
            assert ilp_obj == bf_obj


def test_zero_rate_client_is_trivially_satisfied():
    inst = ProblemInstance(
        4,
        (
            ClientRequirement(1, "busy", Fraction(1, 2), None),
            ClientRequirement(2, "idle", Fraction(0), None),
        ),
    )
    schedule, objective = brute_force_optimum(inst)
    assert objective == Fraction(1, 2)
    assert schedule.alloc_count(2) == 0
