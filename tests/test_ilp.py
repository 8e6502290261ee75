"""Monolithic ILP: branching decisions, window rows, lazy latency cuts."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tdmcfg import ilp
from tdmcfg.ilp import (
    FixingConflictError,
    build_ilp,
    find_latency_violation,
    service_row,
    service_rows,
    solve_direct,
    strengthened_rows,
)
from tdmcfg.mip import MipStatus
from tdmcfg.model import ClientRequirement, DominanceClass, ProblemInstance, dominance_class
from tdmcfg.usecase import GenSpec, generate
from tdmcfg.verify import brute_force_optimum, schedule_feasible

from conftest import ServiceCurve, random_instance, strengthened_windows, window_slots


def test_window_slots_wraps_cyclically():
    assert window_slots(5, 4, 3) == [4, 5, 1]
    assert window_slots(5, 1, 5) == [1, 2, 3, 4, 5]


def test_check_fixings_conflicts():
    inst = ProblemInstance(
        6, tuple(ClientRequirement(i, f"c{i}", Fraction(1, 6), None) for i in (1, 2))
    )
    with pytest.raises(FixingConflictError):
        build_ilp(inst, [(1, 3, True), (1, 3, False)])
    with pytest.raises(FixingConflictError):
        build_ilp(inst, [(1, 3, True), (2, 3, True)])
    model = build_ilp(inst, [(1, 3, True), (2, 4, False)])
    # variable p * f + slot - 1; client 1 holding slot 3 bars client 2 from it
    assert np.flatnonzero(model.lower).tolist() == [2]
    assert np.flatnonzero(model.upper == 0).tolist() == [6 + 2, 6 + 3]


def test_build_ilp_pins_slot_one_by_a_bound(golden_instance):
    f = golden_instance.frame_size
    model = build_ilp(golden_instance)
    assert np.isneginf(model.row_lower).all()  # no equality row
    # client 2 needs the fewer slots (3 of 10), so slot 1 goes to it
    assert np.flatnonzero(model.lower).tolist() == [f]
    # any decision may break the rotation symmetry, so none is pinned then
    decided = build_ilp(golden_instance, [(1, 5, False)])
    assert np.isneginf(decided.row_lower).all()
    assert not decided.lower.any()


def test_find_latency_violation_matches_exact_check():
    # the witness is the first late window of the cyclic scan, j-major
    rng = random.Random(3)
    for _ in range(200):
        f = rng.randint(1, 24)
        mask = [rng.randint(0, 1) for _ in range(f)]
        if rng.random() < 0.1:
            mask = [0] * f  # phi = 0: no service needed, nothing is late
        # the largest denominator takes the kernel's Python-int path
        den = rng.choice([1, 2, 3, 7, 10**18 + 9])
        theta = Fraction(rng.randint(0, 3 * f * den), den)
        req = ClientRequirement(1, "c", Fraction(sum(mask), f), theta)
        assert find_latency_violation(mask, req, f) == (
            ServiceCurve(mask).first_late_window(theta)
        )
    sparse = [1, 0, 0, 0, 1, 1, 0, 0, 0, 0]  # latency 14/3
    req = ClientRequirement(1, "c", Fraction(3, 10), Fraction(9, 2))
    assert find_latency_violation(sparse, req, 10) == (7, 8)
    rate_free = ClientRequirement(1, "c", Fraction(0), Fraction(1))
    assert find_latency_violation(sparse, rate_free, 10) is None


def test_strengthened_rows_are_valid_cuts():
    # every feasible mask must satisfy every strengthened row
    req = ClientRequirement(1, "c", Fraction(3, 10), Fraction(4))
    f = 10
    rows, rhs = strengthened_rows(req, f)
    assert len(rhs), "latency-constrained client should produce cuts"
    assert rows.shape == (len(rhs), f)
    for bits in range(1 << f):
        mask = [(bits >> s) & 1 for s in range(f)]
        if Fraction(sum(mask), f) < req.required_rate:
            continue
        if find_latency_violation(mask, req, f) is not None:
            continue
        assert (rows @ mask <= rhs + 1e-9).all(), f"feasible mask {mask} cut off"


def test_strengthened_rows_match_fraction_loop():
    # the rows sit at the need lengths pricing uses; only the whole-frame
    # rows of the Fraction loop are left out, as the slot-bound row holds them
    rng = random.Random(8)
    for _ in range(300):
        f = rng.randint(1, 40)
        rate = Fraction(rng.randint(0, f), f)
        den = rng.choice([1, 2, 3, 7])
        latency = None if rng.random() < 0.1 else Fraction(rng.randint(0, 3 * f * den), den)
        req = ClientRequirement(1, "c", rate, latency)
        rows, rhs = strengthened_rows(req, f)
        expected_rows, expected_rhs = [], []
        for r, j in strengthened_windows(req, f):
            if j == f:
                continue
            for k in range(1, f + 1):
                inside = window_slots(f, k, j)
                expected_rows.append([-float(s in inside) for s in range(1, f + 1)])
                expected_rhs.append(-float(r))
        assert rows.reshape(-1, f).tolist() == expected_rows
        assert rhs.tolist() == expected_rhs


def test_strengthened_rows_absent_without_latency():
    req = ClientRequirement(1, "c", Fraction(1, 4), None)
    rows, rhs = strengthened_rows(req, 8)
    assert rows.shape == (0, 8) and len(rhs) == 0


def test_service_row_rejects_sparse_masks():
    req = ClientRequirement(1, "c", Fraction(1, 2), Fraction(1))
    indices, coefs, rhs = service_row(req, 4, 1, 2)
    # mask (1, 0, 1, 0) has window (k=2, j=2) with 1 slot; bound is
    # phi * (2 - 1) / 4 = 0.5, so the row holds there
    mask = np.array([1, 0, 1, 0])
    assert coefs @ mask[indices] <= rhs


def test_service_rows_match_window_loop():
    req = ClientRequirement(1, "c", Fraction(1, 3), Fraction(5, 2))
    f = 6
    theta = req.effective_latency(f)
    for j in (3, 5):
        rows, rhs = service_rows(req, f, j)
        assert rows.shape == (f, f) and not rhs.any()
        for k in range(1, f + 1):
            coef = float(Fraction(j) - theta) / f
            expected = [coef - (s in window_slots(f, k, j)) for s in range(1, f + 1)]
            assert rows[k - 1].tolist() == expected
            indices, coefs, b = service_row(req, f, k, j)
            assert indices.tolist() == list(range(f))
            assert coefs.tolist() == expected and b == 0.0


def test_build_ilp_partial_fixings_pin_variables():
    inst = ProblemInstance(
        4, (ClientRequirement(1, "c", Fraction(1, 2), None),)
    )
    model = build_ilp(inst, ((1, 2, True), (1, 3, False)))
    # variable p * f + slot - 1 for client position p
    assert model.lower.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert model.upper.tolist() == [1.0, 1.0, 0.0, 1.0]


def test_solve_direct_golden_instance(golden_instance):
    schedule, status, objective, _ = solve_direct(golden_instance)
    assert status == MipStatus.OPTIMAL
    assert objective == Fraction(4, 5)
    assert schedule_feasible(schedule, golden_instance).feasible


def test_solve_direct_counts_model_build_against_time_limit(
    golden_instance, monkeypatch
):
    def slow_build(instance, decisions=()):
        time.sleep(0.3)
        return build_ilp(instance, decisions)

    monkeypatch.setattr(ilp, "build_ilp", slow_build)
    schedule, status, objective, _ = solve_direct(
        golden_instance, deadline=time.monotonic() + 0.2
    )
    assert (schedule, status, objective) == (None, MipStatus.TIMED_OUT, None)
    _, status, objective, _ = solve_direct(golden_instance, deadline=time.monotonic() + 30)
    assert (status, objective) == (MipStatus.OPTIMAL, Fraction(4, 5))
    # the benchmark's form, a limit in seconds from the call, ends it alike
    schedule, status, objective, _ = solve_direct(golden_instance, time_limit=0.2)
    assert (schedule, status, objective) == (None, MipStatus.TIMED_OUT, None)


def test_solve_direct_time_limit_covers_highs_setup():
    # HiGHS reads its clock only after its set-up, which grows with the
    # model: at 31 000 rows it outran a 1 s limit by over a second
    instance = generate(GenSpec.default("MD", 8, seed=0))
    assert build_ilp(instance).A.shape[0] < 5000
    t0 = time.monotonic()
    schedule, status, _, _ = solve_direct(instance, deadline=t0 + 1.0)
    assert time.monotonic() - t0 < 1.5
    assert (schedule, status) == (None, MipStatus.TIMED_OUT)


def test_solve_direct_detects_infeasible_by_capacity():
    clients = tuple(
        ClientRequirement(i, f"c{i}", Fraction(1, 2), None) for i in (1, 2, 3)
    )
    inst = ProblemInstance(4, clients)
    schedule, status, objective, bound = solve_direct(inst)
    assert status == MipStatus.INFEASIBLE
    assert schedule is None


@pytest.mark.parametrize(
    "latency, klass, optimum",
    [
        (Fraction(1), DominanceClass.LATENCY_DOMINATED, Fraction(6, 7)),
        (Fraction(4, 3), DominanceClass.MIXED_DOMINATED, Fraction(5, 7)),
    ],
    ids=["latency-dominated", "mixed-dominated"],
)
def test_solve_direct_adds_lazy_latency_rows(monkeypatch, latency, klass, optimum):
    # every client gets window rows of one length only; the lazy callback
    # must add the others that the integral candidates break
    client = ClientRequirement(1, "c", Fraction(3, 7), latency)
    assert dominance_class(client, 7) == klass
    inst = ProblemInstance(7, (client,))
    hits = []

    def recording(mask, client, frame_size):
        hits.append(find_latency_violation(mask, client, frame_size))
        return hits[-1]

    monkeypatch.setattr(ilp, "find_latency_violation", recording)
    schedule, status, objective, _ = solve_direct(inst)
    assert any(hit is not None for hit in hits)
    assert status == MipStatus.OPTIMAL
    assert objective == brute_force_optimum(inst)[1] == optimum
    assert schedule_feasible(schedule, inst).feasible


def test_solve_direct_keeps_decisions_off_slot_one():
    # slot 1 goes to a fixed client only when nothing is decided: with a
    # decision elsewhere, rotating a schedule no longer keeps it valid
    inst = ProblemInstance(
        4, tuple(ClientRequirement(i, f"c{i}", Fraction(1, 4), None) for i in (1, 2))
    )
    schedule, status, objective, _ = solve_direct(inst, ((1, 3, True),))
    assert (status, objective) == (MipStatus.OPTIMAL, Fraction(1, 2))
    assert schedule.slots[2] == 1


def test_solve_direct_solutions_verify():
    rng = random.Random(12)
    for _ in range(10):
        inst = random_instance(rng, max_frame=10)
        schedule, status, objective, _ = solve_direct(inst)
        if status == MipStatus.OPTIMAL:
            report = schedule_feasible(schedule, inst)
            assert report.feasible, report.violations
            assert report.objective == objective
