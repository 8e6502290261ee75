"""Acceptance suite: end-to-end guarantees across all solver components.

Each test pins an externally meaningful outcome: the worked 2-client
example, cross-method agreement against brute force, the bundled memory
controller case study, heuristic quality on generated workloads, and the
exact latency-rate arithmetic.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tdmcfg
from tdmcfg.bnp import BnpConfig, solve_bnp
from tdmcfg.colgen import (
    ColumnPool,
    canonical_duals,
    column_generation,
    price_client,
    solve_master,
)
from tdmcfg.heuristics import (
    FEASIBLE,
    continuous_allocation,
    generative,
)
from tdmcfg.ilp import solve_direct
from tdmcfg.mip import MipStatus
from tdmcfg.model import (
    allocated_rate,
    mask_service_latency,
    service_latency,
    slot_lower_bound,
)
from tdmcfg.serialize import load_instance
from tdmcfg.usecase import BD, LD, MD, GenSpec, generate
from tdmcfg.verify import brute_force_optimum, schedule_feasible

from conftest import (
    LrCharacterization,
    ServiceCurve,
    brute_force_price,
    random_instance,
    random_mask,
    wc_finishing_times,
)


def test_golden_trace(golden_instance, golden_seed_columns):
    """Column generation on the worked example: trajectory, pricing, optimum."""
    t0 = time.monotonic()
    pool = ColumnPool()
    for client_id, mask in golden_seed_columns:
        pool.add(client_id, mask)
    master = solve_master(pool, (), golden_instance)
    lam, sigma = canonical_duals(master, golden_instance)
    _, cost1 = price_client(golden_instance.client(1), lam, 10)
    _, cost2 = price_client(golden_instance.client(2), lam, 10)
    xi1, xi2 = cost1 - sigma[0], cost2 - sigma[1]
    assert xi1 == pytest.approx(0.0, abs=1e-9)
    assert xi2 == pytest.approx(-0.1, abs=1e-9)
    for p, (client, xi) in enumerate(zip(golden_instance.clients, (xi1, xi2))):
        best = brute_force_price(client, lam, 10) - sigma[p]
        assert xi == pytest.approx(best, abs=1e-9)

    trace = []
    res = column_generation(pool, (), golden_instance, trace)
    # exact pricing descends 9/10, 9/10, 4/5; a different choice among
    # equally priced columns may pass through 17/20 in one more iteration
    values = [Fraction(objective).limit_denominator(100) for _, objective, _ in trace]
    assert values[0] == Fraction(9, 10) and values[-1] == Fraction(4, 5)
    assert values == sorted(values, reverse=True)
    assert len(trace) <= 4
    assert res.status == "optimal"
    assert Fraction(res.lower_bound).limit_denominator(100) == Fraction(4, 5)
    # the optimum is attained integrally: branch-and-price returns a
    # verified conflict-free schedule at the same value
    schedule, status, objective, _, _ = solve_bnp(
        golden_instance, BnpConfig(seed=0, time_limit=30)
    )
    assert status == MipStatus.OPTIMAL
    assert objective == Fraction(4, 5)
    assert schedule_feasible(schedule, golden_instance).feasible
    assert time.monotonic() - t0 < 1.0


def test_cross_method_optimality():
    """ILP, both B&P branchings and brute force agree on 100 instances."""
    rng = random.Random(1234)
    agreements = 0
    for _ in range(100):
        inst = random_instance(rng, max_clients=3, max_frame=12)
        _, bf_obj = brute_force_optimum(inst)
        _, ilp_status, ilp_obj, _ = solve_direct(inst, time_limit=60)
        results = [("ilp", ilp_status, ilp_obj)]
        for branching in ("sequential", "max_probability"):
            _, status, obj, _, _ = solve_bnp(
                inst, BnpConfig(branching=branching, seed=0, time_limit=60)
            )
            results.append((branching, status, obj))
        if bf_obj is None:
            for label, status, _ in results:
                assert status == MipStatus.INFEASIBLE, (label, inst)
        else:
            for label, status, obj in results:
                assert status == MipStatus.OPTIMAL, (label, status, inst)
                assert obj == bf_obj, (label, obj, bf_obj, inst)
            agreements += 1
    assert agreements > 0


def test_case_study():
    """The bundled controller instance solves optimally by both exact methods."""
    t0 = time.monotonic()
    path = Path(tdmcfg.__file__).parent / "data" / "hd-video.json"
    inst = load_instance(path)
    lower = Fraction(
        sum(slot_lower_bound(c, inst.frame_size) for c in inst.clients),
        inst.frame_size,
    )
    assert lower == Fraction(59, 64)

    ilp_sched, ilp_status, ilp_obj, _ = solve_direct(inst, time_limit=60)
    assert ilp_status == MipStatus.OPTIMAL
    bnp_sched, bnp_status, bnp_obj, _, _ = solve_bnp(
        inst, BnpConfig(seed=0, time_limit=60)
    )
    assert bnp_status == MipStatus.OPTIMAL
    assert ilp_obj == bnp_obj == lower

    for schedule in (ilp_sched, bnp_sched):
        report = schedule_feasible(schedule, inst)
        assert report.feasible, report.violations
        for client in inst.clients:
            assert allocated_rate(schedule, client.id) >= client.required_rate
            if client.required_latency is not None:
                assert (
                    service_latency(schedule, client.id)
                    <= client.required_latency
                )
    assert time.monotonic() - t0 < 60


def test_heuristic_quality_on_generated_workloads():
    """One generative run per instance: >= 80% feasible, optimal when feasible."""
    feasible = 0
    total = 0
    for k in range(20):
        inst = generate(GenSpec.default(BD, 8, seed=100 + k))
        total += 1
        schedule, status = generative(inst, seed=0)
        if status != FEASIBLE:
            continue
        feasible += 1
        assert schedule_feasible(schedule, inst).feasible
        phi = Fraction(
            sum(schedule.alloc_count(c.id) for c in inst.clients),
            inst.frame_size,
        )
        _, opt_status, opt_obj, _, _ = solve_bnp(
            inst, BnpConfig(seed=0, time_limit=120)
        )
        assert opt_status == MipStatus.OPTIMAL
        assert phi == opt_obj, (k, phi, opt_obj)
    assert feasible >= 0.8 * total, f"only {feasible}/{total} feasible"


def test_continuous_allocation_rarely_feasible():
    """The contiguous baseline fails on nearly all generated instances."""
    feasible = 0
    total = 0
    for klass in (BD, LD, MD):
        for k in range(20):
            inst = generate(GenSpec.default(klass, 8, seed=300 + k))
            total += 1
            _, status = continuous_allocation(inst)
            if status == FEASIBLE:
                feasible += 1
    assert feasible <= 0.1 * total, f"{feasible}/{total} feasible"


def test_lr_math_properties():
    """Exact latency-rate arithmetic on 1000 random masks."""
    t0 = time.monotonic()
    rng = random.Random(99)
    strict_witness_seen = False
    for _ in range(1000):
        f = rng.randint(3, 12)
        mask = list(random_mask(rng, f))
        phi = sum(mask)
        theta = mask_service_latency(mask)
        curve = ServiceCurve(mask)
        # (a) the service bound holds with the computed latency everywhere
        for j in range(1, f + 1):
            need = Fraction(phi, f) * (j - theta)
            assert curve.min_over_starts(j) >= need
        # (b) latency is at least the largest cyclic empty gap
        gap = 0
        run = 0
        for bit in mask + mask:  # doubling captures the wrap-around run
            run = run + 1 if bit == 0 else 0
            gap = max(gap, run)
        assert theta >= gap
        if theta > gap:
            strict_witness_seen = True
        # (c) rotation invariance
        shift = rng.randrange(f)
        assert mask_service_latency(mask[shift:] + mask[:shift]) == theta
    # the {1, 5, 6} mask in f=10 is a strict witness: 14/3 > 4
    witness = [0] * 10
    for s in (1, 5, 6):
        witness[s - 1] = 1
    assert mask_service_latency(witness) == Fraction(14, 3) > Fraction(4)
    assert strict_witness_seen

    # (d) finishing times are monotone in arrival times
    lr = LrCharacterization(latency=Fraction(3, 2), rate=Fraction(1, 3))
    for _ in range(100):
        times = sorted(rng.randint(0, 20) for _ in range(4))
        sizes = [rng.randint(1, 3) for _ in range(4)]
        fins = wc_finishing_times(list(zip(times, sizes)), lr)
        bumped = [times[0], times[1] + 1, times[2] + 1, times[3] + 1]
        bumped = sorted(bumped)
        fins2 = wc_finishing_times(list(zip(bumped, sizes)), lr)
        for a, b in zip(fins, fins2):
            assert b >= a
    assert time.monotonic() - t0 < 30


def test_lagrangian_bounds_are_sound():
    """Node bound estimates never exceed the final node bound, and pruning
    never discards the true optimum."""
    rng = random.Random(555)
    checked = 0
    for _ in range(20):
        inst = random_instance(rng, max_clients=3, max_frame=10)
        _, bf_obj = brute_force_optimum(inst)
        schedule, status, objective, bound, stats = solve_bnp(
            inst, BnpConfig(branching="sequential", seed=0, time_limit=60)
        )
        if bf_obj is None:
            assert status == MipStatus.INFEASIBLE
            continue
        assert status == MipStatus.OPTIMAL
        assert objective == bf_obj
        opt_slots = bf_obj * inst.frame_size
        for node_lb, estimates in stats.node_log:
            for est in estimates:
                assert est <= node_lb + 1e-9
        for pruned in stats.pruned_bounds:
            # a pruned subtree cannot hold anything better than the optimum
            assert math.ceil(pruned * inst.frame_size - 1e-6) >= opt_slots
        checked += 1
    assert checked > 0
