"""Generative heuristic and the continuous-allocation baseline."""

import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import AllocationHistory, compute_coefficients

from tdmcfg import heuristics
from tdmcfg.bnp import BnpConfig, solve_bnp
from tdmcfg.heuristics import (
    FEASIBLE,
    MAX_ITERATIONS,
    NO_FEASIBLE,
    allocated_slots,
    best_of_runs,
    continuous_allocation,
    generative,
    slot_prices,
)
from tdmcfg.ilp import solve_direct
from tdmcfg.mip import MipStatus
from tdmcfg.model import ClientRequirement, ProblemInstance
from tdmcfg.serialize import load_instance
from tdmcfg.verify import schedule_feasible


def test_allocation_history_counts_other_clients():
    # rows are clients 1 and 2; the loop adds every current mask each iteration
    held = np.zeros((2, 4), dtype=np.int64)
    held += np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    held += np.array([[1, 0, 0, 0], [0, 0, 1, 0]])
    # a slot held only by others costs 1 + alpha * (times others held it)
    current = np.array([[1, 1, 0, 0], [0, 1, 0, 1]])
    client2 = slot_prices(1, 0.25, held, current, random.Random(0))
    assert client2[0] == 1.0 + 2 * 0.25  # client 1 held slot 1 twice
    current = np.array([[0, 0, 0, 0], [0, 1, 0, 1]])
    client1 = slot_prices(0, 0.25, held, current, random.Random(0))
    assert client1[1] == 1.0 + 1 * 0.25
    assert client1[3] == 1.0 + 0 * 0.25


def test_compute_coefficients_cases():
    rng = random.Random(0)
    held = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    current = np.array([[1, 0, 0, 0], [1, 1, 0, 0]])  # both now claim slot 1
    coeffs = slot_prices(0, 0.1, held, current, rng)
    # slot 2: held by client 2 alone -> expensive, capped at 2
    assert 1.0 < coeffs[1] <= 2.0
    # slot 1: conflicted self-held slot -> random surcharge in [1, 2.5)
    assert 1.0 <= coeffs[0] < 2.5
    # slot 3, 4: free
    assert coeffs[2] == 1.0 and coeffs[3] == 1.0
    # self-held without conflict is discounted
    current2 = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    coeffs2 = slot_prices(0, 0.1, held, current2, rng)
    assert coeffs2[0] == 0.9


def test_slot_prices_match_loop_oracle():
    """Array prices equal the dict-based loop and draw the same rng stream."""
    gen = random.Random(7)
    for _ in range(300):
        n = gen.randint(1, 5)
        f = gen.randint(1, 20)
        ids = sorted(gen.sample(range(1, 50), n))
        current = np.array(
            [[int(gen.random() < 0.4) for _ in range(f)] for _ in range(n)],
            dtype=np.int64,
        )
        held = np.array(
            [[gen.randint(0, 30) for _ in range(f)] for _ in range(n)],
            dtype=np.int64,
        )
        history = AllocationHistory(
            {
                (j + 1, ids[p]): int(held[p, j])
                for p in range(n)
                for j in range(f)
                if held[p, j]
            }
        )
        masks = {ids[p]: tuple(int(b) for b in current[p]) for p in range(n)}
        alpha = gen.choice([0.1, 0.05, 0.3])
        position = gen.randrange(n)
        seed = gen.randrange(1 << 30)
        rng_array, rng_loop = random.Random(seed), random.Random(seed)
        prices = slot_prices(position, alpha, held, current, rng_array)
        coeffs = compute_coefficients(ids[position], alpha, history, masks, f, rng_loop)
        assert prices.tolist() == [coeffs[j] for j in range(1, f + 1)]
        assert rng_array.random() == rng_loop.random()


def test_generative_finds_verified_schedule(golden_instance):
    schedule, status = generative(golden_instance, seed=0)
    assert status == FEASIBLE
    assert schedule_feasible(schedule, golden_instance).feasible


def test_generative_reports_no_feasible_when_overloaded():
    clients = tuple(
        ClientRequirement(i, f"c{i}", Fraction(1, 2), None) for i in (1, 2, 3)
    )
    inst = ProblemInstance(4, clients)
    schedule, status = generative(inst, seed=0)
    assert status == NO_FEASIBLE
    assert schedule is None


def test_generative_deterministic_per_seed(golden_instance):
    first, _ = generative(golden_instance, seed=3)
    second, _ = generative(golden_instance, seed=3)
    assert first == second


def _best_of_runs_status(instance, **kwargs):
    best, found = best_of_runs(instance, 8, **kwargs)
    return best, FEASIBLE if found else NO_FEASIBLE


@pytest.mark.parametrize("solve", [
    lambda inst: solve_direct(inst, time_limit=0)[:2],
    lambda inst: solve_bnp(inst, BnpConfig(time_limit=0))[:2],
    lambda inst: _best_of_runs_status(inst, time_limit=0),
    lambda inst: generative(inst, deadline=time.monotonic()),
], ids=["solve_direct", "solve_bnp", "best_of_runs", "generative"])
def test_zero_budget_returns_no_schedule(golden_instance, solve):
    # every public entry point, given no time at all, gives up at once
    start = time.monotonic()
    schedule, status = solve(golden_instance)
    assert time.monotonic() - start < 2
    assert schedule is None
    assert status in (MipStatus.TIMED_OUT, NO_FEASIBLE)


LD4_S19 = Path(__file__).resolve().parents[1] / "perfbench/corpus/bnp-tree/ld4-s19.json"


@pytest.mark.parametrize("seed, slots", [(0, None), (1, 12), (5, 12)])
def test_generative_ends_trapped_runs(monkeypatch, seed, slots):
    # seed 0 keeps every mask unchanged from iteration 8 on: c2 and
    # c3 share slot 10 and every move costs more than the surcharge
    instance = load_instance(LD4_S19)
    calls = []
    price = heuristics.price_client
    monkeypatch.setattr(
        heuristics, "price_client", lambda *a, **k: calls.append(1) or price(*a, **k)
    )
    schedule, status = generative(instance, seed=seed)
    if slots is None:
        assert (schedule, status) == (None, NO_FEASIBLE)
        assert len(calls) < MAX_ITERATIONS
    else:
        assert status == FEASIBLE and allocated_slots(schedule) == slots
        assert schedule_feasible(schedule, instance).feasible


def test_continuous_allocation_easy_rate_only_instance():
    clients = (
        ClientRequirement(1, "a", Fraction(1, 4), None),
        ClientRequirement(2, "b", Fraction(1, 4), None),
    )
    inst = ProblemInstance(4, clients)
    schedule, status = continuous_allocation(inst)
    assert status == FEASIBLE
    assert schedule_feasible(schedule, inst).feasible


def test_continuous_allocation_fails_on_tight_latency(golden_instance):
    # contiguous blocks cannot meet latency 3 with 5 slots in f=10
    schedule, status = continuous_allocation(golden_instance)
    assert status == NO_FEASIBLE
