"""Generative heuristic and the continuous-allocation baseline.

The heuristic iterates single-client calls of the exact pricing oracle
(``colgen.price_client``) with artificial slot prices: slots recently
contested by other clients get expensive, slots a client already holds
without conflict stay cheap, so clients gradually drift apart until the
composite schedule is collision-free.  A seeded random tie-break picks
among equally priced columns.  A run gives up once STALL_ROUNDS rounds of
calls leave every mask as it was.  ``best_of_runs`` repeats it with new
seeds and stops at a schedule that meets a floor no schedule can beat: the
sum of the slot lower bounds by default, or a stronger bound the caller
proved (branch-and-price passes its root node's bound).
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional

import numpy as np

from .colgen import LpTimeoutError, NodeInfeasibleError, price_client
from .model import ProblemInstance, Schedule, slot_bound_sum, slot_lower_bound
from .verify import schedule_feasible

FEASIBLE = "feasible"
NO_FEASIBLE = "no_feasible"

# successful runs surveyed on generated LD, MD and BD instances went at most
# 18.25 rounds (n calls each) without a mask change
STALL_ROUNDS = 20
MAX_ITERATIONS = 250
ALPHA = 0.1  # price surcharge per past iteration a slot was held by others


def slot_prices(
    position: int,
    alpha: float,
    held: np.ndarray,
    current: np.ndarray,
    rng: random.Random,
) -> np.ndarray:
    """Per-slot prices for the next pricing run of the client at ``position``.

    ``current`` holds every client's mask and ``held[p, j]`` counts the past
    iterations in which client p held slot j + 1 (``(n, f)`` int arrays).
    A slot costs 1 + alpha * (times others held it), at most 2, while only
    others hold it; 0.9 while the client holds it alone; 1 + 1.5 *
    ``rng.random()``, drawn in ascending slot order, while it is shared.
    """
    mine = current[position] == 1
    others = current.sum(axis=0) - current[position] > 0
    held_by_others = held.sum(axis=0) - held[position]
    prices = np.where(others, np.minimum(2.0, 1.0 + held_by_others * alpha), 1.0)
    prices[mine] = 0.9  # keep conflict-free slots where they are
    for j in np.flatnonzero(mine & others):
        prices[j] = 1.0 + rng.random() * 1.5
    return prices


def generative(
    instance: ProblemInstance, *, seed: int = 0, deadline: float = math.inf
) -> tuple[Optional[Schedule], str]:
    """Round-robin pricing runs until the composite schedule is collision-free.

    ``seed`` drives the random tie-breaks; past ``deadline`` (a
    ``time.monotonic()`` value) the run gives up.
    """
    rng = random.Random(seed)
    f = instance.frame_size
    n = instance.n_clients
    clients = list(instance.clients)
    current = np.zeros((n, f), dtype=np.int64)
    held = np.zeros((n, f), dtype=np.int64)
    unchanged = 0
    for iteration in range(MAX_ITERATIONS):
        if time.monotonic() >= deadline:
            return None, NO_FEASIBLE
        position = iteration % n
        tie_break = np.array([rng.random() for _ in range(f)])
        prices = slot_prices(position, ALPHA, held, current, rng)
        try:
            mask, _ = price_client(
                clients[position], prices, f, deadline=deadline, tie_break=tie_break
            )
        except (NodeInfeasibleError, LpTimeoutError):
            return None, NO_FEASIBLE
        unchanged = unchanged + 1 if np.array_equal(mask, current[position]) else 0
        current[position] = mask
        held += current
        if iteration + 1 >= n and current.sum(axis=0).max() <= 1:
            schedule = Schedule.from_masks(
                f, {c.id: current[p] for p, c in enumerate(clients)}
            )
            if schedule_feasible(schedule, instance).feasible:
                return schedule, FEASIBLE
        if unchanged >= STALL_ROUNDS * n:
            return None, NO_FEASIBLE
    return None, NO_FEASIBLE


def allocated_slots(schedule: Schedule) -> int:
    return sum(slot is not None for slot in schedule.slots)


def best_of_runs(
    instance: ProblemInstance,
    runs: int,
    seed: int = 0,
    time_limit: Optional[float] = None,
    *,
    floor: Optional[int] = None,
) -> tuple[Optional[Schedule], list[Schedule]]:
    """Up to ``runs`` generative runs with seeds ``seed``, ``seed + 1``, ...;
    the schedule with the fewest slots (the first on ties) and every feasible
    schedule in run order.  Stops at a schedule of at most ``floor`` slots,
    a lower bound on every schedule (the slot-bound sum by default).
    ``time_limit`` (seconds) covers all runs; a run begun after it ends at once.
    """
    floor = slot_bound_sum(instance) if floor is None else floor
    deadline = time.monotonic() + (math.inf if time_limit is None else time_limit)
    best: Optional[Schedule] = None
    found: list[Schedule] = []
    for k in range(runs):
        schedule, _ = generative(instance, seed=seed + k, deadline=deadline)
        if schedule is None:
            continue
        found.append(schedule)
        if best is None or allocated_slots(schedule) < allocated_slots(best):
            best = schedule
        if allocated_slots(best) <= floor:
            break
    return best, found


def continuous_allocation(
    instance: ProblemInstance,
) -> tuple[Optional[Schedule], str]:
    """Baseline: one contiguous block of minimum size per client, back to back."""
    f = instance.frame_size
    ordered = sorted(
        instance.clients, key=lambda c: (c.effective_latency(f), c.id)
    )
    slots: list[Optional[int]] = [None] * f
    cursor = 0
    for client in ordered:
        need = slot_lower_bound(client, f)
        if cursor + need > f:
            return None, NO_FEASIBLE
        for j in range(cursor, cursor + need):
            slots[j] = client.id
        cursor += need
    schedule = Schedule(tuple(slots))
    if schedule_feasible(schedule, instance).feasible:
        return schedule, FEASIBLE
    return None, NO_FEASIBLE
