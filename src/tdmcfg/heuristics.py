"""Generative heuristic and the continuous-allocation baseline.

The heuristic iterates single-client calls of the exact pricing oracle
(``colgen.price_client``) with artificial slot prices: slots recently
contested by other clients get expensive, slots a client already holds
without conflict stay cheap, so clients gradually drift apart until the
composite schedule is collision-free.  A seeded random tie-break picks
among equally priced columns.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .colgen import ClientInfeasibleError, DualPrices, LpTimeoutError, price_client
from .model import ProblemInstance, Schedule, slot_lower_bound
from .verify import schedule_feasible

FEASIBLE = "feasible"
NO_FEASIBLE = "no_feasible"


@dataclass
class HeuristicConfig:
    alpha: float = 0.1
    max_iterations: int = 250
    seed: int = 0
    time_limit: Optional[float] = None


@dataclass
class AllocationHistory:
    """How often each slot was held by each client in previous iterations."""

    held: dict[tuple[int, int], int] = field(default_factory=dict)  # (slot, client)

    def record(self, masks: dict[int, tuple[int, ...]]) -> None:
        for client_id, mask in masks.items():
            for j, bit in enumerate(mask, start=1):
                if bit:
                    key = (j, client_id)
                    self.held[key] = self.held.get(key, 0) + 1

    def d(self, slot: int, client_id: int) -> int:
        """Times the slot was allocated to any client other than this one."""
        return sum(
            count
            for (j, c), count in self.held.items()
            if j == slot and c != client_id
        )


def compute_coefficients(
    client_id: int,
    alpha: float,
    history: AllocationHistory,
    current: dict[int, tuple[int, ...]],
    frame_size: int,
    rng: random.Random,
) -> dict[int, float]:
    """Per-slot prices for the next pricing run; all values in [0.9, 2.5]."""
    coeffs: dict[int, float] = {}
    for j in range(1, frame_size + 1):
        self_holds = current.get(client_id, ())
        mine = bool(self_holds) and self_holds[j - 1] == 1
        others = any(
            mask[j - 1] == 1 for c, mask in current.items() if c != client_id
        )
        if others and not mine:
            coeffs[j] = min(2.0, 1.0 + history.d(j, client_id) * alpha)
        elif mine and not others:
            coeffs[j] = 0.9  # keep conflict-free slots where they are
        elif mine and others:
            coeffs[j] = 1.0 + rng.random() * 1.5
        else:
            coeffs[j] = 1.0
    return coeffs


def _collision_free(masks: dict[int, tuple[int, ...]], frame_size: int) -> bool:
    for j in range(frame_size):
        if sum(mask[j] for mask in masks.values()) > 1:
            return False
    return True


def generative(
    instance: ProblemInstance, config: Optional[HeuristicConfig] = None
) -> tuple[Optional[Schedule], str]:
    """Round-robin pricing runs until the composite schedule is collision-free."""
    config = config or HeuristicConfig()
    rng = random.Random(config.seed)
    f = instance.frame_size
    n = instance.n_clients
    clients = list(instance.clients)
    masks: dict[int, tuple[int, ...]] = {c.id: (0,) * f for c in clients}
    history = AllocationHistory()
    deadline = (
        None if config.time_limit is None else time.monotonic() + config.time_limit
    )
    for iteration in range(config.max_iterations):
        budget = None
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                return None, NO_FEASIBLE
        client = clients[iteration % n]
        tie_break = {j: rng.random() for j in range(1, f + 1)}
        coeffs = compute_coefficients(
            client.id, config.alpha, history, masks, f, rng
        )
        duals = DualPrices(lam=coeffs, sigma={})
        try:
            column, _ = price_client(
                client, duals, f, time_limit=budget, tie_break=tie_break
            )
        except (ClientInfeasibleError, LpTimeoutError):
            return None, NO_FEASIBLE
        masks[client.id] = column.mask
        history.record(masks)
        if iteration + 1 >= n and _collision_free(masks, f):
            schedule = Schedule.from_masks(f, masks)
            if schedule_feasible(schedule, instance).feasible:
                return schedule, FEASIBLE
    return None, NO_FEASIBLE


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
