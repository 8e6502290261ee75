"""Shared fixtures: the worked 2-client example, random instances, the
slow cyclic service-curve oracle, an exhaustive pricing oracle and the
loop-based heuristic slot prices."""

import math
import random
from fractions import Fraction
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import pytest

from tdmcfg.colgen import Column
from tdmcfg.model import ClientRequirement, ProblemInstance, late_windows


@pytest.fixture
def golden_instance() -> ProblemInstance:
    """Two clients on f=10: rates 0.5 / 0.3, both with latency bound 3."""
    return ProblemInstance(
        10,
        (
            ClientRequirement(1, "c1", Fraction(1, 2), Fraction(3)),
            ClientRequirement(2, "c2", Fraction(3, 10), Fraction(3)),
        ),
    )


@pytest.fixture
def golden_seed_columns() -> tuple[Column, Column]:
    """One feasible column per client to seed the restricted master."""
    return (
        Column(1, (0, 0, 1, 1, 0, 0, 0, 1, 1, 1)),
        Column(2, (1, 1, 0, 0, 0, 1, 1, 0, 0, 0)),
    )


def random_instance(rng: random.Random, max_clients: int = 3, max_frame: int = 12):
    """Small random instance; latencies are sometimes absent."""
    n = rng.randint(1, max_clients)
    f = rng.randint(4, max_frame)
    clients = []
    for i in range(1, n + 1):
        rate = Fraction(rng.randint(1, max(1, f // n)), f)
        latency = (
            None if rng.random() < 0.3 else Fraction(rng.randint(2, 2 * f), 2)
        )
        clients.append(ClientRequirement(i, f"c{i}", rate, latency))
    return ProblemInstance(f, tuple(clients))


def random_mask(rng: random.Random, frame_size: int, min_slots: int = 1):
    count = rng.randint(min_slots, frame_size)
    slots = rng.sample(range(frame_size), count)
    mask = [0] * frame_size
    for s in slots:
        mask[s] = 1
    return tuple(mask)


class ServiceCurve:
    """Worst-case provided service of one client under a fixed schedule.

    ``value(k, j)`` is the number of slots the client holds among the j
    consecutive slots starting at slot k (1-based), wrapping cyclically.
    A slow, loop-based reference for the window kernel in ``tdmcfg.model``.
    """

    def __init__(self, mask: Sequence[int]):
        self._mask = tuple(int(b) for b in mask)
        f = len(self._mask)
        # prefix[j] = allocated slots among the first j slots
        prefix = [0] * (f + 1)
        for j, b in enumerate(self._mask):
            prefix[j + 1] = prefix[j] + b
        self._prefix = prefix
        self._f = f

    @property
    def total(self) -> int:
        return self._prefix[self._f]

    def value(self, k: int, j: int) -> int:
        f = self._f
        if not (1 <= k <= f and 1 <= j <= f):
            raise ValueError("window indices must lie in 1..f")
        start = k - 1
        end = start + j
        if end <= f:
            return self._prefix[end] - self._prefix[start]
        return (self._prefix[f] - self._prefix[start]) + self._prefix[end - f]

    def min_over_starts(self, j: int) -> int:
        """Worst case over all window start positions for a duration j."""
        return min(self.value(k, j) for k in range(1, self._f + 1))

    def first_late_window(self, theta) -> Optional[tuple[int, int]]:
        """First (k, j), j-major, where value(k, j) < phi / f * (j - theta)."""
        rate = Fraction(self.total, self._f)
        for j in range(1, self._f + 1):
            for k in range(1, self._f + 1):
                if self.value(k, j) < rate * (j - theta):
                    return (k, j)
        return None


def brute_force_price(
    client: ClientRequirement,
    lam: dict,
    frame_size: int,
    decisions: Sequence[tuple] = (),
) -> Optional[float]:
    """Least sum(lam over held slots) + slots / f over every mask that meets
    the client's rate and latency and the (client, slot, allocate)
    decisions, by exhaustive search; None when no mask does."""
    f = frame_size
    masks = (np.arange(1 << f)[:, None] >> np.arange(f)) & 1
    for client_id, slot, allocate in decisions:
        if client_id == client.id:
            masks = masks[masks[:, slot - 1] == allocate]
        elif allocate:
            masks = masks[masks[:, slot - 1] == 0]
    masks = masks[masks.sum(axis=1) >= math.ceil(client.required_rate * f)]
    if client.required_rate > 0:
        late = late_windows(masks, client.effective_latency(f))
        masks = masks[~late.any(axis=(1, 2))]
    if len(masks) == 0:
        return None
    cost = np.array([lam.get(j, 0.0) for j in range(1, f + 1)]) + 1.0 / f
    return float((masks @ cost).min())


@dataclass
class AllocationHistory:
    """How often each slot was held by each client in previous iterations.

    With ``compute_coefficients``, a slow, dict-based reference for
    ``tdmcfg.heuristics.slot_prices``.
    """

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
