"""Shared fixtures: the worked 2-client example, random instances, the
slow cyclic service-curve oracle, an exhaustive pricing oracle, the
loop-based heuristic slot prices, the Fraction-loop strengthened rows,
loop-based readings of branching decisions and latency-rate finishing
times."""

import math
import random
from fractions import Fraction
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import pytest

from tdmcfg.ilp import FixingConflictError
from tdmcfg.model import (
    ClientRequirement,
    ProblemInstance,
    Schedule,
    _as_fraction,
    allocated_rate,
    late_windows,
    latency_slot_bound,
    rate_slot_bound,
    service_latency,
    slot_lower_bound,
)


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
def golden_seed_columns() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """One feasible (client id, mask) per client to seed the restricted master."""
    return (
        (1, (0, 0, 1, 1, 0, 0, 0, 1, 1, 1)),
        (2, (1, 1, 0, 0, 0, 1, 1, 0, 0, 0)),
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
    lam: Sequence[float],
    frame_size: int,
    decisions: Sequence[tuple] = (),
) -> Optional[float]:
    """Least sum(lam over held slots) + slots / f over every mask that meets
    the client's rate and latency and the (client, slot, allocate)
    decisions, by exhaustive search; None when no mask does.  ``lam`` holds
    the price of slot s at index s - 1."""
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
    cost = np.asarray(lam, dtype=float) + 1.0 / f
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


def window_slots(frame_size: int, k: int, j: int) -> list[int]:
    """1-based slots of the cyclic window of duration j starting at k."""
    return [(k - 1 + off) % frame_size + 1 for off in range(j)]


def formula_slots(client: ClientRequirement, frame_size: int) -> int:
    """The paper's slot count, max(ceil(rate * f), ceil(f / (theta + 1))),
    0 for a rate-0 client: a lower bound on ``slot_lower_bound``."""
    if client.required_rate == 0:
        return 0
    return max(rate_slot_bound(client, frame_size), latency_slot_bound(client, frame_size))


def strengthened_windows(client: ClientRequirement, frame_size: int) -> list[tuple[int, int]]:
    """(need r, length j) of each integer-strengthened window row, by a
    Fraction loop: the smallest j with lb * (j - latency) / f > r - 1,
    reference for ``tdmcfg.ilp.strengthened_rows``."""
    f = frame_size
    lb = slot_lower_bound(client, f)
    needs = []
    if lb > 0 and client.required_latency is not None:
        theta = client.effective_latency(f)
        for r in range(1, lb + 1):
            j = math.floor(theta + Fraction((r - 1) * f, lb)) + 1
            if j > f:
                break
            needs.append((r, j))
    return needs


# Loop-based readings of (client, slot, allocate) decisions, references
# for ``tdmcfg.model.mask_bounds``.


def column_admissible(
    client: int, mask: Sequence[int], decisions: Sequence[tuple]
) -> bool:
    """Whether a client's mask is consistent with forced/forbidden slot decisions."""
    for client_id, slot, allocate in decisions:
        covered = mask[slot - 1] == 1
        if client_id == client:
            if covered != allocate:
                return False
        elif allocate and covered:
            return False
    return True


def check_fixings(fixings: Sequence[tuple]) -> dict[tuple[int, int], bool]:
    """The decided pairs; raises FixingConflictError when a pair is decided
    both ways or a slot is allocated to two clients."""
    decided: dict[tuple[int, int], bool] = {}
    slot_owner: dict[int, int] = {}
    for client_id, slot, value in fixings:
        key = (client_id, slot)
        if key in decided and decided[key] != value:
            raise FixingConflictError(f"client {client_id}, slot {slot} fixed both ways")
        decided[key] = value
        if value:
            if slot in slot_owner and slot_owner[slot] != client_id:
                raise FixingConflictError(f"slot {slot} forced to two clients")
            slot_owner[slot] = client_id
    return decided


def decided_pairs(
    decisions: Sequence[tuple],
) -> tuple[dict[tuple[int, int], bool], dict[int, int]]:
    """The decided pairs and, per allocated slot, its (last) owner."""
    decided: dict[tuple[int, int], bool] = {}
    slot_owner: dict[int, int] = {}
    for client_id, slot, allocate in decisions:
        decided[(client_id, slot)] = allocate
        if allocate:
            slot_owner[slot] = client_id
    return decided, slot_owner


def free_pairs(decisions: Sequence[tuple], client_ids, frame_size: int) -> set:
    """(client, slot) pairs that are neither decided nor owned by another client."""
    decided, slot_owner = decided_pairs(decisions)
    return {
        (c, slot)
        for c in client_ids
        for slot in range(1, frame_size + 1)
        if (c, slot) not in decided and slot_owner.get(slot, c) == c
    }


@dataclass(frozen=True)
class LrCharacterization:
    """Exact latency-rate parameters provided by a schedule to one client."""

    latency: Fraction
    rate: Fraction


def lr_characterization(schedule: Schedule, client_id: int) -> LrCharacterization:
    return LrCharacterization(
        latency=service_latency(schedule, client_id),
        rate=allocated_rate(schedule, client_id),
    )


def wc_finishing_times(
    arrivals: Sequence[tuple], lr: LrCharacterization
) -> list[Fraction]:
    """Worst-case finishing times of a time-sorted request sequence.

    Each arrival is a (time, size) pair with size in slots.  The k-th bound
    is max(arr_k + latency, fin_{k-1}) + size_k / rate.
    """
    if lr.rate == 0:
        raise ValueError("finishing times undefined for zero rate")
    times = [a for a, _ in arrivals]
    if times != sorted(times):
        raise ValueError("arrivals must be time-sorted")
    fins: list[Fraction] = []
    prev = None
    for arr, size in arrivals:
        start = _as_fraction(arr) + lr.latency
        if prev is not None and prev > start:
            start = prev
        fin = start + _as_fraction(size) / lr.rate
        fins.append(fin)
        prev = fin
    return fins
