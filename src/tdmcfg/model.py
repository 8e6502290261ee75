"""Domain types and exact latency-rate analysis of TDM schedules.

Rates are fractions of the frame, latencies are measured in slots.  All
analysis is exact: rates and latencies are rationals, and one integer
window kernel (``late_windows``) scales the latency-rate service bound by
the latency's denominator, so feasibility verdicts never depend on
floating-point tolerances.  ``mask_bounds`` is the one place where
branching decisions become per-slot bounds on a client's mask, and
``window_lengths`` the one place where the latency condition becomes
window needs, for pricing and the ILP alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


class UnknownClientError(KeyError):
    """Raised when a client id does not belong to the instance/schedule."""


class LatencyUndefinedError(ValueError):
    """Raised when asking for the service latency of a client with no slots."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # floats only appear in tests/convenience paths; take the exact value
        return Fraction(value).limit_denominator(10**9)
    return Fraction(value)


@dataclass(frozen=True)
class ClientRequirement:
    """Latency and rate requirement of a single real-time client.

    ``required_rate`` is the fraction of frame slots the client must get;
    ``required_latency`` is the maximum tolerated service latency in slots,
    or None when the client has no latency requirement.
    """

    id: int
    name: str
    required_rate: Fraction
    required_latency: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "required_rate", _as_fraction(self.required_rate))
        if self.required_latency is not None:
            object.__setattr__(
                self, "required_latency", _as_fraction(self.required_latency)
            )
        if not 0 <= self.required_rate <= 1:
            raise ValueError(f"rate of client {self.name} outside [0, 1]")
        if self.required_latency is not None and self.required_latency < 0:
            raise ValueError(f"latency of client {self.name} negative")

    def effective_latency(self, frame_size: int) -> Fraction:
        """Latency bound used in all computations.

        An absent requirement maps to f - 1, the weakest bound any
        rate-feasible client with at least one slot always meets.
        """
        if self.required_latency is None:
            return Fraction(frame_size - 1)
        return self.required_latency


@dataclass(frozen=True)
class ProblemInstance:
    """A frame size together with per-client requirements."""

    frame_size: int
    clients: tuple[ClientRequirement, ...]

    def __post_init__(self):
        object.__setattr__(self, "clients", tuple(self.clients))
        if self.frame_size < 1:
            raise ValueError("frame_size must be >= 1")
        if not self.clients:
            raise ValueError("at least one client required")
        ids = [c.id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate client ids")

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def client(self, client_id: int) -> ClientRequirement:
        for c in self.clients:
            if c.id == client_id:
                return c
        raise UnknownClientError(client_id)

    def total_required_rate(self) -> Fraction:
        return sum((c.required_rate for c in self.clients), Fraction(0))


class DominanceClass(Enum):
    BANDWIDTH_DOMINATED = "bandwidth"
    LATENCY_DOMINATED = "latency"
    MIXED_DOMINATED = "mixed"


def rate_slot_bound(req: ClientRequirement, frame_size: int) -> int:
    """Slots needed for the rate requirement alone: ceil(rate * f)."""
    return math.ceil(req.required_rate * frame_size)


def latency_slot_bound(req: ClientRequirement, frame_size: int) -> int:
    """Slots needed for the latency requirement alone: ceil(f / (latency + 1)).

    Assumes an equidistant allocation, which minimizes the slot count
    needed to reach a given latency.
    """
    theta = req.effective_latency(frame_size)
    return math.ceil(Fraction(frame_size) / (theta + 1))


def slot_lower_bound(req: ClientRequirement, frame_size: int) -> int:
    """Lower bound on the number of slots any feasible schedule allocates."""
    if req.required_rate == 0:
        # a zero-rate client needs no service at all
        return 0
    return max(rate_slot_bound(req, frame_size), latency_slot_bound(req, frame_size))


def slot_bound_sum(instance: ProblemInstance) -> int:
    """Sum of the per-client slot lower bounds: no schedule allocates fewer."""
    return sum(slot_lower_bound(c, instance.frame_size) for c in instance.clients)


def window_lengths(theta: Fraction, frame_size: int, t: int) -> list[int]:
    """Shortest window length j_r that must hold r of t slots, r = 1, 2, ...

    A mask of t slots meets latency theta when every window of length j
    holds at least ceil(t * (j - theta) / f) of them; that need first
    reaches r at j_r = floor(theta + (r - 1) * f / t) + 1.  Lengths of f
    and more are left out: the whole frame always holds all t slots.
    """
    f = frame_size
    num, den = theta.numerator, theta.denominator
    lengths = []
    for r in range(1, t + 1):
        j = (num * t + (r - 1) * f * den) // (den * t) + 1
        if j >= f:
            break
        lengths.append(j)
    return lengths


def dominance_class(req: ClientRequirement, frame_size: int) -> DominanceClass:
    """Classify which term of the slot lower bound is binding."""
    lat = latency_slot_bound(req, frame_size)
    bw = rate_slot_bound(req, frame_size)
    if lat > bw:
        return DominanceClass.LATENCY_DOMINATED
    if lat == bw:
        return DominanceClass.MIXED_DOMINATED
    return DominanceClass.BANDWIDTH_DOMINATED


@dataclass(frozen=True)
class Schedule:
    """A length-f assignment of slots to client ids (None = empty slot)."""

    slots: tuple[Optional[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def frame_size(self) -> int:
        return len(self.slots)

    def alloc_count(self, client_id: int) -> int:
        return sum(1 for s in self.slots if s == client_id)

    def mask(self, client_id: int) -> tuple[int, ...]:
        """0/1 vector of the slots held by the client."""
        return tuple(1 if s == client_id else 0 for s in self.slots)

    def client_ids(self) -> set[int]:
        return {s for s in self.slots if s is not None}

    @staticmethod
    def from_masks(frame_size: int, masks: dict[int, Sequence[int]]) -> "Schedule":
        """Combine per-client 0/1 masks; raises on overlapping slots."""
        slots: list[Optional[int]] = [None] * frame_size
        for client_id, mask in masks.items():
            for j, bit in enumerate(mask):
                if bit:
                    if slots[j] is not None:
                        raise ValueError(f"slot {j + 1} allocated twice")
                    slots[j] = client_id
        return Schedule(tuple(slots))


def mask_bounds(
    client_id: int, frame_size: int, decisions: Sequence[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """0/1 bounds that (client, slot, allocate) decisions put on one mask.

    ``lower`` marks the slots allocated to the client; ``upper`` clears the
    slots forbidden to it and every slot allocated to another client.  A
    mask obeys the decisions when lower <= mask <= upper; a slot with
    lower > upper was decided both ways, and lower < upper marks a free one.
    """
    lower, upper = np.zeros(frame_size), np.ones(frame_size)
    for owner, slot, allocate in decisions:
        if owner == client_id and allocate:
            lower[slot - 1] = 1.0
        elif owner == client_id or allocate:
            upper[slot - 1] = 0.0
    return lower, upper


def allocated_rate(
    schedule: Schedule, client_id: int, instance: Optional[ProblemInstance] = None
) -> Fraction:
    """Allocated rate phi_i / f of a client in a schedule.

    When an instance is given, the id is validated against it (a client with
    zero slots is still a valid client).
    """
    if not isinstance(client_id, int):
        raise UnknownClientError(client_id)
    if instance is not None:
        instance.client(client_id)  # raises UnknownClientError
    return Fraction(schedule.alloc_count(client_id), schedule.frame_size)


def window_service(masks) -> np.ndarray:
    """Slots held in every cyclic window, for one 0/1 mask or a stack.

    For masks of shape ``(..., f)`` the result has shape ``(..., f, f)``;
    entry ``[..., j - 1, k - 1]`` counts the slots held among the j
    consecutive slots starting at slot k (1-based), wrapping cyclically.
    """
    m = np.asarray(masks, dtype=np.int64)
    f = m.shape[-1]
    prefix = np.zeros(m.shape[:-1] + (2 * f + 1,), dtype=np.int64)
    np.cumsum(np.concatenate([m, m], axis=-1), axis=-1, out=prefix[..., 1:])
    starts = np.arange(f)[None, :]
    ends = starts + np.arange(1, f + 1)[:, None]
    return prefix[..., ends] - prefix[..., starts]


def late_windows(masks, theta) -> np.ndarray:
    """Windows where the LR service bound fails, shaped like ``window_service``.

    A mask holding phi slots meets latency theta = num / den when every
    window (k, j) gives it service * f >= phi * (j - theta); window (k, j)
    is late when service * f * den < phi * (j * den - num).  All integer.
    """
    theta = Fraction(theta)
    num, den = theta.numerator, theta.denominator
    m = np.asarray(masks, dtype=np.int64)
    f = m.shape[-1]
    # exact beyond int64 too: fall back to Python integers
    dtype = np.int64 if f * (f * den + abs(num)) < 2**62 else object
    service = window_service(m).astype(dtype, copy=False)
    phi = m.sum(axis=-1, keepdims=True)[..., None].astype(dtype)
    need = phi * (np.arange(1, f + 1, dtype=dtype) * den - num)[:, None]
    return service * (f * den) < need


def latency_witness(mask: Sequence[int], theta) -> Optional[tuple[int, int]]:
    """First late window (k, j) in j-major, k-minor order, or None."""
    late = np.flatnonzero(late_windows(mask, theta))
    if late.size == 0:
        return None
    j, k = divmod(int(late[0]), len(mask))
    return (k + 1, j + 1)


def mask_service_latency(mask: Sequence[int]) -> Fraction:
    """Minimum latency satisfying the LR service bound for a 0/1 mask.

    theta = max(0, max_{k,j} (j - service(k, j) * f / phi)); one frame adds
    exactly phi service, so durations beyond f never dominate.
    """
    f = len(mask)
    phi = int(sum(mask))
    if phi == 0:
        raise LatencyUndefinedError("client holds no slots, latency undefined")
    worst = np.arange(1, f + 1) * phi - f * window_service(mask).min(axis=-1)
    return Fraction(max(0, int(worst.max())), phi)


def service_latency(schedule: Schedule, client_id: int) -> Fraction:
    """Exact service latency of a client in a schedule (Definition-style)."""
    return mask_service_latency(schedule.mask(client_id))
