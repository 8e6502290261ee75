"""Monolithic ILP over binary slot variables.

Service constraints are written in allocated-rate form: for a window of
duration j starting at slot k, the slots the client holds inside the
window must be at least (j - latency_bound) * phi_i / f, where phi_i is
the client's (variable) slot count.  This is the linear form of the exact
latency definition used by the verifier, so solver and verifier agree.
The model holds the window rows of one length per client, the shortest
that can be late, and integer-strengthened rows at the need lengths
``model.window_lengths`` also gives pricing; the lazy callback adds any
other window row an integral candidate breaks.

Variable ``p * f + s - 1`` is client position p holding slot s.  Row
builders return dense (coefficients, rhs) blocks over one client's f
slots in ``<=`` form; ``mip.stack_rows`` places them at that client's
columns.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .mip import LinearModel, MipStatus, Row, solve_mip, stack_rows
from .model import (
    ClientRequirement,
    ProblemInstance,
    Schedule,
    latency_witness,
    mask_bounds,
    slot_bound_sum,
    slot_lower_bound,
    window_lengths,
)


class FixingConflictError(ValueError):
    """Contradictory forced slot decisions."""


def _windows(frame_size: int, lengths: Sequence[int]) -> np.ndarray:
    """0/1 slot rows of the cyclic windows of each duration in ``lengths``
    (major) starting at each slot k = 1..f (minor)."""
    f = frame_size
    offsets = (np.arange(f) - np.arange(f)[:, None]) % f  # [start, slot]
    inside = offsets < np.asarray(lengths, dtype=int)[:, None, None]
    return inside.reshape(-1, f).astype(float)


def service_rows(
    client: ClientRequirement, frame_size: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Window rows of duration j, one per window start k = 1..f:
    (j - latency) / f * total slots - slots in window <= 0."""
    f = frame_size
    coef = float(j - client.effective_latency(f)) / f
    return coef - _windows(f, [j]), np.zeros(f)


def service_row(client: ClientRequirement, frame_size: int, k: int, j: int) -> Row:
    """The window row of start k and duration j as one lazy row."""
    rows, rhs = service_rows(client, frame_size, j)
    return np.arange(frame_size), rows[k - 1], rhs[k - 1]


def strengthened_rows(
    client: ClientRequirement, frame_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integer-strengthened window rows implied by the latency condition.

    Any feasible mask with phi >= lb slots satisfies, for every window,
    wc(k, j) >= phi * (j - latency) / f >= lb * (j - latency) / f, hence
    wc(k, j) >= ceil(lb * (j - latency) / f).  Rows are emitted at the
    shortest window length of each need r (``window_lengths``); they are
    redundant with the exact rows but give the LP relaxation integral
    strength.  The whole frame needs no row: the slot-bound row holds it.
    """
    f = frame_size
    lengths = window_lengths(client.effective_latency(f), f, slot_lower_bound(client, f))
    return -_windows(f, lengths), -np.repeat(np.arange(1.0, len(lengths) + 1), f)


def find_latency_violation(
    mask: list[int], client: ClientRequirement, frame_size: int
) -> Optional[tuple[int, int]]:
    """First (k, j) window where the exact latency condition fails.

    Returns None when the mask meets the client's latency bound, and for
    a rate-0 client, which needs no service.
    """
    if client.required_rate == 0:
        return None
    return latency_witness(mask, client.effective_latency(frame_size))


def build_ilp(instance: ProblemInstance, decisions: Sequence[tuple] = ()) -> LinearModel:
    """Assemble the slot-assignment ILP for an instance.

    ``decisions`` are (client, slot, allocate) branching decisions; they
    bound the variables through ``mask_bounds`` and raise
    FixingConflictError when some slot is decided both ways.
    """
    f = instance.frame_size
    clients = instance.clients
    nvar = len(clients) * f
    # client-major, like the variables
    lower, upper = np.hstack([mask_bounds(c.id, f, decisions) for c in clients])
    if (lower > upper).any():
        p, s = divmod(int(np.argmax(lower > upper)), f)
        raise FixingConflictError(f"client {clients[p].id}, slot {s + 1} decided both ways")
    # capacity rows: one client per slot
    blocks = [(0, np.tile(np.eye(f), len(clients)), np.ones(f))]
    bounds = [slot_lower_bound(c, f) for c in clients]
    for p, lb in enumerate(bounds):
        if lb > 0:
            blocks.append((p * f, -np.ones((1, f)), [-float(lb)]))
    for p, c in enumerate(clients):
        if c.required_rate == 0:
            continue
        # windows no longer than the latency are never late; the lazy
        # callback adds any other window row an integral candidate breaks.
        # In the LP relaxation the rows at j = floor(theta) + 1 are implied
        # by the r = 1 strengthened row, as (j - theta) * sum(x) / f <= 1,
        # and dropping them leaves the root bound as it is; but they steer
        # branch-and-bound: without them the BD n = 8 benchmark instances
        # took 41-57 nodes each instead of 1-11, and 3-6 times as long
        j = min(math.floor(c.effective_latency(f)) + 1, f)
        blocks.append((p * f, *service_rows(c, f, j)))
        blocks.append((p * f, *strengthened_rows(c, f)))
    # rotating a schedule keeps it feasible, so with nothing decided slot 1
    # may go to the client needing the fewest slots
    target = min(range(len(clients)), key=lambda p: (bounds[p], clients[p].id))
    if not decisions and bounds[target] >= 1:
        lower[target * f] = 1.0
    return LinearModel(
        np.full(nvar, 1.0 / f), lower, upper, np.ones(nvar, dtype=bool),
        *stack_rows(blocks, nvar),
    )


def latency_lazy_callback(instance: ProblemInstance):
    """Lazy hook adding the first broken window row of an integral candidate."""

    f = instance.frame_size

    def callback(x: np.ndarray) -> Optional[Row]:
        for p, c in enumerate(instance.clients):
            mask = x[p * f:(p + 1) * f].astype(int).tolist()
            hit = find_latency_violation(mask, c, f)
            if hit is not None:
                indices, coefs, rhs = service_row(c, f, *hit)
                return indices + p * f, coefs, rhs
        return None

    return callback


def solve_direct(
    instance: ProblemInstance,
    decisions: Sequence[tuple] = (),
    deadline: float = math.inf,
    *,
    time_limit: Optional[float] = None,
):
    """Solve an instance with the monolithic ILP.

    Returns (schedule or None, MipStatus, objective Fraction or None,
    best_bound float).  ``decisions`` restrict the schedule as in
    ``build_ilp``; ``deadline`` (a ``time.monotonic()`` value) covers the
    model build too.  ``time_limit`` (seconds from the call), the form
    ``perfbench/run.py`` calls, ends the solve at the earlier of the two.
    """
    if time_limit is not None:
        deadline = min(deadline, time.monotonic() + time_limit)
    f = instance.frame_size
    if slot_bound_sum(instance) > f:
        return None, MipStatus.INFEASIBLE, None, math.inf
    model = build_ilp(instance, decisions)
    res = solve_mip(
        model,
        lazy=latency_lazy_callback(instance),
        deadline=deadline,
        bound_grid=1.0 / f,
    )
    if res.status in (MipStatus.INFEASIBLE, MipStatus.TIMED_OUT):
        return None, res.status, None, res.best_bound
    held = np.round(res.x).reshape(len(instance.clients), f) == 1
    schedule = Schedule.from_masks(f, {c.id: held[p] for p, c in enumerate(instance.clients)})
    objective = Fraction(sum(schedule.alloc_count(c.id) for c in instance.clients), f)
    return schedule, res.status, objective, res.best_bound
