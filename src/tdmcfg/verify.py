"""Feasibility checker and brute-force oracle.

Feasibility is judged purely from the exact LR analysis in ``model``:
the checker builds no solver constraints, but it shares
``model.latency_witness`` with pricing and the solvers' lazy latency
separation.  That check reads a mask's held slot positions and compares
their spacing with the need lengths of ``model.window_lengths``, in
integers; the rate check compares the slot count with ceil(rate * f).
The brute-force oracle checks stacks of masks with ``model.late_windows``
instead, which counts every cyclic window.  The check that shares no code
with ``tdmcfg`` at all is ``perfbench/checker.py``.  All comparisons are
exact, never tolerance-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import (
    ClientRequirement,
    ProblemInstance,
    Schedule,
    late_windows,
    latency_witness,
    rate_slot_bound,
    slot_lower_bound,
)


class BudgetExceededError(RuntimeError):
    """The brute-force search space exceeds the allowed budget."""


@dataclass(frozen=True)
class Violation:
    client_id: Optional[int]
    kind: str  # "rate" | "latency" | "collision"
    witness: tuple

    def as_dict(self) -> dict:
        return {
            "client": self.client_id,
            "kind": self.kind,
            "witness": list(self.witness),
        }


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list[Violation] = field(default_factory=list)
    objective: Optional[Fraction] = None

    def as_dict(self) -> dict:
        out = {
            "feasible": self.feasible,
            "violations": [v.as_dict() for v in self.violations],
        }
        if self.objective is not None:
            out["objective"] = str(self.objective)
        return out


def client_feasible(
    mask: Sequence[int], req: ClientRequirement, frame_size: int
) -> FeasibilityReport:
    """Check one client's mask against its rate and latency requirements."""
    if len(mask) != frame_size:
        raise ValueError("mask length does not match frame size")
    violations: list[Violation] = []
    phi = int(np.count_nonzero(mask))
    # phi / f < rate exactly when phi < ceil(rate * f), both integers
    need = rate_slot_bound(req, frame_size)
    if phi < need:
        violations.append(Violation(req.id, "rate", (phi, need)))
    elif need > 0:  # a rate-0 client needs no service
        witness = latency_witness(mask, req.effective_latency(frame_size))
        if witness is not None:
            violations.append(Violation(req.id, "latency", witness))
    return FeasibilityReport(not violations, violations, Fraction(phi, frame_size))


def schedule_feasible(
    schedule: Schedule, instance: ProblemInstance
) -> FeasibilityReport:
    """Check a complete schedule: known ids, no collisions, per-client LR."""
    violations: list[Violation] = []
    known = {c.id for c in instance.clients}
    for j, owner in enumerate(schedule.slots, start=1):
        if owner is not None and owner not in known:
            violations.append(Violation(owner, "collision", (j,)))
    total = 0
    for client in instance.clients:
        mask = schedule.mask(client.id)
        total += sum(mask)
        sub = client_feasible(mask, client, instance.frame_size)
        violations.extend(sub.violations)
    return FeasibilityReport(
        not violations, violations, Fraction(total, instance.frame_size)
    )


def _feasible_masks(req: ClientRequirement, frame_size: int) -> list[int]:
    """All feasible masks of one client, as slot bitmask ints, fewest slots first.

    Masks are checked in stacked chunks of bounded size, every cyclic
    window of each (``late_windows``).
    """
    f = frame_size
    lb = slot_lower_bound(req, f)
    theta = req.effective_latency(f)
    chunk = max(1, 2**18 // (f * f))
    out: list[int] = []
    for start in range(0, 1 << f, chunk):
        bits = np.arange(start, min(start + chunk, 1 << f), dtype=np.int64)
        masks = (bits[:, None] >> np.arange(f)) & 1
        keep = masks.sum(axis=1) >= lb
        bits, masks = bits[keep], masks[keep]
        if req.required_rate > 0:
            ok = ~late_windows(masks, theta).any(axis=(1, 2))
            bits = bits[ok]
        out.extend(bits.tolist())
    out.sort(key=lambda b: (b.bit_count(), b))
    return out


def brute_force_optimum(
    instance: ProblemInstance, budget: int = 10**8
) -> tuple[Optional[Schedule], Optional[Fraction]]:
    """Exhaustive minimum-allocation search for tiny instances.

    Enumerates per-client feasible masks and searches disjoint
    combinations depth-first, pruning with per-client minimum slot counts.
    """
    f = instance.frame_size
    n = instance.n_clients
    if (n + 1) ** f > budget:
        raise BudgetExceededError(f"(n+1)^f = {(n + 1) ** f} exceeds budget {budget}")
    per_client: list[tuple[ClientRequirement, list[int]]] = []
    for client in instance.clients:
        if client.required_rate == 0:
            per_client.append((client, [0]))
            continue
        masks = _feasible_masks(client, f)
        if not masks:
            return None, None
        per_client.append((client, masks))
    # clients with fewer options first shrinks the tree
    per_client.sort(key=lambda pair: len(pair[1]))
    min_counts = [masks[0].bit_count() for _, masks in per_client]
    suffix_min = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min_counts[i]
    best_total = f + 1
    best_choice: Optional[list[int]] = None
    choice: list[int] = []

    def search(i: int, used: int, total: int) -> None:
        nonlocal best_total, best_choice
        if total + suffix_min[i] >= best_total:
            return
        if i == n:
            best_total = total
            best_choice = list(choice)
            return
        for bits in per_client[i][1]:
            if bits & used:
                continue
            phi = bits.bit_count()
            if total + phi + suffix_min[i + 1] >= best_total:
                break  # masks sorted by popcount: no later mask can help
            choice.append(bits)
            search(i + 1, used | bits, total + phi)
            choice.pop()

    search(0, 0, 0)
    if best_choice is None:
        return None, None
    masks = {
        per_client[i][0].id: [(best_choice[i] >> s) & 1 for s in range(f)]
        for i in range(n)
    }
    schedule = Schedule.from_masks(f, masks)
    return schedule, Fraction(best_total, f)
