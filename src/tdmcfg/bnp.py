"""Branch-and-price driver: node tree, branching strategies, ILP completion.

Depth-first search over (client, slot) Allocate/Forbid decisions; every
node runs column generation for its lower bound, prunes against the
incumbent with the 1/f discretization step, and may hand a sufficiently
decided node to the monolithic ILP for completion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .colgen import (
    ColumnPool, LpTimeoutError, MasterSolution, NodeInfeasibleError, column_generation,
    fewest_slot_masks, slots_of,
)
from .heuristics import allocated_slots, best_of_runs
from .ilp import solve_direct
from .mip import MipStatus
from .model import (
    DominanceClass,
    ProblemInstance,
    Schedule,
    dominance_class,
    mask_bounds,
    slot_bound_sum,
    slot_lower_bound,
)
from .verify import schedule_feasible

SEQUENTIAL = "sequential"
MAX_PROBABILITY = "max_probability"

# §-style completion thresholds by client count: fraction of f in Allocate
# decisions, and in Forbid decisions (the latter may exceed 1: a slot can
# be forbidden to many clients)
_COMPLETION_POSITIVE = {8: 0.10, 16: 0.30, 32: 0.60, 64: 0.80, 128: 0.95}
_COMPLETION_NEGATIVE = {8: 0.40, 16: 1.00, 32: 1.20, 64: 2.60, 128: 3.00}


class NoBranchError(Exception):
    """All (client, slot) pairs are already decided."""


@dataclass(frozen=True)
class BnpNode:
    decisions: tuple[tuple[int, int, bool], ...]  # (client, slot, allocate)
    local_bound: float = -math.inf

    def child(self, client_id: int, slot: int, allocate: bool) -> "BnpNode":
        decisions = self.decisions + ((client_id, slot, allocate),)
        return BnpNode(decisions, self.local_bound)


@dataclass
class BnpConfig:
    branching: str = "auto"  # "auto" | "sequential" | "max_probability"
    time_limit: Optional[float] = None  # seconds for the whole call
    heuristic_runs: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.heuristic_runs is not None and self.heuristic_runs < 0:
            raise ValueError(f"heuristic_runs must be at least 0, not {self.heuristic_runs}")
        if self.time_limit is not None and not self.time_limit >= 0:  # NaN fails too
            raise ValueError(f"time_limit must be at least 0 seconds, not {self.time_limit}")


@dataclass
class BnpStats:
    nodes_opened: int = 0
    nodes_pruned: int = 0
    nodes_infeasible: int = 0
    columns_generated: int = 0
    completions: int = 0
    incumbent_updates: int = 0
    heuristic_feasible: bool = False
    pruned_bounds: list = field(default_factory=list)
    node_log: list = field(default_factory=list)  # (lower_bound, estimates)

    def as_dict(self) -> dict:
        return {
            "nodes_opened": self.nodes_opened,
            "nodes_pruned": self.nodes_pruned,
            "nodes_infeasible": self.nodes_infeasible,
            "columns_generated": self.columns_generated,
            "completions": self.completions,
            "incumbent_updates": self.incumbent_updates,
            "heuristic_feasible": self.heuristic_feasible,
        }


def default_completion_thresholds(n_clients: int) -> tuple[float, float]:
    return tuple(
        float(np.interp(n_clients, list(table), list(table.values())))
        for table in (_COMPLETION_POSITIVE, _COMPLETION_NEGATIVE)
    )


def _theta_order(instance: ProblemInstance):
    f = instance.frame_size
    return sorted(instance.clients, key=lambda c: (c.effective_latency(f), c.id))


def _free_slots(node: BnpNode, client_id: int, frame_size: int) -> list[int]:
    """1-based slots still undecided for the client at the node."""
    lower, upper = mask_bounds(client_id, frame_size, node.decisions)
    return (np.flatnonzero(lower < upper) + 1).tolist()


def branch_sequential(
    node: BnpNode, instance: ProblemInstance
) -> tuple[BnpNode, BnpNode]:
    """Next undecided pair in client-major (theta-ascending), slot-minor order.

    Returns (forbid_child, allocate_child); the Forbid child is meant to
    be explored first.
    """
    for client in _theta_order(instance):
        free = _free_slots(node, client.id, instance.frame_size)
        if free:
            return (
                node.child(client.id, free[0], False),
                node.child(client.id, free[0], True),
            )
    raise NoBranchError


def branch_max_probability(
    node: BnpNode, master: MasterSolution, instance: ProblemInstance
) -> tuple[BnpNode, BnpNode]:
    """Branch on the current client's highest-probability undecided slot.

    Probability of a slot is the total master weight of the client's
    columns covering it.  Returns (allocate_child, forbid_child); the
    Allocate child is meant to be explored first.
    """
    weights = np.maximum(master.weights, 0.0)
    for client in _theta_order(instance):
        mine = master.owner == instance.clients.index(client)
        totals = weights[mine] @ master.masks[mine]
        best_slot, best_p = None, 0.0
        for slot in _free_slots(node, client.id, instance.frame_size):
            if totals[slot - 1] > best_p + 1e-12:  # strictly greater keeps the leftmost tie
                best_slot, best_p = slot, totals[slot - 1]
        if best_slot is not None:
            return (
                node.child(client.id, best_slot, True),
                node.child(client.id, best_slot, False),
            )
    # no client has positive undecided probability mass left
    return branch_sequential(node, instance)[::-1]


def complete_with_ilp(
    node: BnpNode, instance: ProblemInstance, deadline: float = math.inf
) -> tuple[Optional[Schedule], MipStatus]:
    """Close a node by solving the monolithic ILP under its decisions."""
    schedule, status, _, _ = solve_direct(instance, node.decisions, deadline)
    return schedule, status


def _heuristic_runs(instance: ProblemInstance, config: BnpConfig) -> int:
    """Generative runs in the warm start: one when every client is
    bandwidth-dominated, eight otherwise, unless the config says."""
    if config.heuristic_runs is not None:
        return config.heuristic_runs
    f = instance.frame_size
    all_bd = all(
        dominance_class(c, f) == DominanceClass.BANDWIDTH_DOMINATED
        for c in instance.clients
    )
    return 1 if all_bd else 8


def solve_bnp(
    instance: ProblemInstance, config: Optional[BnpConfig] = None
) -> tuple[Optional[Schedule], MipStatus, Optional[Fraction], float, BnpStats]:
    """Branch-and-price search for the minimal-allocation schedule.

    In order: the formula check (a slot-bound sum above f is infeasible);
    the first run of the generative heuristic, which ends the solve if it
    meets the slot-bound sum; the exact floor, the sum of each client's
    fewest slots (``fewest_slot_masks``; the slot-bound sum if the deadline
    passes first), which ends the solve if it exceeds f or the run meets
    it; and the root, seeded with every rotation of each client's
    fewest-slot mask, so that its master starts at the floor.  The warm
    start's runs share one budget, a third of the time limit.  A warm start
    of at most one run (the default when every client is
    bandwidth-dominated) that found nothing is followed, before the root,
    by the monolithic ILP for a third of the time left.  In a longer one
    (eight runs by default) the other runs follow the root only if it
    branches, stopped at its bound.  Depth-first search follows.
    """
    config = config or BnpConfig()
    stats = BnpStats()
    limit = math.inf if config.time_limit is None else config.time_limit
    start = time.monotonic()
    deadline, warm_deadline = start + limit, start + limit / 3
    f = instance.frame_size
    n = instance.n_clients
    # the incumbent and its slot count; f + 1 slots stands for none
    incumbent: Optional[Schedule] = None
    best_slots = f + 1

    def improve(schedule: Optional[Schedule]) -> None:
        nonlocal incumbent, best_slots
        if schedule is not None and allocated_slots(schedule) < best_slots:
            incumbent, best_slots = schedule, allocated_slots(schedule)
            stats.incumbent_updates += 1

    def result(open_bound: float = math.inf):
        """The answer, given the least bound among the open nodes."""
        phi = None if incumbent is None else Fraction(best_slots, f)
        # an open node counts only if its bound leaves room below best_slots;
        # otherwise the search is complete
        if open_bound * f - 1e-6 <= best_slots - 1:
            status = MipStatus.TIMED_OUT if incumbent is None else MipStatus.FEASIBLE
            # phi is a whole number of slots over f, and never exceeds 1
            bound = min(slots_of(open_bound, f) / f, 1.0)
            return incumbent, status, phi, bound, stats
        if incumbent is None:
            return None, MipStatus.INFEASIBLE, None, math.inf, stats
        return incumbent, MipStatus.OPTIMAL, phi, float(phi), stats

    total_lb = slot_bound_sum(instance)
    if total_lb > f:
        return result()

    branching = config.branching
    if branching == "auto":
        branching = SEQUENTIAL if n <= 16 else MAX_PROBABILITY
    pos_pct, neg_pct = default_completion_thresholds(n)

    pool = ColumnPool()

    def add_columns(schedule: Schedule) -> None:
        for client in instance.clients:
            pool.add(client.id, schedule.mask(client.id))

    def warm_start(runs: int, seed: int, floor: int) -> None:
        """Generative runs: every schedule found seeds columns, the best one
        becomes the incumbent if it beats it."""
        best, found = best_of_runs(
            instance, runs, seed, warm_deadline - time.monotonic(), floor=floor
        )
        for schedule in found:
            add_columns(schedule)
        if best is not None:
            stats.heuristic_feasible = True
        improve(best)

    runs = _heuristic_runs(instance, config)
    warm_start(min(runs, 1), config.seed, total_lb)
    if best_slots <= total_lb:
        # the incumbent meets the sum of per-client slot lower bounds
        return result()
    # the exact floor, each client's fewest slots; the formula sum stands in
    # when the deadline passes first
    try:
        masks = fewest_slot_masks(instance, deadline)
    except LpTimeoutError:
        masks = []
    floor = sum(int(mask.sum()) for mask in masks) if masks else total_lb
    if floor > f or best_slots <= floor:
        # no schedule fits in the frame, or the incumbent meets the floor
        return result()
    # every rotation of each fewest-slot mask: the root master starts with a
    # mix that loads every slot by floor / f, its bound with nothing decided
    for client, mask in zip(instance.clients, masks):
        for k in range(f):
            pool.add(client.id, np.roll(mask, k))
    if incumbent is None and runs <= 1:
        # a third of the time left for the monolithic ILP at the root, so the
        # search has an incumbent to prune against
        now = time.monotonic()
        schedule, status = complete_with_ilp(BnpNode(()), instance, now + (deadline - now) / 3)
        stats.completions += 1
        improve(schedule)
        if status in (MipStatus.OPTIMAL, MipStatus.INFEASIBLE):
            return result()
        if schedule is not None:
            add_columns(schedule)

    # root: slot 1 goes to the client with the tightest latency requirement
    root_decisions: tuple = ()
    tight = _theta_order(instance)[0]
    if slot_lower_bound(tight, f) >= 1:
        root_decisions = ((tight.id, 1, True),)

    # a node whose column generation or completion runs out of time goes
    # back on the stack with its bound, so open work is exactly the stack;
    # the root starts at the floor, which holds before it is opened
    stack: list[BnpNode] = [BnpNode(root_decisions, floor / f)]
    while stack and time.monotonic() <= deadline:
        if stats.nodes_opened == 1 and runs > 1:
            # the root branched, so its bound, which its children carry,
            # leaves a gap: the warm start's other runs may close it
            floor = slots_of(stack[-1].local_bound, f)
            warm_start(runs - 1, config.seed + 1, floor)
            if best_slots <= floor:
                return result()
        node = stack.pop()
        stats.nodes_opened += 1
        try:
            res = column_generation(
                pool, node.decisions, instance,
                incumbent_slots=best_slots, deadline=deadline,
            )
        except NodeInfeasibleError:
            stats.nodes_infeasible += 1
            continue
        stats.columns_generated += res.columns_added
        stats.node_log.append((res.lower_bound, list(res.lagrangian_estimates)))
        # with no incumbent best_slots is f + 1: a bound above f slots needs
        # over-allocation, so the node holds no feasible schedule
        if slots_of(res.lower_bound, f) >= best_slots:
            stats.nodes_pruned += 1
            stats.pruned_bounds.append(res.lower_bound)
            continue
        # a node that goes back on the stack keeps the bound its parent
        # proved if its own run proves less
        reopened = BnpNode(node.decisions, max(node.local_bound, res.lower_bound))
        node = BnpNode(node.decisions, res.lower_bound)
        if res.status == "timed_out":
            stack.append(reopened)
            break
        master = res.master
        if (
            res.status == "optimal"
            and master.is_integral()
            and master.conflict_free()
        ):
            chosen = master.chosen()
            if len(chosen) == n:
                schedule = Schedule.from_masks(
                    f, {instance.clients[p].id: mask for p, mask in chosen.items()}
                )
                if not schedule_feasible(schedule, instance).feasible:
                    # each pooled column meets its client's requirements, so a
                    # conflict-free choice of them must verify
                    raise RuntimeError(
                        f"integral master at node {node.decisions} "
                        "gives an infeasible schedule"
                    )
                improve(schedule)
                continue  # LP optimum of the node achieved integrally
        positives = sum(1 for _, _, a in node.decisions if a)
        negatives = len(node.decisions) - positives
        if node.decisions and (
            positives >= pos_pct * f or negatives >= neg_pct * f
        ):
            stats.completions += 1
            schedule, status = complete_with_ilp(node, instance, deadline)
            improve(schedule)
            if status not in (MipStatus.OPTIMAL, MipStatus.INFEASIBLE):
                # out of time, maybe with a schedule: the subtree is not done
                stack.append(reopened)
                break
            continue
        try:
            if branching == SEQUENTIAL:
                first, second = branch_sequential(node, instance)
            else:
                first, second = branch_max_probability(node, master, instance)
        except NoBranchError:
            continue  # fully decided and not integral: nothing better here
        stack.append(second)
        stack.append(first)

    return result(min((node.local_bound for node in stack), default=math.inf))
