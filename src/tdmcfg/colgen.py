"""Column generation: restricted master, dual extraction and pricing.

The master selects one slot-allocation column per client while penalizing
slot over-allocation; the pricing sub-model searches, per client, for a
column with negative reduced cost under the master's shadow prices.

Sign convention: sigma values are stored so the reduced cost of a column
is sum_j mask_j * lambda_j + slot_count / f - sigma directly.

The master's variables are its columns (client-major, pool order) and
then one over-allocation ``y`` per slot; its rows are one capacity row
per slot and then one convexity row per client.  The dual-selection LP
has one ``lam`` per slot and then one ``sig`` per client.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ilp import find_latency_violation, service_row, service_rows, strengthened_rows
from .mip import (
    LinearModel,
    LpSolution,
    LpStatus,
    MipStatus,
    solve_lp,
    solve_mip,
    stack_rows,
)
from .model import (
    ClientRequirement,
    Column,
    ProblemInstance,
    Schedule,
    slot_lower_bound,
)

M_PRIME = 10.0
REDUCED_COST_TOL = 1e-6
TIE_BREAK_EPS = 1e-7


class NodeInfeasibleError(Exception):
    """The branching decisions admit no column for some client."""

    def __init__(self, client_id: int):
        super().__init__(f"no feasible column for client {client_id}")
        self.client_id = client_id


class PricingTimeoutError(Exception):
    """A pricing sub-model ran out of time before proving optimality."""

    def __init__(self, client_id: int):
        super().__init__(f"pricing timed out for client {client_id}")
        self.client_id = client_id


class ClientInfeasibleError(Exception):
    """A single client's sub-model is infeasible under the node fixings."""

    def __init__(self, client_id: int):
        super().__init__(f"sub-model infeasible for client {client_id}")
        self.client_id = client_id


def node_decisions(node) -> tuple:
    """Decisions of a branch-and-bound node; None means the root relaxation."""
    if node is None:
        return ()
    return tuple(node.decisions)


def column_admissible(column: Column, decisions: Sequence[tuple]) -> bool:
    """Whether a column is consistent with forced/forbidden slot decisions."""
    for client_id, slot, allocate in decisions:
        covered = column.mask[slot - 1] == 1
        if client_id == column.client:
            if covered != allocate:
                return False
        elif allocate and covered:
            return False
    return True


class ColumnPool:
    """Per-client column lists with global (client, mask) deduplication."""

    def __init__(self):
        self._columns: dict[int, list[Column]] = {}
        self._seen: set[tuple[int, tuple[int, ...]]] = set()

    def add(self, column: Column) -> bool:
        key = (column.client, column.mask)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._columns.setdefault(column.client, []).append(column)
        return True

    def columns(self, client_id: int) -> list[Column]:
        return list(self._columns.get(client_id, []))

    def clients(self) -> list[int]:
        return sorted(self._columns)

    def __len__(self) -> int:
        return len(self._seen)

    def admissible(self, client_id: int, decisions: Sequence[tuple]) -> list[tuple[int, Column]]:
        return [
            (k, col)
            for k, col in enumerate(self._columns.get(client_id, []))
            if column_admissible(col, decisions)
        ]


@dataclass
class DualPrices:
    lam: dict[int, float]
    sigma: dict[int, float]


@dataclass
class MasterSolution:
    weights: dict[tuple[int, int], float]  # (client id, pool index) -> weight
    overalloc: dict[int, float]
    objective: float

    def is_integral(self, tol: float = 1e-6) -> bool:
        return all(w <= tol or w >= 1 - tol for w in self.weights.values())

    def conflict_free(self, tol: float = 1e-6) -> bool:
        return all(y <= tol for y in self.overalloc.values())

    def chosen_columns(self, pool: ColumnPool, tol: float = 1e-6) -> dict[int, Column]:
        chosen: dict[int, Column] = {}
        for (client_id, k), w in self.weights.items():
            if w >= 1 - tol and client_id not in chosen:
                chosen[client_id] = pool.columns(client_id)[k]
        return chosen


def _masks(columns: Sequence[Column], frame_size: int) -> np.ndarray:
    return np.array([col.mask for col in columns], dtype=float).reshape(-1, frame_size)


def build_master(
    pool: ColumnPool, node, instance: ProblemInstance
) -> tuple[LinearModel, list[tuple[int, int]]]:
    """Restricted master LP over the admissible columns of a node.

    Returns the model and the (client id, pool index) of each column
    variable, in variable order.
    """
    decisions = node_decisions(node)
    f = instance.frame_size
    n = instance.n_clients
    keys, columns, upper, owner = [], [], [], []
    for p, client in enumerate(instance.clients):
        admissible = {k for k, _ in pool.admissible(client.id, decisions)}
        if not admissible:
            raise NodeInfeasibleError(client.id)
        for k, col in enumerate(pool.columns(client.id)):
            keys.append((client.id, k))
            columns.append(col)
            upper.append(math.inf if k in admissible else 0.0)
            owner.append(p)
    masks = _masks(columns, f)
    m = len(columns)
    cap = np.hstack([masks.T, -np.eye(f)])
    cvx = np.hstack([-np.equal.outer(np.arange(n), owner).astype(float), np.zeros((n, f))])
    A_ub, b_ub = stack_rows([(0, cap, np.ones(f)), (0, cvx, -np.ones(n))], m + f)
    model = LinearModel(
        np.concatenate([masks.sum(axis=1) / f, np.full(f, M_PRIME)]),
        np.zeros(m + f),
        np.concatenate([upper, np.full(f, float(n))]),
        np.zeros(m + f, dtype=bool),
        A_ub,
        b_ub,
    )
    return model, keys


def solve_master(
    pool: ColumnPool, node, instance: ProblemInstance
) -> tuple[MasterSolution, LpSolution]:
    model, keys = build_master(pool, node, instance)
    lp = solve_lp(model)
    if lp.status != LpStatus.OPTIMAL:
        raise RuntimeError(f"master LP not optimal: {lp.status}")
    values = lp.x.tolist()
    weights = dict(zip(keys, values))
    overalloc = dict(enumerate(values[len(keys):], start=1))
    return MasterSolution(weights, overalloc, lp.objective), lp


def extract_duals(lp: LpSolution, instance: ProblemInstance) -> DualPrices:
    """Shadow prices of the capacity and convexity rows."""
    if lp.status != LpStatus.OPTIMAL:
        raise ValueError("duals only available for an optimal LP")
    f = instance.frame_size
    duals = lp.duals.tolist()
    # clip numerical noise below zero
    lam = {j: max(0.0, -d) for j, d in enumerate(duals[:f], start=1)}
    sigma = {c.id: -d for c, d in zip(instance.clients, duals[f:])}
    return DualPrices(lam, sigma)


def canonical_duals(
    pool: ColumnPool,
    node,
    instance: ProblemInstance,
    master_objective: float,
    fallback: Optional[DualPrices] = None,
) -> DualPrices:
    """Minimal-price dual solution on the master's optimal dual face.

    The master LP is dual-degenerate whenever a slot is covered exactly
    once, so the duals returned by the simplex depend on an arbitrary
    basis choice.  Among all optimal duals we pick the one minimizing
    sum_j lambda_j: dual feasibility of every admissible column plus
    strong duality pin down the face, and the minimal prices make pricing
    deterministic and well-scaled.
    """
    decisions = node_decisions(node)
    f = instance.frame_size
    n = instance.n_clients
    columns, owner = [], []
    for p, client in enumerate(instance.clients):
        for _, col in pool.admissible(client.id, decisions):
            columns.append(col)
            owner.append(p)
    masks = _masks(columns, f)
    # reduced cost of every admissible column >= 0
    rc = np.hstack([-masks, np.equal.outer(owner, np.arange(n)).astype(float)])
    A_ub, b_ub = stack_rows([(0, rc, masks.sum(axis=1) / f)], f + n)
    A_eq, b_eq = stack_rows(
        [(0, np.concatenate([-np.ones(f), np.ones(n)])[None, :], [master_objective])],
        f + n,
    )
    model = LinearModel(
        np.concatenate([np.ones(f), np.zeros(n)]),
        np.zeros(f + n),
        np.concatenate([np.full(f, M_PRIME), np.full(n, math.inf)]),
        np.zeros(f + n, dtype=bool),
        A_ub, b_ub, A_eq, b_eq,
    )
    lp = solve_lp(model)
    if lp.status != LpStatus.OPTIMAL:
        if fallback is not None:
            return fallback
        raise RuntimeError("dual-selection LP failed")
    values = lp.x.tolist()
    lam = {j: max(0.0, v) for j, v in enumerate(values[:f], start=1)}
    sigma = {c.id: v for c, v in zip(instance.clients, values[f:])}
    return DualPrices(lam, sigma)


def build_sub_model(
    client: ClientRequirement,
    lam: dict[int, float],
    frame_size: int,
    decisions: Sequence[tuple] = (),
    tie_break: Optional[dict[int, float]] = None,
) -> LinearModel:
    """Single-client pricing model, initially with single-point latency rows.

    Variable ``s - 1`` is the client holding slot s.  ``tie_break`` adds an
    epsilon-scaled per-slot cost that steers the choice among equal-cost
    columns (toward slots other clients use less) without disturbing the
    primary objective.
    """
    f = frame_size
    lower, upper = np.zeros(f), np.ones(f)
    for client_id, slot, allocate in decisions:
        if client_id == client.id and allocate:
            lower[slot - 1] = 1.0
        elif client_id == client.id or allocate:
            upper[slot - 1] = 0.0
    slots = range(1, f + 1)
    cost = np.array([lam.get(j, 0.0) for j in slots]) + 1.0 / f
    if tie_break:
        cost += TIE_BREAK_EPS * np.array([tie_break.get(j, 0.0) for j in slots])
    blocks = []
    lb = slot_lower_bound(client, f)
    if lb > 0:
        blocks.append((0, -np.ones((1, f)), [-float(lb)]))
    if client.required_rate > 0:
        theta = client.effective_latency(f)
        blocks.append((0, *service_rows(client, f, [min(math.floor(theta) + 1, f)])))
        blocks.append((0, *strengthened_rows(client, f)))
    A_ub, b_ub = stack_rows(blocks, f)
    return LinearModel(cost, lower, upper, np.ones(f, dtype=bool), A_ub, b_ub)


def price_client(
    client: ClientRequirement,
    duals: DualPrices,
    frame_size: int,
    node=None,
    gap: float = 0.0,
    time_limit: Optional[float] = None,
    tie_break: Optional[dict[int, float]] = None,
) -> tuple[Column, float, bool]:
    """Minimize the reduced cost of a new column for one client.

    Latency window rows beyond the single-point row are added lazily.
    Returns the best column found, its reduced cost recomputed from the
    mask (free of any tie-break perturbation), and whether the column was
    proven optimal: on a sub-model time-out any incumbent is returned
    with ``proven=False`` so callers can still make progress.
    """
    decisions = node_decisions(node)
    model = build_sub_model(client, duals.lam, frame_size, decisions, tie_break)

    def lazy(x):
        hit = find_latency_violation(x.astype(int).tolist(), client, frame_size)
        return None if hit is None else service_row(client, frame_size, *hit)

    res = solve_mip(model, lazy=lazy, time_limit=time_limit, optimality_gap=gap)
    if res.status == MipStatus.INFEASIBLE:
        raise ClientInfeasibleError(client.id)
    if res.status == MipStatus.TIMED_OUT:
        raise PricingTimeoutError(client.id)
    mask = tuple(res.x.astype(int).tolist())
    column = Column(client.id, mask)
    reduced_cost = (
        sum(duals.lam.get(j, 0.0) for j in column.slots())
        + column.slot_count / frame_size
        - duals.sigma.get(client.id, 0.0)
    )
    return column, reduced_cost, res.status == MipStatus.OPTIMAL


def zero_duals(instance: ProblemInstance) -> DualPrices:
    return DualPrices(
        {j: 0.0 for j in range(1, instance.frame_size + 1)},
        {c.id: 0.0 for c in instance.clients},
    )


def ensure_seed_columns(
    pool: ColumnPool, node, instance: ProblemInstance, time_limit: Optional[float] = None
) -> None:
    """Guarantee every client has an admissible column under the node.

    Raises NodeInfeasibleError when some client cannot have one at all,
    and PricingTimeoutError when ``time_limit`` runs out first.
    """
    decisions = node_decisions(node)
    duals = zero_duals(instance)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    for client in instance.clients:
        if pool.admissible(client.id, decisions):
            continue
        budget = None if deadline is None else deadline - time.monotonic()
        try:
            column, _, _ = price_client(
                client, duals, instance.frame_size, node, time_limit=budget
            )
        except ClientInfeasibleError as exc:
            raise NodeInfeasibleError(client.id) from exc
        pool.add(column)


@dataclass
class ColGenLimits:
    upper_bound: float = math.inf
    time_limit: Optional[float] = None
    max_iterations: int = 10_000
    # cap on a single pricing sub-model solve; a time-out there still
    # yields the incumbent column when its reduced cost is negative
    pricing_effort: Optional[float] = 10.0


@dataclass
class ColGenResult:
    master: Optional[MasterSolution]  # None when seeding columns timed out
    lower_bound: float
    status: str  # "optimal" | "lagrangian_stop" | "stalled" | "timed_out"
    iterations: int
    columns_added: int
    lagrangian_estimates: list = field(default_factory=list)


def _slots_of(value: float, frame_size: int) -> int:
    return math.ceil(value * frame_size - 1e-6)


def _bound_floor(instance: ProblemInstance, lagrangians: list) -> float:
    """Best lower bound that stays valid when pricing is cut short."""
    trivial = float(
        sum(slot_lower_bound(c, instance.frame_size) for c in instance.clients)
    ) / instance.frame_size
    return max([trivial, *lagrangians])


def column_generation(
    pool: ColumnPool,
    node,
    instance: ProblemInstance,
    limits: Optional[ColGenLimits] = None,
    trace: Optional[list] = None,
) -> ColGenResult:
    """Iterate master solves and pricing until no client prices negatively.

    Every ``n`` iterations the Lagrangian bound (master value plus the sum
    of all reduced costs) may close the loop early: when it reaches the
    incumbent, or when it discretizes to the same slot count as the
    current master value.  ``trace`` receives one
    (iteration, master objective, {client id: reduced cost}) per iteration.
    """
    limits = limits or ColGenLimits()
    t0 = time.monotonic()
    f = instance.frame_size
    n = instance.n_clients

    def pricing_budget() -> Optional[float]:
        # each pricing call gets what is left of the node's limit
        budget = limits.pricing_effort
        if limits.time_limit is not None:
            remaining = max(0.1, limits.time_limit - (time.monotonic() - t0))
            budget = remaining if budget is None else min(remaining, budget)
        return budget

    try:
        ensure_seed_columns(pool, node, instance, limits.time_limit)
    except PricingTimeoutError:
        return ColGenResult(None, _bound_floor(instance, []), "timed_out", 0, 0)
    added_total = 0
    iteration = 0
    lagrangians: list = []
    while True:
        iteration += 1
        master, lp = solve_master(pool, node, instance)
        duals = canonical_duals(
            pool, node, instance, master.objective,
            fallback=extract_duals(lp, instance),
        )
        decisions = node_decisions(node)
        slot_use: dict[int, dict[int, float]] = {}  # client -> slot -> count
        for client in instance.clients:
            counts: dict[int, float] = {}
            for _, col in pool.admissible(client.id, decisions):
                for s in col.slots():
                    counts[s] = counts.get(s, 0.0) + 1.0
            slot_use[client.id] = counts
        priced: list[tuple[ClientRequirement, Column, float, bool]] = []
        for client in sorted(instance.clients, key=lambda c: c.id):
            tie_break: dict[int, float] = {}
            for other_id, counts in slot_use.items():
                if other_id == client.id:
                    continue
                for s, cnt in counts.items():
                    tie_break[s] = tie_break.get(s, 0.0) + cnt
            try:
                column, xi, proven = price_client(
                    client, duals, f, node, time_limit=pricing_budget(),
                    tie_break=tie_break,
                )
            except ClientInfeasibleError as exc:
                raise NodeInfeasibleError(client.id) from exc
            except PricingTimeoutError:
                return ColGenResult(
                    master,
                    _bound_floor(instance, lagrangians),
                    "timed_out",
                    iteration,
                    added_total,
                    lagrangians,
                )
            priced.append((client, column, xi, proven))
        if trace is not None:
            trace.append(
                (iteration, master.objective, {c.id: xi for c, _, xi, _ in priced})
            )
        all_proven = all(proven for _, _, _, proven in priced)
        negative = [(c, col, xi) for c, col, xi, _ in priced if xi < -REDUCED_COST_TOL]
        if not negative:
            if all_proven:
                return ColGenResult(
                    master, master.objective, "optimal", iteration, added_total,
                    lagrangians,
                )
            # nothing negative, but some prices were cut short: the master
            # value is not a proven bound here
            return ColGenResult(
                master,
                _bound_floor(instance, lagrangians),
                "timed_out",
                iteration,
                added_total,
                lagrangians,
            )
        lagrangian = master.objective + sum(min(0.0, xi) for _, _, xi, _ in priced)
        # the Lagrangian is a bound only when every price is proven
        bound = lagrangian if all_proven else _bound_floor(instance, lagrangians)
        if all_proven and iteration % n == 0:
            lagrangians.append(lagrangian)
            same_slots = _slots_of(lagrangian, f) == _slots_of(master.objective, f)
            if lagrangian >= limits.upper_bound - 1e-9 or same_slots:
                return ColGenResult(
                    master, lagrangian, "lagrangian_stop", iteration, added_total,
                    lagrangians,
                )
        if iteration >= limits.max_iterations:
            lagrangians.append(bound)
            return ColGenResult(
                master, bound, "lagrangian_stop", iteration, added_total,
                lagrangians,
            )
        added_now = 0
        for _, column, _ in negative:
            if pool.add(column):
                added_now += 1
        added_total += added_now
        if added_now == 0:
            # duplicate columns priced negative: numerical stall, bail out
            return ColGenResult(
                master, bound, "stalled", iteration, added_total, lagrangians
            )
