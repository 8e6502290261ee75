"""Column generation: restricted master, dual selection and pricing.

The master selects one slot-allocation column per client while penalizing
slot over-allocation; pricing searches, per client, for a column with
negative reduced cost under the master's shadow prices.  Pricing is an
exact oracle: at a fixed slot count t the latency-rate condition becomes
difference constraints on prefix sums (a circular-ones structure, as in
Bartholdi, Orlin and Ratliff 1980), so one LP per t has an integral
optimal vertex.

A column is one client's 0/1 slot mask, slot s at index s - 1.  Slot
prices ``lam`` are indexed like a mask and client prices ``sigma`` by
client position, stored so that the reduced cost of a column is
sum_j mask_j * lambda_j + slot_count / f - sigma directly.

The master's variables are the columns that obey the node's decisions
(client-major, pool order) and then one over-allocation ``y`` per slot;
its rows are one capacity row per slot and then one convexity row per
client.  ``solve_master`` returns them with their optimum as one
``MasterSolution``, which the dual selection, the pricing tie-break and
branching read.  The dual-selection LP has one ``lam`` per slot and then
one ``sig`` per client.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .mip import LinearModel, LpStatus, RowMatrix, solve_lp, stack_rows
from .model import (
    ClientRequirement, ProblemInstance, mask_bounds, slot_bound_sum, slot_lower_bound,
    window_lengths,
)
from .verify import client_feasible

M_PRIME = 10.0
REDUCED_COST_TOL = 1e-6
TIE_BREAK_EPS = 1e-7
MAX_ITERATIONS = 10_000


class NodeInfeasibleError(Exception):
    """The branching decisions admit no column for some client."""

    def __init__(self, client_id: int):
        super().__init__(f"no feasible column for client {client_id}")
        self.client_id = client_id


class LpTimeoutError(Exception):
    """Column generation (a master or pricing LP, or the loop) reached its deadline."""


class ColumnPool:
    """Each client's distinct masks, in the order they were added."""

    def __init__(self):
        self._masks: dict[int, dict[tuple[int, ...], None]] = {}

    def add(self, client_id: int, mask) -> bool:
        """Pool a 0/1 mask of the client; False if it is pooled already."""
        masks = self._masks.setdefault(client_id, {})
        key = tuple(np.asarray(mask, dtype=int).tolist())
        if key in masks:
            return False
        masks[key] = None
        return True

    def admissible(self, client_id: int, decisions: Sequence[tuple]) -> np.ndarray:
        """The client's masks that obey the decisions, as rows in pool order."""
        masks = np.array(list(self._masks.get(client_id, ())), dtype=float)
        if not len(masks):
            return masks
        lower, upper = mask_bounds(client_id, masks.shape[1], decisions)
        return masks[((lower <= masks) & (masks <= upper)).all(axis=1)]


@dataclass
class MasterSolution:
    """A node's restricted master at its optimum.

    Column k has mask ``masks[k]``, weight ``weights[k]`` and client
    ``instance.clients[owner[k]]``; the columns obey the node's decisions
    and run client-major in pool order.  ``overalloc`` holds the
    over-allocation of each slot, and ``lam`` and ``sigma`` the simplex
    duals of the capacity and convexity rows.
    """

    masks: np.ndarray
    owner: np.ndarray
    weights: np.ndarray
    overalloc: np.ndarray
    objective: float
    lam: np.ndarray
    sigma: np.ndarray

    def is_integral(self, tol: float = 1e-6) -> bool:
        return bool(((self.weights <= tol) | (self.weights >= 1 - tol)).all())

    def conflict_free(self, tol: float = 1e-6) -> bool:
        return bool((self.overalloc <= tol).all())

    def chosen(self, tol: float = 1e-6) -> dict[int, np.ndarray]:
        """Each client's first column at weight 1, by client position."""
        chosen: dict[int, np.ndarray] = {}
        for k in np.flatnonzero(self.weights >= 1 - tol).tolist():
            chosen.setdefault(int(self.owner[k]), self.masks[k])
        return chosen


def build_master(masks: np.ndarray, owner: np.ndarray, instance: ProblemInstance) -> LinearModel:
    """Restricted master LP over the given columns, in variable order:
    ``masks`` holds one mask per column, ``owner`` its client's position."""
    f = instance.frame_size
    n = instance.n_clients
    m = len(owner)
    cap = np.hstack([masks.T, -np.eye(f)])
    cvx = np.hstack([-np.equal.outer(np.arange(n), owner).astype(float), np.zeros((n, f))])
    return LinearModel(
        np.concatenate([masks.sum(axis=1) / f, np.full(f, M_PRIME)]),
        np.zeros(m + f),
        np.concatenate([np.full(m, math.inf), np.full(f, float(n))]),
        np.zeros(m + f, dtype=bool),
        *stack_rows([(0, cap, np.ones(f)), (0, cvx, -np.ones(n))], m + f),
    )


def solve_master(
    pool: ColumnPool, decisions: Sequence[tuple], instance: ProblemInstance,
    deadline: float = math.inf,
) -> MasterSolution:
    """Restricted master over the columns that obey a node's decisions.

    Raises NodeInfeasibleError when some client has none, and
    LpTimeoutError when the LP reaches ``deadline``.
    """
    f = instance.frame_size
    masks, owner = [], []
    for p, client in enumerate(instance.clients):
        admissible = pool.admissible(client.id, decisions)
        if not len(admissible):
            raise NodeInfeasibleError(client.id)
        masks.append(admissible)
        owner += [p] * len(admissible)
    masks = np.vstack(masks)
    owner = np.array(owner)
    lp = solve_lp(build_master(masks, owner, instance), deadline=deadline)
    if lp.status == LpStatus.TIMED_OUT:
        raise LpTimeoutError("master LP")
    if lp.status != LpStatus.OPTIMAL:
        raise RuntimeError(f"master LP not optimal: {lp.status}")
    m = len(owner)
    # clip numerical noise below zero
    lam = np.maximum(0.0, -lp.duals[:f])
    return MasterSolution(
        masks, owner, lp.x[:m], lp.x[m:], lp.objective, lam, -lp.duals[f:]
    )


def canonical_duals(
    master: MasterSolution, instance: ProblemInstance, deadline: float = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-price dual solution on the master's optimal dual face.

    The master LP is dual-degenerate whenever a slot is covered exactly
    once, so the duals returned by the simplex depend on an arbitrary
    basis choice.  Among all optimal duals we pick the one minimizing
    sum_j lambda_j: dual feasibility of every admissible column plus
    strong duality pin down the face, and the minimal prices make pricing
    deterministic and well-scaled.  Returns ``(lam, sigma)``; when this LP
    fails or reaches ``deadline``, the master's simplex duals instead.
    """
    f = instance.frame_size
    n = instance.n_clients
    masks, owner = master.masks, master.owner
    # reduced cost of every admissible column >= 0, then strong duality
    rc = np.hstack([-masks, np.equal.outer(owner, np.arange(n)).astype(float)])
    duality = np.concatenate([-np.ones(f), np.ones(n)])[None, :]
    A, row_lower, row_upper = stack_rows(
        [(0, rc, masks.sum(axis=1) / f), (0, duality, [master.objective])], f + n
    )
    row_lower[-1] = master.objective  # the one equality row
    model = LinearModel(
        np.concatenate([np.ones(f), np.zeros(n)]),
        np.zeros(f + n),
        np.concatenate([np.full(f, M_PRIME), np.full(n, math.inf)]),
        np.zeros(f + n, dtype=bool),
        A, row_lower, row_upper,
    )
    lp = solve_lp(model, deadline=deadline)
    if lp.status != LpStatus.OPTIMAL:
        return master.lam, master.sigma
    return np.maximum(0.0, lp.x[:f]), lp.x[f:]


def _prefix_costs(cost: np.ndarray) -> np.ndarray:
    """sum_s cost_s * (S_s - S_{s-1}) as costs of S_0..S_f."""
    return np.concatenate([[-cost[0]], cost[:-1] - cost[1:], [cost[-1]]])


def build_sub_model(client: ClientRequirement, frame_size: int, t: int) -> LinearModel:
    """Pricing LP of one client at a fixed slot count t, over prefix sums.

    Variable s is S_s, the slots held among slots 1..s, for s = 0..f, with
    S_0 = 0 and S_f = t fixed by their bounds.  Every row is
    S_a - S_b <= w.  The first 2f rows are the slot box, S_s - S_{s-1} <=
    upper_s and then S_{s-1} - S_s <= -lower_s, built for undecided slots
    (upper 1, lower 0).  After them, for each window start k and need r,
    comes the shortest window that needs r slots (a window that wraps past
    slot f holds t - S_k + S_{k+j-f} of them).  Difference rows make the
    matrix totally unimodular, so every vertex is an integral mask.  The
    matrix does not depend on the node's decisions or the slot costs:
    ``price_client`` sets the box's right-hand sides and the objective.
    """
    f = frame_size
    s = np.arange(1, f + 1)
    a, b, w = [s, s - 1], [s - 1, s], [np.ones(f), np.zeros(f)]
    if client.required_rate > 0:
        j = np.array(window_lengths(client.effective_latency(f), f, t), dtype=int)
        need = np.arange(1, len(j) + 1)[:, None]
        k = np.arange(f)
        end = k + j[:, None]  # [need, start]
        wraps = end > f
        a.append(np.broadcast_to(k, end.shape).ravel())
        b.append(np.where(wraps, end - f, end).ravel())
        w.append(np.where(wraps, t - need, -need).ravel())
    a, b, w = np.concatenate(a), np.concatenate(b), np.concatenate(w)
    m = len(w)
    # row i holds +1 at column a[i] and -1 at column b[i]
    A = RowMatrix(
        np.arange(0, 2 * m + 1, 2, dtype=np.int32),
        np.column_stack([a, b]).ravel().astype(np.int32),
        np.tile([1.0, -1.0], m), (m, f + 1),
    )
    lo, hi = np.zeros(f + 1), np.full(f + 1, float(t))
    lo[f], hi[0] = t, 0.0
    return LinearModel(
        np.zeros(f + 1), lo, hi, np.zeros(f + 1, dtype=bool),
        A, np.full(m, -np.inf), w,
    )


@dataclass
class _PricingMemo:
    """What pricing keeps of one client at one frame size: its slot lower
    bound and its sub-model of each slot count t built so far."""

    lower_bound: int
    models: dict[int, LinearModel] = field(default_factory=dict)


# pricing memos by client, then by frame size.  A memo depends on nothing
# else, so every solve may share it; an entry lives as long as its client,
# so no memo may refer back to the client
_PRICING_MEMO = weakref.WeakKeyDictionary()


def _pricing_memo(client: ClientRequirement, frame_size: int) -> _PricingMemo:
    by_frame = _PRICING_MEMO.setdefault(client, {})
    if frame_size not in by_frame:
        by_frame[frame_size] = _PricingMemo(slot_lower_bound(client, frame_size))
    return by_frame[frame_size]


def price_client(
    client: ClientRequirement,
    lam: np.ndarray,
    frame_size: int,
    decisions: Sequence[tuple] = (),
    deadline: float = math.inf,
    tie_break: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float]:
    """The cheapest feasible mask for one client at slot prices ``lam``, exactly.

    For each slot count t from the client's lower bound up, the cheapest
    feasible mask of t slots is the forced slots plus the t - forced
    cheapest free ones when that mask meets the latency condition, and
    otherwise the optimal vertex of one LP (``build_sub_model``).  Slot
    costs are positive, so that cheapest mask bounds every mask of t slots
    from below, and the bound grows with t: the search stops once it
    reaches the best mask found.  ``tie_break`` (slot s at index s - 1)
    adds TIE_BREAK_EPS times its value to each slot's cost.  The greedy
    mask minimises that perturbed cost among the masks of its slot count
    exactly; an LP vertex minimises it only to HiGHS's dual feasibility
    tolerance (1e-7, the scale of the perturbation), so among equally priced
    masks the tie-break steers the LPs without deciding them.  The client's
    slot lower bound and each LP are kept in one memo entry per (client,
    f), found once per call and kept while the client lives; each LP is
    built once per (client, f, t), and each solve sets its objective and
    the right-hand sides of its slot box from the decisions.  Returns the
    mask (an integer 0/1 array) and its cost,
    the prices of its slots plus slots / f, recomputed from the mask free
    of any tie-break perturbation.  Raises
    NodeInfeasibleError when no mask meets the client's requirements under
    the branching decisions, and LpTimeoutError when an LP reaches
    ``deadline``.  Each candidate mask, greedy or an LP vertex, passes
    ``client_feasible`` once, where it is made; an LP vertex that fails
    raises RuntimeError.
    """
    f = frame_size
    lower, upper = mask_bounds(client.id, f, decisions)
    if (lower > upper).any():
        raise NodeInfeasibleError(client.id)
    cost = lam + 1.0 / f
    if tie_break is not None:
        cost += TIE_BREAK_EPS * tie_break
    forced = int(lower.sum())
    free = np.flatnonzero(upper > lower)
    free = free[np.argsort(cost[free], kind="stable")]
    # floor[i]: cost of the forced slots and the i cheapest free ones
    floor = cost[lower == 1].sum() + np.concatenate([[0.0], np.cumsum(cost[free])])
    memo = _pricing_memo(client, f)
    best, best_cost = None, math.inf
    for t in range(max(memo.lower_bound, forced), forced + len(free) + 1):
        if floor[t - forced] >= best_cost - 1e-12:
            break
        mask = lower.copy()
        mask[free[:t - forced]] = 1.0
        if not client_feasible(mask, client, f).feasible:
            model = memo.models.get(t)
            if model is None:
                model = memo.models[t] = build_sub_model(client, f, t)
            # the costs as the objective, the decisions as the slot box
            lp = solve_lp(
                LinearModel(
                    _prefix_costs(cost), model.lower, model.upper, model.integer, model.A,
                    model.row_lower, np.concatenate([upper, -lower, model.row_upper[2 * f:]]),
                ),
                deadline=deadline,
            )
            if lp.status == LpStatus.TIMED_OUT:
                raise LpTimeoutError(f"pricing LP of client {client.id}")
            if lp.status != LpStatus.OPTIMAL:
                continue
            mask = np.round(np.diff(lp.x))
            if not client_feasible(mask, client, f).feasible:
                raise RuntimeError(f"pricing LP gave client {client.id} an infeasible mask")
        mask_cost = cost @ mask
        if mask_cost < best_cost:
            best, best_cost = mask, mask_cost
    if best is None:
        raise NodeInfeasibleError(client.id)
    mask = best.astype(int)
    return mask, sum(lam[best == 1].tolist()) + int(mask.sum()) / f


def fewest_slot_masks(
    instance: ProblemInstance, deadline: float = math.inf
) -> list[np.ndarray]:
    """Each client's feasible mask with the fewest slots, by client position.

    Pricing at zero slot prices with no decisions is exact, so the mask of
    client c holds t_c slots (``slot_lower_bound``).  Branch and price
    seeds its root with these masks and their rotations, which are
    feasible too, because latency windows are cyclic.  Raises
    NodeInfeasibleError when some client has no feasible mask, and
    LpTimeoutError when ``deadline`` passes first.
    """
    f = instance.frame_size
    masks = []
    for client in instance.clients:
        if time.monotonic() >= deadline:
            raise LpTimeoutError("between pricing calls")
        masks.append(price_client(client, np.zeros(f), f, deadline=deadline)[0])
    return masks


def ensure_seed_columns(
    pool: ColumnPool, decisions: Sequence[tuple], instance: ProblemInstance,
    deadline: float = math.inf,
) -> None:
    """Guarantee every client a column that obeys the decisions.

    Raises NodeInfeasibleError when some client cannot have one at all,
    and LpTimeoutError when ``deadline`` passes first.
    """
    f = instance.frame_size
    for client in instance.clients:
        if not len(pool.admissible(client.id, decisions)):
            mask, _ = price_client(client, np.zeros(f), f, decisions, deadline)
            pool.add(client.id, mask)


@dataclass
class ColGenResult:
    master: Optional[MasterSolution]  # None when no master LP finished in time
    lower_bound: float
    status: str  # "optimal" | "lagrangian_stop" | "stalled" | "timed_out"
    iterations: int
    columns_added: int
    lagrangian_estimates: list = field(default_factory=list)


def slots_of(value: float, frame_size: int) -> int:
    """The fewest whole slots that a lower bound on Phi allows."""
    return math.ceil(value * frame_size - 1e-6)


def column_generation(
    pool: ColumnPool,
    decisions: Sequence[tuple],
    instance: ProblemInstance,
    trace: Optional[list] = None,
    *,
    incumbent_slots: Optional[int] = None,
    deadline: float = math.inf,
) -> ColGenResult:
    """Iterate master solves and pricing until no client prices negatively.

    Pricing is exact, so every iteration's Lagrangian value (master value
    plus the sum of all negative reduced costs) bounds the node from
    below.  Every ``n`` iterations the best of them may end the loop
    early, where it settles the node in whole slots (``slots_of``): when
    it rounds up to ``incumbent_slots`` or more, so that the node is
    pruned, or to the same slot count as the current master value, which
    bounds the node's LP optimum from above.  A bound that rounds up to
    fewer slots than the incumbent prunes nothing and does not end it.  Past
    ``deadline`` the loop returns "timed_out" with the best bound it has:
    the best Lagrangian value, or ``slot_bound_sum`` over f if higher.
    ``trace`` receives one (iteration, master objective,
    {client id: reduced cost}) per iteration.
    """
    f = instance.frame_size
    n = instance.n_clients
    master: Optional[MasterSolution] = None
    added_total = 0
    iteration = 0
    best = -math.inf  # best Lagrangian value so far
    lagrangians: list = []

    def stop(status: str, bound: float) -> ColGenResult:
        return ColGenResult(master, bound, status, iteration, added_total, lagrangians)

    try:
        ensure_seed_columns(pool, decisions, instance, deadline)
        while True:
            master = solve_master(pool, decisions, instance, deadline)
            iteration += 1
            lam, sigma = canonical_duals(master, instance, deadline)
            sigma = sigma.tolist()
            masks, owner = master.masks, master.owner
            total_use = masks.sum(axis=0)
            priced: list[tuple[ClientRequirement, np.ndarray, float]] = []
            for p in sorted(range(n), key=lambda p: instance.clients[p].id):
                if time.monotonic() >= deadline:
                    raise LpTimeoutError("between pricing calls")
                client = instance.clients[p]
                # the tie-break: how many other admissible columns hold each slot
                mask, cost = price_client(
                    client, lam, f, decisions, deadline=deadline,
                    tie_break=total_use - masks[owner == p].sum(axis=0),
                )
                priced.append((client, mask, cost - sigma[p]))
            if trace is not None:
                trace.append(
                    (iteration, master.objective, {c.id: xi for c, _, xi in priced})
                )
            negative = [(c, mask) for c, mask, xi in priced if xi < -REDUCED_COST_TOL]
            if not negative:
                return stop("optimal", master.objective)
            lagrangian = master.objective + sum(min(0.0, xi) for _, _, xi in priced)
            best = max(best, lagrangian)
            if iteration % n == 0:
                lagrangians.append(lagrangian)
                slots = slots_of(best, f)
                prunes = incumbent_slots is not None and slots >= incumbent_slots
                if prunes or slots == slots_of(master.objective, f):
                    return stop("lagrangian_stop", best)
            if iteration >= MAX_ITERATIONS:
                lagrangians.append(lagrangian)
                return stop("lagrangian_stop", best)
            added_now = sum(pool.add(c.id, mask) for c, mask in negative)
            added_total += added_now
            if added_now == 0:
                # duplicate columns priced negative: numerical stall, bail out
                return stop("stalled", best)
    except LpTimeoutError:
        return stop("timed_out", max(best, slot_bound_sum(instance) / f))
