"""Minimal binary-LP kernel: LP relaxation with duals and branch-and-bound.

A model is plain arrays addressed by position: objective, bounds and
integrality per variable, and sparse rows in ``<=`` form (builders negate
``>=`` rows) plus optional equality rows.  The LP relaxation is delegated
to HiGHS through scipy; the integer search is a hand-rolled depth-first
branch-and-bound with a lazy-row hook, most-fractional branching and
deterministic tie-breaking.

Dual sign convention: ``LpSolution.duals[r]`` belongs to the r-th ``<=``
row, and the reduced cost of variable v in this minimization is
c[v] - sum_r duals[r] * A_ub[r, v].
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

FEASIBILITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6


class ModelError(ValueError):
    """The LP solver failed on a model."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMED_OUT = "timed_out"


class MipStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass
class LinearModel:
    """min c @ x  s.t.  A_ub @ x <= b_ub,  A_eq @ x == b_eq,  lower <= x <= upper.

    Variables and rows are addressed by position only; ``integer`` flags
    the variables the branch-and-bound must make integral.
    """

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray
    A_ub: Optional[sparse.csr_matrix]
    b_ub: np.ndarray
    A_eq: Optional[sparse.csr_matrix] = None
    b_eq: Optional[np.ndarray] = None


# one row in ``<=`` form: (variable indices, coefficients, right-hand side)
Row = tuple[np.ndarray, np.ndarray, float]


def stack_rows(
    blocks: Sequence[tuple[int, np.ndarray, Sequence[float]]], ncols: int
) -> tuple[Optional[sparse.csr_matrix], np.ndarray]:
    """Stack dense row blocks into one sparse matrix and right-hand side.

    Block (col0, coefs, rhs) puts the rows ``coefs`` at columns col0 on;
    explicit zeros are dropped.  No rows at all gives (None, empty).
    """
    rows, cols, vals = [], [], []
    nrows = 0
    for col0, coefs, _ in blocks:
        r, s = np.nonzero(coefs)
        rows.append(r + nrows)
        cols.append(s + col0)
        vals.append(coefs[r, s])
        nrows += coefs.shape[0]
    if nrows == 0:
        return None, np.zeros(0)
    A = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nrows, ncols),
    )
    return A, np.concatenate([np.asarray(rhs, dtype=float) for _, _, rhs in blocks])


@dataclass
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None  # one per A_ub row
    objective: float = math.nan


@dataclass
class MipSolution:
    status: MipStatus
    x: Optional[np.ndarray] = None
    objective: float = math.nan
    best_bound: float = -math.inf
    nodes: int = 0


def solve_lp(model: LinearModel, deadline: float = math.inf) -> LpSolution:
    """Solve the LP relaxation; deterministic for a fixed input.

    HiGHS stops at ``deadline`` (a ``time.monotonic()`` value), which
    gives ``LpStatus.TIMED_OUT``.
    """
    args = dict(
        A_ub=model.A_ub,
        b_ub=model.b_ub if model.A_ub is not None else None,
        A_eq=model.A_eq,
        b_eq=model.b_eq,
        bounds=np.column_stack([model.lower, model.upper]),
    )
    options = {"time_limit": max(0.0, deadline - time.monotonic())}
    res = linprog(model.c, method="highs", options=options, **args)
    if res.status not in (0, 1, 2, 3):
        # HiGHS occasionally reports "Unknown" on numerically awkward
        # models; dual simplex without presolve is a reliable fallback
        options = {"presolve": False, "time_limit": max(0.0, deadline - time.monotonic())}
        res = linprog(model.c, method="highs-ds", options=options, **args)
    if res.status == 1:
        return LpSolution(LpStatus.TIMED_OUT)
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED)
    if res.status != 0:
        raise ModelError(f"LP solver failure: {res.message}")
    duals = res.ineqlin.marginals if model.A_ub is not None else np.zeros(0)
    return LpSolution(LpStatus.OPTIMAL, res.x, duals, float(res.fun))


def _most_fractional(x: np.ndarray, integer: np.ndarray) -> Optional[int]:
    """First integer variable strictly more fractional than all before it."""
    frac = np.minimum(x - np.floor(x), np.ceil(x) - x)
    best, best_frac = None, INTEGRALITY_TOL
    for i in np.flatnonzero(integer & (frac > INTEGRALITY_TOL + 1e-12)):
        if frac[i] > best_frac + 1e-12:
            best, best_frac = int(i), frac[i]
    return best


def _snap_bound(bound: float, grid: Optional[float]) -> float:
    if grid is None:
        return bound
    return math.ceil(bound / grid - 1e-6) * grid


def _add_row(model: LinearModel, row: Row) -> LinearModel:
    """The model with one more ``<=`` row after its own."""
    indices, coefs, rhs = row
    block = sparse.csr_matrix(
        (coefs, (np.zeros(len(indices), dtype=int), indices)), shape=(1, len(model.c))
    )
    block.eliminate_zeros()
    A_ub = block if model.A_ub is None else sparse.vstack([model.A_ub, block], format="csr")
    return replace(model, A_ub=A_ub, b_ub=np.append(model.b_ub, rhs))


def solve_mip(
    model: LinearModel,
    lazy: Optional[Callable[[np.ndarray], Optional[Row]]] = None,
    deadline: float = math.inf,
    bound_grid: Optional[float] = None,
) -> MipSolution:
    """Depth-first branch-and-bound over the integer variables.

    A node is the model under its own variable bounds.  Whenever an
    integral candidate appears, the lazy callback receives its rounded
    ``x`` and may return a violated ``<=`` row; the row joins the model for
    every later node and the node is re-solved.  ``bound_grid`` optionally
    rounds node bounds up to a known objective granularity, which tightens
    pruning without affecting correctness.  Past ``deadline``
    (``time.monotonic()``) the open nodes stay open and the result is
    FEASIBLE or TIMED_OUT.
    """
    best_obj = math.inf
    best_x: Optional[np.ndarray] = None
    nodes = 0
    timed_out = False
    # stack entries: (lower bounds, upper bounds, parent LP bound)
    stack: list[tuple[np.ndarray, np.ndarray, float]] = [
        (model.lower, model.upper, -math.inf)
    ]

    def prune_threshold() -> float:
        return math.inf if best_x is None else best_obj - FEASIBILITY_TOL

    while stack and not timed_out:
        if time.monotonic() > deadline:
            timed_out = True
            break
        lower, upper, parent_bound = stack.pop()
        if parent_bound >= prune_threshold():
            continue
        nodes += 1
        while True:
            lp = solve_lp(replace(model, lower=lower, upper=upper), deadline)
            if lp.status == LpStatus.TIMED_OUT:
                # the node stays open at its parent's bound
                timed_out = True
                stack.append((lower, upper, parent_bound))
                break
            if lp.status != LpStatus.OPTIMAL:
                break  # infeasible node (unbounded cannot occur with finite bounds)
            bound = _snap_bound(lp.objective, bound_grid)
            if bound >= prune_threshold():
                break
            branch_var = _most_fractional(lp.x, model.integer)
            if branch_var is not None:
                x = float(lp.x[branch_var])
                lo, hi = math.floor(x), math.ceil(x)
                down_upper = upper.copy()
                down_upper[branch_var] = min(upper[branch_var], lo)
                up_lower = lower.copy()
                up_lower[branch_var] = max(lower[branch_var], hi)
                down, up = (lower, down_upper, bound), (up_lower, upper, bound)
                # dive toward the nearer integer first (pushed last); a child
                # whose bounds cross holds no point and is not pushed
                for child in ((up, down) if x - lo <= hi - x else (down, up)):
                    if child[0][branch_var] <= child[1][branch_var] + FEASIBILITY_TOL:
                        stack.append(child)
                break
            x = np.where(model.integer, np.round(lp.x), lp.x)
            violated = lazy(x) if lazy is not None else None
            if violated is not None:
                model = _add_row(model, violated)
                continue  # re-solve this node with the new row
            if lp.objective < best_obj - FEASIBILITY_TOL:
                best_obj = lp.objective
                best_x = x
            break

    # every pruned bound is at least the incumbent less FEASIBILITY_TOL, so
    # only the open nodes (the stack, empty unless timed out) can do better
    open_bound = min((b for _, _, b in stack), default=math.inf)
    if best_x is None:
        if timed_out:
            return MipSolution(MipStatus.TIMED_OUT, None, math.nan, open_bound, nodes)
        return MipSolution(MipStatus.INFEASIBLE, None, math.nan, math.inf, nodes)
    if timed_out:
        return MipSolution(MipStatus.FEASIBLE, best_x, best_obj, min(open_bound, best_obj), nodes)
    return MipSolution(MipStatus.OPTIMAL, best_x, best_obj, best_obj, nodes)
