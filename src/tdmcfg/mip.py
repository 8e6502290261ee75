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
from dataclasses import dataclass
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
    duals: Optional[np.ndarray] = None  # one per A_ub row, lazy rows last
    objective: float = math.nan


@dataclass
class MipSolution:
    status: MipStatus
    x: Optional[np.ndarray] = None
    objective: float = math.nan
    best_bound: float = -math.inf
    nodes: int = 0


def solve_lp(
    model: LinearModel,
    bound_overrides: Optional[dict[int, tuple[float, float]]] = None,
    extra_rows: Sequence[Row] = (),
    deadline: float = math.inf,
) -> LpSolution:
    """Solve the LP relaxation; deterministic for a fixed input.

    ``bound_overrides`` tightens variable bounds by index without
    rebuilding the model; ``extra_rows`` appends ``<=`` rows after the
    model's own (used for lazy cuts).  HiGHS stops at ``deadline`` (a
    ``time.monotonic()`` value), which gives ``LpStatus.TIMED_OUT``.
    """
    bounds = np.column_stack([model.lower, model.upper])
    if bound_overrides:
        for i, (lo, hi) in bound_overrides.items():
            bounds[i, 0] = max(bounds[i, 0], lo)
            bounds[i, 1] = min(bounds[i, 1], hi)
            if bounds[i, 0] > bounds[i, 1] + FEASIBILITY_TOL:
                return LpSolution(LpStatus.INFEASIBLE)
    A_ub, b_ub = model.A_ub, model.b_ub
    if extra_rows:
        lengths = [len(idx) for idx, _, _ in extra_rows]
        block = sparse.csr_matrix(
            (
                np.concatenate([coefs for _, coefs, _ in extra_rows]),
                (
                    np.repeat(np.arange(len(extra_rows)), lengths),
                    np.concatenate([idx for idx, _, _ in extra_rows]),
                ),
            ),
            shape=(len(extra_rows), len(model.c)),
        )
        block.eliminate_zeros()
        A_ub = block if A_ub is None else sparse.vstack([A_ub, block], format="csr")
        b_ub = np.concatenate([b_ub, [rhs for _, _, rhs in extra_rows]])
    args = dict(
        A_ub=A_ub,
        b_ub=b_ub if A_ub is not None else None,
        A_eq=model.A_eq,
        b_eq=model.b_eq,
        bounds=bounds,
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
    duals = res.ineqlin.marginals if A_ub is not None else np.zeros(0)
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


def solve_mip(
    model: LinearModel,
    lazy: Optional[Callable[[np.ndarray], Optional[Row]]] = None,
    deadline: float = math.inf,
    optimality_gap: float = 0.0,
    bound_grid: Optional[float] = None,
) -> MipSolution:
    """Depth-first branch-and-bound over the integer variables.

    Whenever an integral candidate appears, the lazy callback receives its
    rounded ``x`` and may return a violated ``<=`` row; the row is added
    globally and the node is re-solved.  ``bound_grid`` optionally rounds
    node bounds up to a known objective granularity, which tightens pruning
    without affecting correctness.  Past ``deadline`` (``time.monotonic()``)
    the open nodes stay open and the result is FEASIBLE or TIMED_OUT.
    """
    lazy_rows: list[Row] = []
    best_obj = math.inf
    best_x: Optional[np.ndarray] = None
    min_pruned = math.inf
    nodes = 0
    timed_out = False
    # stack entries: (bound_overrides, parent LP bound)
    stack: list[tuple[dict[int, tuple[float, float]], float]] = [({}, -math.inf)]

    def prune_threshold() -> float:
        if best_x is None:
            return math.inf
        slack = max(FEASIBILITY_TOL, optimality_gap * max(1.0, abs(best_obj)))
        return best_obj - slack

    while stack and not timed_out:
        if time.monotonic() > deadline:
            timed_out = True
            break
        overrides, parent_bound = stack.pop()
        if parent_bound >= prune_threshold():
            min_pruned = min(min_pruned, parent_bound)
            continue
        nodes += 1
        while True:
            lp = solve_lp(model, overrides, lazy_rows, deadline)
            if lp.status == LpStatus.TIMED_OUT:
                # the node stays open at its parent's bound
                timed_out = True
                stack.append((overrides, parent_bound))
                break
            if lp.status != LpStatus.OPTIMAL:
                break  # infeasible node (unbounded cannot occur with finite bounds)
            bound = _snap_bound(lp.objective, bound_grid)
            if bound >= prune_threshold():
                min_pruned = min(min_pruned, bound)
                break
            branch_var = _most_fractional(lp.x, model.integer)
            if branch_var is not None:
                x = float(lp.x[branch_var])
                lo, hi = math.floor(x), math.ceil(x)
                prev_lo, prev_hi = overrides.get(branch_var, (-math.inf, math.inf))
                down = dict(overrides)
                down[branch_var] = (prev_lo, min(prev_hi, float(lo)))
                up = dict(overrides)
                up[branch_var] = (max(prev_lo, float(hi)), prev_hi)
                # dive toward the nearer integer first (pushed last)
                if x - lo <= hi - x:
                    stack.append((up, bound))
                    stack.append((down, bound))
                else:
                    stack.append((down, bound))
                    stack.append((up, bound))
                break
            x = np.where(model.integer, np.round(lp.x), lp.x)
            violated = lazy(x) if lazy is not None else None
            if violated is not None:
                lazy_rows.append(violated)
                continue  # re-solve this node with the new row
            if lp.objective < best_obj - FEASIBILITY_TOL:
                best_obj = lp.objective
                best_x = x
            break

    open_bounds = [pb for _, pb in stack] if timed_out else []
    if best_x is None:
        if timed_out:
            bound = min(open_bounds, default=math.inf)
            return MipSolution(MipStatus.TIMED_OUT, None, math.nan, bound, nodes)
        return MipSolution(MipStatus.INFEASIBLE, None, math.nan, math.inf, nodes)
    lower = min(min_pruned, best_obj)
    if timed_out:
        lower = min(lower, min(open_bounds, default=math.inf))
        return MipSolution(MipStatus.FEASIBLE, best_x, best_obj, lower, nodes)
    if lower >= best_obj - 1e-9:
        return MipSolution(MipStatus.OPTIMAL, best_x, best_obj, best_obj, nodes)
    return MipSolution(MipStatus.FEASIBLE, best_x, best_obj, lower, nodes)
