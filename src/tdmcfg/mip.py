"""Minimal binary-LP kernel: LP relaxation with duals and branch-and-bound.

A model is plain arrays addressed by position, in HiGHS's own form:
objective, bounds and integrality per variable, and one sparse row-wise
matrix with a lower and an upper bound per row.  Builders write ``<=``
rows (lower bound -inf; ``>=`` rows negated), and an equality row has
equal bounds.  LPs run on HiGHS through the binding bundled with scipy; the
integer search is a hand-rolled depth-first branch-and-bound with a
lazy-row hook, most-fractional branching and deterministic tie-breaking.
It keeps one HiGHS handle per search and re-solves each node warm from the
handle's last basis; every one-shot LP is passed to one long-lived handle,
which the new model resets.

Dual sign convention: ``LpSolution.duals[r]`` belongs to row r, and the
reduced cost of variable v in this minimization is
c[v] - sum_r duals[r] * A[r, v].
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import sparse
# scipy's private HiGHS binding, imported from its package: a first import
# of scipy.optimize by the three-level name made scipy's own import-time
# docstring work 3-5 times slower (0.1-0.2 s more per process, measured)
from scipy.optimize._highspy import _core as highspy

HighsModelStatus, _Highs = highspy.HighsModelStatus, highspy._Highs

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
    """min c @ x  s.t.  row_lower <= A @ x <= row_upper,  lower <= x <= upper.

    Variables and rows are addressed by position only; ``integer`` flags
    the variables the branch-and-bound must make integral.
    """

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray
    A: sparse.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray


# one row in ``<=`` form: (variable indices, coefficients, right-hand side)
Row = tuple[np.ndarray, np.ndarray, float]


def stack_rows(
    blocks: Sequence[tuple[int, np.ndarray, Sequence[float]]], ncols: int
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Stack dense ``<=`` row blocks into (A, row_lower, row_upper).

    Block (col0, coefs, rhs) puts the rows ``coefs`` at columns col0 on;
    explicit zeros are dropped.  Every row's lower bound is -inf.
    """
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    vals, rhs = [np.zeros(0)], [np.zeros(0)]
    nrows = 0
    for col0, coefs, b in blocks:
        r, s = np.nonzero(coefs)
        rows.append(r + nrows)
        cols.append(s + col0)
        vals.append(coefs[r, s])
        rhs.append(np.asarray(b, dtype=float))
        nrows += coefs.shape[0]
    A = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nrows, ncols),
    )
    return A, np.full(nrows, -np.inf), np.concatenate(rhs)


@dataclass
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None  # one per row
    objective: float = math.nan


@dataclass
class MipSolution:
    status: MipStatus
    x: Optional[np.ndarray] = None
    objective: float = math.nan
    best_bound: float = -math.inf
    nodes: int = 0


# the options scipy's linprog(method="highs") sets (simplex strategy 1 is
# dual simplex); HiGHS's defaults otherwise
HIGHS_OPTIONS = (("output_flag", False), ("presolve", "on"), ("simplex_strategy", 1))

LP_STATUS = {
    HighsModelStatus.kOptimal: LpStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: LpStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: LpStatus.UNBOUNDED,
    HighsModelStatus.kTimeLimit: LpStatus.TIMED_OUT,
}


def _new_handle() -> _Highs:
    highs = _Highs()
    for name, value in HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    return highs


# the handle every solve_lp call passes its model to, made on first use
_lp_handle = functools.cache(_new_handle)


def _load(model: LinearModel, highs: Optional[_Highs] = None) -> _Highs:
    """``highs`` (a new handle by default) holding just the model.  Passing
    a model resets the handle's model, basis and solution; its options and
    run time carry over.
    """
    n = len(model.c)
    A = model.A
    # HiGHS reads these arrays through bare pointers, so their sizes must agree
    if {len(model.lower), len(model.upper), A.shape[1]} != {n} or {
        len(model.row_lower), len(model.row_upper)
    } != {A.shape[0]}:
        raise ModelError("model arrays disagree in size")
    highs = _new_handle() if highs is None else highs
    highs.passModel(
        n, A.shape[0], A.nnz, 2, 1, 0.0,  # row-wise matrix, minimise, no offset
        model.c, model.lower, model.upper, model.row_lower, model.row_upper,
        A.indptr, A.indices, A.data, np.zeros(n, dtype=np.int32),
    )
    return highs


def linprog(highs: _Highs, deadline: float) -> HighsModelStatus:
    """Run HiGHS on the handle until ``deadline`` (``time.monotonic()``).

    The one call into HiGHS's solver.  HiGHS counts ``time_limit`` against
    the handle's total run time, so each run's budget starts from there.
    """
    remaining = max(0.0, deadline - time.monotonic())
    highs.setOptionValue("time_limit", highs.getRunTime() + remaining)
    highs.run()
    return highs.getModelStatus()


def _solution(highs: _Highs, status: HighsModelStatus) -> LpSolution:
    """The handle's result."""
    if status not in LP_STATUS:
        raise ModelError(f"LP solver failure: HiGHS model status {status.name}")
    if status != HighsModelStatus.kOptimal:
        return LpSolution(LP_STATUS[status])
    sol = highs.getSolution()
    return LpSolution(
        LpStatus.OPTIMAL, np.array(sol.col_value), np.array(sol.row_dual),
        float(highs.getInfo().objective_function_value),
    )


def solve_lp(model: LinearModel, deadline: float = math.inf) -> LpSolution:
    """Solve the LP relaxation; deterministic for a fixed input.

    HiGHS stops at ``deadline`` (a ``time.monotonic()`` value), which
    gives ``LpStatus.TIMED_OUT``.  Every call passes its model to one
    process-wide HiGHS handle, so calls must not overlap (no threads).
    """
    highs = _load(model, _lp_handle())
    return _solution(highs, linprog(highs, deadline))


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
    bound_grid: Optional[float] = None,
) -> MipSolution:
    """Depth-first branch-and-bound over the integer variables.

    A node is the model under its own variable bounds, set on the search's
    one HiGHS handle.  Whenever an integral candidate appears, the lazy
    callback receives its rounded ``x`` and may return a violated ``<=``
    row; the row joins the handle for every later node and the node is
    re-solved.  The caller's model is left unchanged.  ``bound_grid``
    optionally rounds node bounds up to a known objective granularity,
    which tightens pruning without affecting correctness.  Past ``deadline``
    (``time.monotonic()``) the open nodes stay open and the result is
    FEASIBLE or TIMED_OUT.
    """
    highs = _load(model)
    columns = np.arange(len(model.c), dtype=np.int32)
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
        highs.changeColsBounds(len(columns), columns, lower, upper)
        while True:
            lp = _solution(highs, linprog(highs, deadline))
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
                indices, coefs, rhs = violated
                highs.addRow(-np.inf, rhs, len(indices), indices, coefs)
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
