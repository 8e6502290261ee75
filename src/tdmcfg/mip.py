"""Minimal binary-LP kernel: LP relaxation with duals and branch-and-bound.

A model is plain arrays addressed by position, in HiGHS's own form:
objective, bounds and integrality per variable, and one sparse row-wise
matrix with a lower and an upper bound per row.  Builders write ``<=``
rows (lower bound -inf; ``>=`` rows negated), and an equality row has
equal bounds.  LPs run on HiGHS through the binding bundled with scipy,
loaded from its file without the rest of scipy; the integer search is a
hand-rolled depth-first branch-and-bound with a lazy-row hook,
most-fractional branching and deterministic tie-breaking.
Every LP and every search passes its model to the process's one HiGHS
handle, which resets its model, basis and solution; a search re-solves each
node warm from the handle's last basis.  No two calls may overlap.

Dual sign convention: ``LpSolution.duals[r]`` belongs to row r, and the
reduced cost of variable v in this minimization is
c[v] - sum_r duals[r] * A[r, v].
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

HIGHS_BINDING = "scipy.optimize._highspy._core"


def _load_highs_binding():
    """scipy's private HiGHS extension module, loaded from its file.

    Importing it through its package would run ``scipy.optimize``'s
    ``__init__``, which loads some 300 scipy modules (linalg, fft, ...) and
    took longer than most solves.  The module goes into ``sys.modules``
    under its full name before it runs, so a later ``import scipy.optimize``
    finds it there and both work on one module object.
    """
    if HIGHS_BINDING in sys.modules:
        return sys.modules[HIGHS_BINDING]
    scipy = importlib.util.find_spec("scipy")  # finds the package, runs nothing
    if scipy is None:
        raise ImportError("tdmcfg needs scipy, which is not installed")
    folder = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    paths = [folder / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's HiGHS binding not found: no file {paths[0]}")
    spec = importlib.util.spec_from_file_location(HIGHS_BINDING, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[HIGHS_BINDING] = module
    spec.loader.exec_module(module)
    return module


highspy = _load_highs_binding()
HighsModelStatus, _Highs = highspy.HighsModelStatus, highspy._Highs

# One 4 MB block, allocated and freed.  glibc's malloc raises its mmap
# threshold to the size of a freed mmapped block (mallopt(3)), so later
# blocks of 128 KB and more, such as HiGHS's own buffers, come from the
# heap instead of a fresh mmap that page-faults on every call.  Importing
# scipy.optimize did this as a side effect; without it one round of the
# perfbench warmstart corpus took about 9 000 minor page faults instead of
# tens, when every mask check still built f x f int64 window counts.
np.empty(1 << 19)

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


class RowMatrix(NamedTuple):
    """A sparse matrix stored row-wise, as HiGHS reads it: row r holds
    ``data[indptr[r]:indptr[r + 1]]`` at columns ``indices[...]`` alike."""

    indptr: np.ndarray  # int32, one more than the rows
    indices: np.ndarray  # int32
    data: np.ndarray  # float64
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)


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
    A: RowMatrix
    row_lower: np.ndarray
    row_upper: np.ndarray


# one row in ``<=`` form: (variable indices, coefficients, right-hand side)
Row = tuple[np.ndarray, np.ndarray, float]


def stack_rows(
    blocks: Sequence[tuple[int, np.ndarray, Sequence[float]]], ncols: int
) -> tuple[RowMatrix, np.ndarray, np.ndarray]:
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
    # np.nonzero lists entries row by row, so the blocks in turn are row-major
    indptr = np.zeros(nrows + 1, dtype=np.int32)
    np.cumsum(np.bincount(np.concatenate(rows), minlength=nrows), out=indptr[1:])
    A = RowMatrix(
        indptr, np.concatenate(cols).astype(np.int32),
        np.concatenate(vals).astype(float), (nrows, ncols),
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


# HiGHS's defaults (presolve "choose", dual simplex), with its log off
HIGHS_OPTIONS = (("output_flag", False),)

LP_STATUS = {
    HighsModelStatus.kOptimal: LpStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: LpStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: LpStatus.UNBOUNDED,
    HighsModelStatus.kTimeLimit: LpStatus.TIMED_OUT,
}


@functools.cache
def _lp_handle() -> _Highs:
    """The process's one HiGHS handle, made on first use."""
    highs = _Highs()
    for name, value in HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    return highs


def _load(model: LinearModel) -> _Highs:
    """The one handle, holding just the model.  Passing a model resets the
    handle's model, basis and solution, so its answers equal a new
    handle's; only its options and run time carry over.
    """
    n = len(model.c)
    A = model.A
    # HiGHS reads these arrays through bare pointers, so their sizes must agree
    if {len(model.lower), len(model.upper), A.shape[1]} != {n} or {
        len(model.row_lower), len(model.row_upper), len(A.indptr) - 1
    } != {A.shape[0]} or {len(A.indices), int(A.indptr[-1])} != {A.nnz}:
        raise ModelError("model arrays disagree in size")
    highs = _lp_handle()
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
        float(highs.getObjectiveValue()),
    )


def solve_lp(model: LinearModel, deadline: float = math.inf) -> LpSolution:
    """Solve the LP relaxation; deterministic for a fixed input.

    HiGHS stops at ``deadline`` (a ``time.monotonic()`` value), which
    gives ``LpStatus.TIMED_OUT``.  The model goes to the process's one
    HiGHS handle, so no call may overlap another or a ``solve_mip``.
    """
    highs = _load(model)
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

    A node is the model under its own variable bounds, set on the process's
    one HiGHS handle.  Whenever an integral candidate appears, the lazy
    callback receives its rounded ``x`` and may return a violated ``<=``
    row; the row joins the handle for every later node and the node is
    re-solved.  The callback must not solve LPs: that would replace the
    search's model on the handle.  The caller's model is left unchanged.
    ``bound_grid`` optionally rounds node bounds up to a known objective
    granularity, which tightens pruning without affecting correctness.
    Past ``deadline`` (``time.monotonic()``) the open nodes stay open and
    the result is FEASIBLE or TIMED_OUT, unless none of them has a bound
    below the incumbent's.
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
    # only the nodes left on the stack (none unless timed out) whose bound
    # is below that can do better; the search is complete if there are none
    open_bound = min((b for _, _, b in stack if b < prune_threshold()), default=math.inf)
    if best_x is None:
        if open_bound < math.inf:
            return MipSolution(MipStatus.TIMED_OUT, None, math.nan, open_bound, nodes)
        return MipSolution(MipStatus.INFEASIBLE, None, math.nan, math.inf, nodes)
    if open_bound < math.inf:
        return MipSolution(MipStatus.FEASIBLE, best_x, best_obj, open_bound, nodes)
    return MipSolution(MipStatus.OPTIMAL, best_x, best_obj, best_obj, nodes)
