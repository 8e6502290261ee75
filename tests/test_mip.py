"""LP/MIP kernel: duals, branch-and-bound, lazy rows, time limits."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from tdmcfg import mip
from tdmcfg.mip import LinearModel, LpStatus, MipStatus, solve_lp, solve_mip, stack_rows


def model(c, upper, rows=(), integer=True):
    """min c @ x over 0 <= x <= upper with dense ``<=`` rows (coefs, rhs)."""
    c = np.array(c, dtype=float)
    A_ub, b_ub = stack_rows([(0, np.array([coefs]), [rhs]) for coefs, rhs in rows], len(c))
    return LinearModel(
        c, np.zeros(len(c)), np.array(upper, dtype=float),
        np.full(len(c), integer), A_ub, b_ub,
    )


def knapsack_model():
    # min -8x1 - 11x2 - 6x3  s.t.  5x1 + 7x2 + 4x3 <= 14, x binary
    return model([-8.0, -11.0, -6.0], [1, 1, 1], [([5.0, 7.0, 4.0], 14.0)])


def test_solve_lp_optimal_with_duals():
    # min x + 2y  s.t.  x + y >= 4, written as -x - y <= -4
    lp = solve_lp(model([1.0, 2.0], [10, 10], [([-1.0, -1.0], -4.0)], integer=False))
    assert lp.status == LpStatus.OPTIMAL
    assert lp.objective == pytest.approx(4.0)
    assert lp.x[0] == pytest.approx(4.0)
    # reduced cost of x at its optimal basis is zero: c_x = dual * a_x
    assert lp.duals[0] * -1.0 == pytest.approx(1.0)


def test_solve_lp_infeasible():
    lp = solve_lp(model([1.0], [1], [([-1.0], -2.0)], integer=False))
    assert lp.status == LpStatus.INFEASIBLE


def test_stack_rows_drops_zeros_and_places_blocks():
    A, b = stack_rows(
        [(0, np.array([[1.0, 0.0]]), [2.0]), (2, np.array([[0.0, -3.0], [0.0, 0.0]]), [1.0, 0.0])], 4
    )
    assert A.shape == (3, 4)
    assert A.nnz == 2
    assert A.toarray().tolist() == [[1, 0, 0, 0], [0, 0, 0, -3], [0, 0, 0, 0]]
    assert b.tolist() == [2.0, 1.0, 0.0]
    assert stack_rows([], 4)[0] is None


def test_solve_mip_knapsack_optimum():
    res = solve_mip(knapsack_model())
    assert res.status == MipStatus.OPTIMAL
    assert res.objective == pytest.approx(-19.0)
    assert res.x.tolist() == [1.0, 1.0, 0.0]


def test_solve_mip_respects_integrality():
    # LP relaxation is fractional; MIP must branch to an integer point
    res = solve_mip(model([-1.0], [5], [([2.0], 7.0)]))
    assert res.status == MipStatus.OPTIMAL
    assert res.x[0] == pytest.approx(3.0)


def test_solve_mip_infeasible():
    res = solve_mip(model([1.0], [1], [([-1.0], -2.0)]))
    assert res.status == MipStatus.INFEASIBLE


def test_solve_mip_lazy_rows_are_global():
    # lazy cut forbids the initial optimum x1=x2=1; solver must re-solve
    calls = []

    def lazy(x):
        if x.tolist() == [1.0, 1.0]:
            calls.append(x.copy())
            return np.array([0, 1]), np.array([1.0, 1.0]), 1.0
        return None

    res = solve_mip(model([-1.0, -1.0], [1, 1]), lazy=lazy)
    assert res.status == MipStatus.OPTIMAL
    assert calls, "lazy callback never fired"
    assert res.objective == pytest.approx(-1.0)
    assert res.x.sum() == 1.0


def test_lazy_row_found_at_one_node_binds_a_later_sibling(monkeypatch):
    # max x0 + x1 + x2 + x3 with x2 + x3 <= 1.5: the root branches on x2 or
    # x3, and without the lazy row x0 + x1 <= 1 both children take x0 = x1 = 1
    solved = []
    solve_lp = mip.solve_lp

    def recording(model, deadline=math.inf):
        solved.append((model, solve_lp(model, deadline)))
        return solved[-1][1]

    calls = []

    def lazy(x):
        if x[0] + x[1] > 1:
            calls.append(x.copy())
            return np.array([0, 1]), np.array([1.0, 1.0]), 1.0
        return None

    monkeypatch.setattr(mip, "solve_lp", recording)
    m = model([-1.0, -1.0, -1.0, -1.0], [1, 1, 1, 1], [([0.0, 0.0, 1.0, 1.0], 1.5)])
    res = solve_mip(m, lazy=lazy)
    assert res.status == MipStatus.OPTIMAL
    assert res.objective == pytest.approx(-2.0)
    assert len(calls) == 1  # found at the first child, never again
    assert m.A_ub.shape[0] == 1  # the caller's model is left as it was
    root_x = solved[0][1].x
    v = next(i for i in (2, 3) if 0 < root_x[i] < 1)
    first = solved[1][0]
    sibling = next(lp for node, lp in solved if node.lower[v] != first.lower[v])
    assert all(node.A_ub.shape[0] == 2 for node, _ in solved[2:])
    assert sibling.status == LpStatus.OPTIMAL
    assert sibling.x[0] + sibling.x[1] == pytest.approx(1.0)


def test_solve_mip_bound_grid_snaps_bound():
    # objective values live on a 0.5 grid; pruning may use the snapped bound
    res = solve_mip(model([0.5, 0.5], [1, 1], [([-1.0, -1.0], -1.2)]), bound_grid=0.5)
    assert res.status == MipStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)


def test_solve_mip_time_limit_reports_timeout():
    # zero budget: the solver must give up gracefully
    res = solve_mip(knapsack_model(), deadline=time.monotonic() - 1.0)
    assert res.status == MipStatus.TIMED_OUT
    assert res.best_bound <= -19.0 + 1e-9 or math.isinf(res.best_bound)


def test_lp_time_out_keeps_the_node_open(monkeypatch):
    # the root LP solves; the first child's LP runs out of time in HiGHS
    root = solve_lp(knapsack_model())
    limits = []

    def fake_linprog(c, method, options, **args):
        limits.append(options["time_limit"])
        if len(limits) == 1:
            return linprog(c, method=method, options=options, **args)
        return SimpleNamespace(status=1, message="Time limit reached")

    monkeypatch.setattr(mip, "linprog", fake_linprog)
    res = solve_mip(knapsack_model(), deadline=time.monotonic() + 60.0)
    assert len(limits) == 2 and all(0 < t <= 60.0 for t in limits)
    assert res.status == MipStatus.TIMED_OUT and res.x is None
    # both children stay open at the root bound
    assert res.best_bound == pytest.approx(root.objective)
