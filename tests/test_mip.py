"""LP/MIP kernel: duals, branch-and-bound, lazy rows, time limits."""

import math
import time

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus

from tdmcfg import mip
from tdmcfg.mip import LinearModel, LpStatus, MipStatus, solve_lp, solve_mip, stack_rows


def model(c, upper, rows=(), integer=True):
    """min c @ x over 0 <= x <= upper with dense ``<=`` rows (coefs, rhs)."""
    c = np.array(c, dtype=float)
    return LinearModel(
        c, np.zeros(len(c)), np.array(upper, dtype=float), np.full(len(c), integer),
        *stack_rows([(0, np.array([coefs]), [rhs]) for coefs, rhs in rows], len(c)),
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
    A, lo, hi = stack_rows(
        [(0, np.array([[1.0, 0.0]]), [2.0]), (2, np.array([[0.0, -3.0], [0.0, 0.0]]), [1.0, 0.0])], 4
    )
    assert A.shape == (3, 4)
    assert A.nnz == 2
    assert A.toarray().tolist() == [[1, 0, 0, 0], [0, 0, 0, -3], [0, 0, 0, 0]]
    assert lo.tolist() == [-math.inf] * 3
    assert hi.tolist() == [2.0, 1.0, 0.0]
    # no rows is still a matrix
    A, lo, hi = stack_rows([], 4)
    assert A.shape == (0, 4) and len(lo) == len(hi) == 0


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
    solved = []  # per HiGHS run: (column lower bounds, rows, status, x)
    linprog = mip.linprog

    def recording(highs, deadline):
        status = linprog(highs, deadline)
        lp = highs.getLp()
        x = np.array(highs.getSolution().col_value)
        solved.append((np.array(lp.col_lower_), lp.num_row_, status, x))
        return status

    calls = []

    def lazy(x):
        if x[0] + x[1] > 1:
            calls.append(x.copy())
            return np.array([0, 1]), np.array([1.0, 1.0]), 1.0
        return None

    monkeypatch.setattr(mip, "linprog", recording)
    m = model([-1.0, -1.0, -1.0, -1.0], [1, 1, 1, 1], [([0.0, 0.0, 1.0, 1.0], 1.5)])
    res = solve_mip(m, lazy=lazy)
    assert res.status == MipStatus.OPTIMAL
    assert res.objective == pytest.approx(-2.0)
    assert len(calls) == 1  # found at the first child, never again
    assert m.A.shape[0] == 1  # the caller's model is left as it was
    root_x = solved[0][3]
    v = next(i for i in (2, 3) if 0 < root_x[i] < 1)
    first = solved[1][0]
    _, rows, status, x = next(run for run in solved if run[0][v] != first[v])
    assert all(run[1] == 2 for run in solved[2:])
    assert rows == 2 and status == HighsModelStatus.kOptimal
    assert x[0] + x[1] == pytest.approx(1.0)


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
    linprog = mip.linprog

    def fake_linprog(highs, deadline):
        limits.append(deadline - time.monotonic())
        if len(limits) == 1:
            return linprog(highs, deadline)
        return HighsModelStatus.kTimeLimit

    monkeypatch.setattr(mip, "linprog", fake_linprog)
    res = solve_mip(knapsack_model(), deadline=time.monotonic() + 60.0)
    assert len(limits) == 2 and all(0 < t <= 60.0 for t in limits)
    assert res.status == MipStatus.TIMED_OUT and res.x is None
    # both children stay open at the root bound
    assert res.best_bound == pytest.approx(root.objective)


def test_highs_binding_has_every_method_mip_calls():
    # mip drives HiGHS through scipy's private binding; fail loudly if a
    # scipy release renames it or any method mip calls on it
    from scipy.optimize._highspy._core import _Highs

    for name in (
        "passModel", "changeColsBounds", "addRow", "run", "getRunTime",
        "getModelStatus", "getSolution", "getInfo", "setOptionValue",
    ):
        assert callable(getattr(_Highs, name, None)), name


def test_each_run_on_a_shared_handle_gets_its_own_budget():
    # HiGHS counts time_limit against the handle's total run time: a
    # budget shorter than the runs before it must still allow a warm re-run
    from tdmcfg.ilp import build_ilp
    from tdmcfg.usecase import GenSpec, generate

    relaxation = build_ilp(generate(GenSpec.default("BD", 8, seed=3)))
    highs = mip._load(relaxation)
    assert mip.linprog(highs, math.inf) == HighsModelStatus.kOptimal
    budget = highs.getRunTime() / 2
    assert highs.getRunTime() > budget > 0.01
    # one simplex step at least: move a variable off its value of 1
    x = np.array(highs.getSolution().col_value)
    v = np.flatnonzero((x > 0.5) & (relaxation.lower < 0.5))[:1].astype(np.int32)
    highs.changeColsBounds(1, v, np.zeros(1), np.zeros(1))
    assert mip.linprog(highs, time.monotonic() + budget) == HighsModelStatus.kOptimal


@pytest.mark.parametrize("seed", range(40))
def test_solve_mip_agrees_with_highs_milp(seed):
    # random binary programs, some infeasible: the warm search re-solves
    # after backtracking and after infeasible nodes on one handle
    from scipy.optimize import LinearConstraint, milp

    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 13)), int(rng.integers(1, 9))
    c = rng.integers(-10, 11, n).astype(float)
    A = rng.integers(-5, 6, (m, n)).astype(float)
    b = rng.integers(-5, 12, m).astype(float)
    res = solve_mip(model(c, np.ones(n), zip(A, b)))
    ref = milp(c, constraints=LinearConstraint(A, -np.inf, b), integrality=np.ones(n),
               bounds=(0, 1))
    assert ref.status in (0, 2)
    if ref.status == 2:
        assert res.status == MipStatus.INFEASIBLE
    else:
        assert res.status == MipStatus.OPTIMAL
        assert res.objective == pytest.approx(ref.fun)
        assert np.all(A @ res.x <= b + 1e-9)


def test_unexpected_highs_status_raises_model_error(monkeypatch):
    monkeypatch.setattr(mip, "linprog", lambda highs, deadline: HighsModelStatus.kUnknown)
    with pytest.raises(mip.ModelError, match="kUnknown"):
        solve_lp(knapsack_model())


def test_model_arrays_of_other_sizes_are_refused():
    # HiGHS would read past the end of a short array
    short_bounds = knapsack_model()
    short_bounds.upper = short_bounds.upper[:2]
    short_rhs = knapsack_model()
    short_rhs.row_upper = np.zeros(0)
    short_row_lower = knapsack_model()
    short_row_lower.row_lower = np.zeros(0)
    for m in (short_bounds, short_rhs, short_row_lower):
        with pytest.raises(mip.ModelError, match="disagree in size"):
            solve_lp(m)


def test_reused_handle_matches_fresh_handles(monkeypatch, golden_instance, golden_seed_columns):
    # solve_lp passes every model to one handle; passModel must reset it so
    # that each answer is bitwise the answer of a new handle
    from fractions import Fraction

    from tdmcfg import colgen
    from tdmcfg.colgen import ColumnPool, build_sub_model, canonical_duals, solve_master
    from tdmcfg.model import ClientRequirement

    f = 10
    client = ClientRequirement(1, "c1", Fraction(3, 10), Fraction(3))
    cost = np.random.default_rng(0).uniform(0.1, 1.0, f)
    pricing = build_sub_model(client, f, 4)
    pricing.c = colgen._prefix_costs(cost)
    pool = ColumnPool()
    for client_id, mask in golden_seed_columns:
        pool.add(client_id, mask)
    master = solve_master(pool, (), golden_instance)
    captured = []
    monkeypatch.setattr(colgen, "solve_lp", lambda m, deadline: captured.append(m) or solve_lp(m))
    canonical_duals(master, golden_instance)
    monkeypatch.undo()
    (dual_selection,) = captured
    # the strong-duality row, last, is the one equality row
    equal = dual_selection.row_lower == dual_selection.row_upper
    assert np.flatnonzero(equal).tolist() == [len(equal) - 1]
    infeasible = model([1.0], [1], [([-1.0], -2.0)], integer=False)

    handles = []
    linprog = mip.linprog
    monkeypatch.setattr(mip, "linprog", lambda h, d: handles.append(h) or linprog(h, d))
    past = time.monotonic() - 1.0
    steps = [
        (pricing, math.inf, LpStatus.OPTIMAL),
        (dual_selection, math.inf, LpStatus.OPTIMAL),
        (infeasible, math.inf, LpStatus.INFEASIBLE),
        (pricing, past, LpStatus.TIMED_OUT),
        (pricing, math.inf, LpStatus.OPTIMAL),
    ]
    for m, deadline, status in steps:
        shared = solve_lp(m, deadline)
        highs = mip._load(m)
        fresh = mip._solution(highs, linprog(highs, deadline))
        assert shared.status == fresh.status == status
        for a, b in ((shared.x, fresh.x), (shared.duals, fresh.duals)):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert np.array_equal([shared.objective], [fresh.objective], equal_nan=True)
    assert len(handles) == len(steps) and all(h is mip._lp_handle() for h in handles)


def test_each_solve_lp_gets_its_own_budget():
    # the shared handle's run time grows with every LP it solves; a budget
    # shorter than that total must still let the next LP finish
    from tdmcfg.ilp import build_ilp
    from tdmcfg.usecase import GenSpec, generate

    relaxation = build_ilp(generate(GenSpec.default("BD", 8, seed=3)))
    highs = mip._lp_handle()
    before = highs.getRunTime()
    assert solve_lp(relaxation).status == LpStatus.OPTIMAL
    budget = (highs.getRunTime() - before) / 2
    assert budget > 0.01
    small = model([1.0, 2.0], [10, 10], [([-1.0, -1.0], -4.0)], integer=False)
    assert solve_lp(small, time.monotonic() + budget).status == LpStatus.OPTIMAL
