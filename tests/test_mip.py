"""LP/MIP kernel: duals, branch-and-bound, lazy rows, time limits."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize._highspy._core import HighsModelStatus

from tdmcfg import mip
from tdmcfg.mip import LinearModel, LpStatus, MipStatus, solve_lp, solve_mip, stack_rows

SRC = Path(mip.__file__).resolve().parents[1]
LINPROG = mip.linprog  # as imported, before any test wraps it


def model(c, upper, rows=(), integer=True):
    """min c @ x over 0 <= x <= upper with dense ``<=`` rows (coefs, rhs)."""
    c = np.array(c, dtype=float)
    return LinearModel(
        c, np.zeros(len(c)), np.array(upper, dtype=float), np.full(len(c), integer),
        *stack_rows([(0, np.array([coefs]), [rhs]) for coefs, rhs in rows], len(c)),
    )


def dense(A):
    """The row-wise matrix A as a dense array."""
    out = np.zeros(A.shape)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    out[rows, A.indices] = A.data
    return out


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
    assert dense(A).tolist() == [[1, 0, 0, 0], [0, 0, 0, -3], [0, 0, 0, 0]]
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


def test_deadline_with_every_open_node_pruned_reports_optimal(monkeypatch):
    # max x0 + x1 with x0 + x1 <= 1.5: the root bound -1.5 snaps to -1, the
    # first child finds the incumbent -1, and then the clock passes the
    # deadline; the other child, left on the stack at bound -1, cannot beat
    # it, so the search is complete
    m = model([-1.0, -1.0], [1, 1], [([1.0, 1.0], 1.5)])
    finished = []
    linprog = mip.linprog

    def counting(highs, deadline):
        status = linprog(highs, deadline)
        finished.append(status)
        return status

    monkeypatch.setattr(mip, "linprog", counting)
    clock = SimpleNamespace(monotonic=lambda: 0.0 if len(finished) < 2 else 200.0)
    monkeypatch.setattr(mip, "time", clock)
    res = solve_mip(m, deadline=100.0, bound_grid=1.0)
    assert len(finished) == 2
    assert (res.status, res.objective, res.best_bound) == (MipStatus.OPTIMAL, -1.0, -1.0)
    monkeypatch.undo()
    res = solve_mip(m, bound_grid=1.0)
    assert (res.status, res.objective, res.best_bound) == (MipStatus.OPTIMAL, -1.0, -1.0)


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
        "getModelStatus", "getSolution", "getObjectiveValue", "setOptionValue",
    ):
        assert callable(getattr(_Highs, name, None)), name


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports tdmcfg from SRC."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy_optimize_or_sparse():
    # importing scipy.optimize alone took longer than most solves
    run_fresh(
        "import sys\n"
        "import tdmcfg.bnp, tdmcfg.cli, tdmcfg.serialize\n"
        "loaded = {'scipy.optimize', 'scipy.sparse'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        f"assert tdmcfg.mip.highspy is sys.modules[{mip.HIGHS_BINDING!r}]\n"
    )


@pytest.mark.parametrize("first, second", [
    ("from tdmcfg import mip", "from scipy.optimize import linprog"),
    ("from scipy.optimize import linprog", "from tdmcfg import mip"),
], ids=["tdmcfg_first", "scipy_first"])
def test_both_import_orders_share_one_binding(first, second):
    # whichever loads the binding first, scipy and tdmcfg must both solve
    # on one module object, the one registered under its full name
    run_fresh(
        f"{first}\n{second}\n"
        "import sys\n"
        "import numpy as np\n"
        "from scipy.optimize._highspy import _core\n"
        "# min x + 2y  s.t.  x + y >= 4,  0 <= x, y <= 10\n"
        "ref = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-4], bounds=(0, 10))\n"
        "assert ref.status == 0 and abs(ref.fun - 4) < 1e-9, ref\n"
        "lp = mip.solve_lp(mip.LinearModel(\n"
        "    np.array([1.0, 2.0]), np.zeros(2), np.full(2, 10.0), np.zeros(2, bool),\n"
        "    *mip.stack_rows([(0, np.array([[-1.0, -1.0]]), [-4.0])], 2)))\n"
        "assert lp.status == mip.LpStatus.OPTIMAL and abs(lp.objective - 4) < 1e-9, lp\n"
        f"assert mip.highspy is _core is sys.modules[{mip.HIGHS_BINDING!r}]\n"
    )


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
    short_indices = knapsack_model()
    short_indices.A = short_indices.A._replace(indices=short_indices.A.indices[:2])
    short_indptr = knapsack_model()
    short_indptr.A = short_indptr.A._replace(indptr=short_indptr.A.indptr[:1])
    for m in (short_bounds, short_rhs, short_row_lower, short_indices, short_indptr):
        with pytest.raises(mip.ModelError, match="disagree in size"):
            solve_lp(m)


def fresh_solution(monkeypatch, m, deadline=math.inf):
    """``m`` solved on a new HiGHS handle, as the reference for the shared one."""
    highs = mip._Highs()
    for name, value in mip.HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    with monkeypatch.context() as patch:
        patch.setattr(mip, "_lp_handle", lambda: highs)
        assert mip._load(m) is highs
    return mip._solution(highs, LINPROG(highs, deadline))


def assert_bitwise_equal(a, b):
    assert a.status == b.status
    for u, v in ((a.x, b.x), (a.duals, b.duals)):
        assert (u is None and v is None) or np.array_equal(u, v)
    assert np.array_equal([a.objective], [b.objective], equal_nan=True)


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
        fresh = fresh_solution(monkeypatch, m, deadline)
        assert shared.status == fresh.status == status
        assert_bitwise_equal(shared, fresh)
    assert len(handles) == len(steps) and all(h is mip._lp_handle() for h in handles)


def test_solve_lp_after_a_search_with_a_lazy_row_matches_a_fresh_handle(monkeypatch):
    # the search leaves its lazy row and last node bounds on the one handle;
    # loading the next model must clear both
    m = model([-1.0, -1.0], [1, 1])
    lazy = lambda x: (np.array([0, 1]), np.array([1.0, 1.0]), 1.0) if x.sum() > 1 else None
    assert solve_mip(m, lazy=lazy).objective == pytest.approx(-1.0)
    assert mip._lp_handle().getLp().num_row_ == 1
    shared = solve_lp(m)
    assert shared.objective == pytest.approx(-2.0)  # the lazy row is gone
    assert_bitwise_equal(shared, fresh_solution(monkeypatch, m))
    assert solve_mip(m, lazy=lazy).status == MipStatus.OPTIMAL
    relaxation = knapsack_model()
    assert_bitwise_equal(solve_lp(relaxation), fresh_solution(monkeypatch, relaxation))


def test_every_search_and_lp_runs_on_the_one_handle(monkeypatch):
    # the ILP's branch-and-bound, and branch-and-price's master, dual
    # selection, pricing and node completion, all solve on _lp_handle()
    from tdmcfg.bnp import BnpConfig, solve_bnp
    from tdmcfg.ilp import solve_direct
    from tdmcfg.serialize import load_instance

    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
    handles = []
    linprog = mip.linprog
    monkeypatch.setattr(mip, "linprog", lambda h, d: handles.append(h) or linprog(h, d))
    _, status, _, _ = solve_direct(load_instance(corpus / "ilp-bd8" / "bd8-s3.json"))
    assert status == MipStatus.OPTIMAL
    searched = len(handles)
    _, status, _, _, stats = solve_bnp(
        load_instance(corpus / "bnp-tree" / "ld4-s7.json"), BnpConfig(time_limit=60)
    )
    assert status == MipStatus.OPTIMAL and stats.completions > 0
    assert searched >= 1 and len(handles) > searched
    assert all(h is mip._lp_handle() for h in handles)


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
