"""Column generation: master, duals, pricing, node admissibility."""

import random
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tdmcfg import colgen
from tdmcfg.colgen import (
    Column,
    ColumnPool,
    DualPrices,
    NodeInfeasibleError,
    build_master,
    canonical_duals,
    column_generation,
    ensure_seed_columns,
    price_client,
    slots_of,
    solve_master,
    zero_duals,
)
from tdmcfg.heuristics import allocated_slots, best_of_runs
from tdmcfg.ilp import find_latency_violation
from tdmcfg.mip import LpSolution, LpStatus
from tdmcfg.model import ClientRequirement, ProblemInstance, latency_witness, slot_bound_sum
from tdmcfg.serialize import load_instance
from tdmcfg.usecase import GenSpec, generate

from conftest import brute_force_price, column_admissible

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _integral_pair_slots(pool: ColumnPool) -> int:
    """Fewest total slots over conflict-free (c1, c2) column pairs."""
    best = None
    for col1 in pool.admissible(1, ()):
        for col2 in pool.admissible(2, ()):
            if any(a and b for a, b in zip(col1.mask, col2.mask)):
                continue
            total = col1.slot_count + col2.slot_count
            if best is None or total < best:
                best = total
    assert best is not None
    return best


def seeded_pool(columns) -> ColumnPool:
    pool = ColumnPool()
    for col in columns:
        pool.add(col)
    return pool


def test_column_pool_deduplicates(golden_seed_columns):
    a11, a21 = golden_seed_columns
    pool = seeded_pool([a11, a21])
    assert not pool.add(Column(1, a11.mask))
    assert len(pool.admissible(1, ())) == 1


def test_column_admissible_respects_decisions(golden_seed_columns):
    a11, _ = golden_seed_columns  # client 1 holds slots 3, 4, 8, 9, 10
    pool = seeded_pool([a11])

    def admissible(decisions):
        return pool.admissible(1, decisions) == [a11]

    assert admissible(())
    assert admissible(((1, 3, True),))
    assert not admissible(((1, 3, False),))
    assert not admissible(((1, 1, True),))
    # another client taking slot 3 forbids it for this column
    assert not admissible(((2, 3, True),))


def test_master_values_track_pool_growth(golden_instance, golden_seed_columns):
    a11, a21 = golden_seed_columns
    a22 = Column(2, (1, 0, 0, 0, 1, 0, 0, 1, 0, 0))
    a12 = Column(1, (0, 1, 1, 0, 1, 1, 0, 0, 1, 0))
    a23 = Column(2, (1, 0, 0, 1, 0, 0, 1, 0, 0, 0))
    expected = [
        ([a11, a21], Fraction(9, 10)),
        ([a11, a21, a22], Fraction(9, 10)),
        ([a11, a21, a22, a12], Fraction(17, 20)),
        ([a11, a21, a22, a12, a23], Fraction(4, 5)),
    ]
    for columns, value in expected:
        master = solve_master(seeded_pool(columns), (), golden_instance)
        assert master.objective == pytest.approx(float(value), abs=1e-9)


def test_canonical_duals_satisfy_dual_conditions(
    golden_instance, golden_seed_columns
):
    pool = seeded_pool(golden_seed_columns)
    master = solve_master(pool, (), golden_instance)
    duals = canonical_duals(master, golden_instance)
    f = golden_instance.frame_size
    # dual feasibility: every pooled column has nonnegative reduced cost
    for client in golden_instance.clients:
        for col in pool.admissible(client.id, ()):
            xi = (
                sum(duals.lam[j - 1] for j in col.slots())
                + col.slot_count / f
                - duals.sigma.get(client.id, 0.0)
            )
            assert xi >= -1e-6
    # strong duality against the master optimum
    dual_value = -duals.lam.sum() + sum(duals.sigma.values())
    assert dual_value == pytest.approx(master.objective, abs=1e-6)


def test_canonical_duals_fall_back_to_the_simplex_duals(
    monkeypatch, golden_instance, golden_seed_columns
):
    master = solve_master(seeded_pool(golden_seed_columns), (), golden_instance)
    # the master's simplex duals are optimal too: strong duality holds
    dual_value = -master.duals.lam.sum() + sum(master.duals.sigma.values())
    assert dual_value == pytest.approx(master.objective, abs=1e-6)
    monkeypatch.setattr(colgen, "solve_lp", lambda model, deadline: LpSolution(LpStatus.TIMED_OUT))
    assert canonical_duals(master, golden_instance) is master.duals


def test_iteration_one_reduced_costs(golden_instance, golden_seed_columns):
    pool = seeded_pool(golden_seed_columns)
    master = solve_master(pool, (), golden_instance)
    duals = canonical_duals(master, golden_instance)
    _, xi1 = price_client(golden_instance.client(1), duals, 10)
    _, xi2 = price_client(golden_instance.client(2), duals, 10)
    assert xi1 == pytest.approx(0.0, abs=1e-6)
    assert xi2 == pytest.approx(-0.1, abs=1e-6)


def test_priced_columns_meet_requirements(golden_instance):
    duals = zero_duals(golden_instance)
    for client in golden_instance.clients:
        column, _ = price_client(client, duals, 10)
        assert column.slot_count >= 1
        assert find_latency_violation(list(column.mask), client, 10) is None


def test_pricing_respects_node_decisions(golden_instance):
    client = golden_instance.client(2)
    duals = zero_duals(golden_instance)
    decisions = ((2, 1, False), (2, 2, False))
    column, _ = price_client(client, duals, 10, decisions)
    assert column.mask[0] == 0 and column.mask[1] == 0


def test_pricing_raises_on_impossible_fixings():
    req = ClientRequirement(1, "c", Fraction(9, 10), None)
    inst = ProblemInstance(10, (req,))
    # forbidding two slots leaves only 8 < 9 required
    decisions = ((1, 1, False), (1, 2, False))
    with pytest.raises(NodeInfeasibleError):
        price_client(req, zero_duals(inst), 10, decisions)


def test_price_client_matches_brute_force():
    rng = random.Random(2024)
    infeasible = 0
    for case in range(320):
        f = rng.randint(3, 11)
        kind = case % 4
        if kind == 0:  # rate only
            rate, latency = Fraction(rng.randint(1, f), f), None
        elif kind == 1:  # rate 0: needs no service at all
            rate, latency = Fraction(0), Fraction(rng.randint(0, 2 * f), 2)
        else:  # fractional latency
            rate = Fraction(rng.randint(1, f), rng.choice([f, 2 * f, 3 * f]))
            latency = Fraction(rng.randint(0, 3 * f), rng.choice([1, 2, 3, 7]))
        client = ClientRequirement(1, "c", rate, latency)
        lam = np.array([rng.choice([0.0, 0.0, rng.random()]) for _ in range(f)])
        decisions = []
        for slot in range(1, f + 1):
            u = rng.random()
            if u < 0.1:
                decisions.append((1, slot, True))
            elif u < 0.2:
                decisions.append((1, slot, False))
            elif u < 0.25:
                decisions.append((2, slot, True))  # held by another client
        tie_break = np.array([rng.random() for _ in range(f)]) if case % 3 == 0 else None
        duals = DualPrices(lam, {1: 0.25})
        best = brute_force_price(client, lam, f, decisions)
        if best is None:
            infeasible += 1
            with pytest.raises(NodeInfeasibleError):
                price_client(client, duals, f, decisions, tie_break=tie_break)
            continue
        column, xi = price_client(client, duals, f, decisions, tie_break=tie_break)
        assert xi == pytest.approx(best - 0.25, abs=1e-6), (case, client, decisions)
        assert column.slot_count >= rate * f
        if rate > 0:
            assert latency_witness(column.mask, client.effective_latency(f)) is None
        assert column_admissible(column, decisions)
    assert 20 <= infeasible <= 200


def test_column_generation_reaches_integral_optimum(
    golden_instance, golden_seed_columns, monkeypatch
):
    priced = []

    def recording_price_client(client, duals, frame_size, decisions=(), **kwargs):
        column, xi = price_client(client, duals, frame_size, decisions, **kwargs)
        best = brute_force_price(client, duals.lam, frame_size)
        priced.append((xi, best - duals.sigma.get(client.id, 0.0)))
        return column, xi

    monkeypatch.setattr(colgen, "price_client", recording_price_client)
    pool = seeded_pool(golden_seed_columns)
    trace = []
    res = column_generation(pool, (), golden_instance, trace)
    assert res.status == "optimal"
    assert res.lower_bound == pytest.approx(0.8, abs=1e-9)
    # the pool holds a conflict-free integral pair achieving the optimum
    assert _integral_pair_slots(pool) == 8
    # every priced column has the least reduced cost of any feasible mask
    assert len(priced) == 2 * len(trace)
    for xi, best in priced:
        assert xi == pytest.approx(best, abs=1e-9)
    # master values descend from the seed value to the optimum (9/10, 9/10,
    # 4/5 today; which of several equally priced columns enters decides
    # whether 17/20 shows in between)
    values = [Fraction(objective).limit_denominator(100) for _, objective, _ in trace]
    assert values[0] == Fraction(9, 10) and values[-1] == Fraction(4, 5)
    assert values == sorted(values, reverse=True)
    assert len(trace) <= 4
    # one reduced cost per client and iteration, numbered from 1
    assert [it for it, _, _ in trace] == list(range(1, len(trace) + 1))
    assert all(set(xi) == {1, 2} for _, _, xi in trace)


def test_column_generation_upper_bound_stop(golden_instance, golden_seed_columns):
    pool = seeded_pool(golden_seed_columns)
    # an incumbent at the seed value lets the Lagrangian close immediately
    res = column_generation(pool, (), golden_instance, incumbent_slots=8)
    assert res.status in ("optimal", "lagrangian_stop")
    assert res.lower_bound <= 0.8 + 1e-9


def test_root_stops_at_a_bound_that_prunes_the_heuristic_incumbent():
    # bnp-tree's ld3-s21: the first heuristic run finds the optimum, 10 of
    # 12 slots.  The root's Lagrangian reaches exactly 9 slots at iteration
    # 3, which prunes nothing; the loop must go on to its bound of 28/3
    # slots, which rounds up to 10
    instance = load_instance(CORPUS / "bnp-tree" / "ld3-s21.json")
    f = instance.frame_size
    best, found = best_of_runs(instance, 1, 0)
    assert allocated_slots(best) == 10
    pool = seeded_pool(
        Column(c.id, schedule.mask(c.id)) for schedule in found for c in instance.clients
    )
    tight = min(instance.clients, key=lambda c: (c.effective_latency(f), c.id))
    res = column_generation(pool, ((tight.id, 1, True),), instance, incumbent_slots=10)
    assert slots_of(res.lower_bound, f) == 10
    assert res.lower_bound == pytest.approx(28 / 3 / f)


def test_incumbent_stop_returns_a_bound_that_prunes():
    # LD instances on f = 12 made like bnp-tree's, each pool seeded with a
    # heuristic schedule as at the root.  Run to the end, then again with
    # every incumbent from the slot-bound sum up: a run that ends sooner was
    # ended by the incumbent test, and its bound must prune that incumbent
    # without passing the full bound
    stopped = 0
    for seed in range(100, 115):
        instance = generate(GenSpec(
            "LD", 3, (0.16 / 3, 0.56 / 3), (1.6, 3.3), (0.35, 0.5), (0.75, 0.95), 12, seed,
        ))
        f = instance.frame_size
        _, found = best_of_runs(instance, 1, 0)
        columns = [Column(c.id, s.mask(c.id)) for s in found for c in instance.clients]
        full = column_generation(seeded_pool(columns), (), instance)
        for slots in range(slot_bound_sum(instance), slots_of(full.lower_bound, f) + 2):
            res = column_generation(seeded_pool(columns), (), instance, incumbent_slots=slots)
            assert res.iterations <= full.iterations
            if res.iterations < full.iterations:
                stopped += 1
                assert slots_of(res.lower_bound, f) >= slots
                assert res.lower_bound <= full.lower_bound + 1e-9
    assert stopped >= 5


def test_lagrangian_estimates_below_final_bound(
    golden_instance, golden_seed_columns
):
    pool = seeded_pool(golden_seed_columns)
    res = column_generation(pool, (), golden_instance)
    for estimate in res.lagrangian_estimates:
        assert estimate <= res.lower_bound + 1e-9


def test_ensure_seed_columns_infeasible_node(golden_instance):
    pool = ColumnPool()
    # client 1 needs 5 slots; forbid 6 of the 10
    decisions = tuple((1, s, False) for s in range(1, 7))
    with pytest.raises(NodeInfeasibleError):
        ensure_seed_columns(pool, decisions, golden_instance)


def test_master_infeasible_when_no_admissible_column(golden_instance):
    pool = ColumnPool()
    pool.add(Column(1, (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)))
    pool.add(Column(2, (0, 0, 0, 0, 0, 1, 1, 1, 0, 0)))
    decisions = ((1, 1, False),)  # the only c1 column uses slot 1
    with pytest.raises(NodeInfeasibleError):
        solve_master(pool, decisions, golden_instance)


def test_master_holds_only_admissible_columns(golden_instance, golden_seed_columns):
    a11, a21 = golden_seed_columns
    a12 = Column(1, (0, 1, 1, 0, 1, 1, 0, 0, 1, 0))
    pool = seeded_pool([a11, a21, a12])
    decisions = ((1, 2, False),)  # a12 holds slot 2
    master = solve_master(pool, decisions, golden_instance)
    model = build_master(master.masks, master.owner, golden_instance)
    admissible = [
        col for c in golden_instance.clients for col in pool.admissible(c.id, decisions)
    ]
    assert master.columns == admissible == [a11, a21]
    assert len(model.c) == len(admissible) + golden_instance.frame_size


def _price_fresh(*args, **kwargs):
    """``price_client`` with every sub-model built anew, outside the memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colgen, "_sub_model", colgen.build_sub_model)
        return price_client(*args, **kwargs)


def _memo_keys(clients) -> set:
    """The (client, f, t) the memo holds for the given clients."""
    return {
        (client, f, t) for client in clients for f, t in colgen._SUB_MODELS.get(client, {})
    }


def test_shared_sub_models_price_like_fresh_ones(monkeypatch):
    # the memo over many clients, prices and decision sets: every answer is
    # bitwise the answer priced from freshly built sub-models, the memo
    # holds one sub-model per (client, f, t) whatever decisions it was
    # priced under, and pricing leaves a cached model as it was built
    from conftest import random_instance

    monkeypatch.setattr(colgen, "_SUB_MODELS", weakref.WeakKeyDictionary())
    shared_run = [False]
    built = []  # the shared run's build keys
    lps = []  # the shared run's LPs: (its sub-model's matrix, slot box bounds)
    build, solve = colgen.build_sub_model, colgen.solve_lp

    def counting_build(client, frame_size, t):
        if shared_run[0]:
            built.append((client, frame_size, t))
        return build(client, frame_size, t)

    def counting_solve(model, **kwargs):
        if shared_run[0]:
            f = len(model.c) - 1
            lps.append((id(model.A), model.row_upper[:2 * f].tobytes()))
        return solve(model, **kwargs)

    monkeypatch.setattr(colgen, "build_sub_model", counting_build)
    monkeypatch.setattr(colgen, "solve_lp", counting_solve)
    rng = random.Random(7)
    clients = []  # held, so that the memo keeps their sub-models
    priced = 0
    for _ in range(12):
        instance = random_instance(rng, max_clients=3, max_frame=11)
        clients += instance.clients
        f = instance.frame_size
        decision_sets = [()] + [
            tuple(
                (rng.choice(instance.clients).id, s, rng.random() < 0.3)
                for s in rng.sample(range(1, f + 1), rng.randint(1, 3))
            )
            for _ in range(2)
        ]
        for _ in range(3):
            duals = DualPrices(
                np.array([rng.choice([0.0, rng.random()]) for _ in range(f)]),
                {c.id: rng.random() for c in instance.clients},
            )
            tie_break = np.array([rng.random() for _ in range(f)])
            for client in instance.clients:
                for decisions in decision_sets:
                    answers = []
                    for pricing in (price_client, _price_fresh):
                        shared_run[0] = pricing is price_client
                        try:
                            answers.append(pricing(
                                client, duals, f, decisions, tie_break=tie_break,
                            ))
                        except NodeInfeasibleError:
                            answers.append(None)
                    shared, fresh = answers
                    assert (shared is None) == (fresh is None)
                    if shared is not None:
                        priced += 1
                        assert shared[0].mask == fresh[0].mask
                        assert shared[1] == fresh[1]  # bitwise
    memo = _memo_keys(clients)
    assert priced > 100 and len(built) == len(set(built)) == len(memo) > 10
    assert set(built) == memo
    cached = {key: colgen._SUB_MODELS[key[0]][key[1:]] for key in memo}
    # several decision sets reached the LP of one sub-model
    assert {a for a, _ in lps} == {id(m.A) for m in cached.values()}
    assert len(set(lps)) > len(memo)
    for (client, f, t), m in cached.items():
        again = build(client, f, t)
        assert not m.c.any() and np.array_equal(m.row_upper, again.row_upper)
    # the shared run solved more LPs than it built: cached models were reused
    assert len(lps) > len(built)


def test_equal_clients_of_other_frame_sizes_share_no_sub_model(monkeypatch):
    # the memo prices the same client in instances of two frame sizes; its
    # key holds f, so each size gets its own sub-models and every answer is
    # bitwise the answer priced from freshly built ones
    monkeypatch.setattr(colgen, "_SUB_MODELS", weakref.WeakKeyDictionary())
    client = ClientRequirement(1, "c1", Fraction(1, 4), Fraction(3))
    lps = []
    solve = colgen.solve_lp
    monkeypatch.setattr(colgen, "solve_lp", lambda m, **kw: lps.append(m) or solve(m, **kw))
    rng = np.random.default_rng(3)
    for f in (8, 12, 8, 12):
        for decisions in ((), ((1, 2, True),), ((1, 1, False), (2, 5, True))):
            duals = DualPrices(rng.uniform(0.0, 1.0, f), {1: 0.5})
            shared = price_client(client, duals, f, decisions)
            fresh = _price_fresh(client, duals, f, decisions)
            assert shared[0].mask == fresh[0].mask and shared[1] == fresh[1]
    assert lps  # the cheapest slots alone break the latency bound
    assert {f for _, f, _ in _memo_keys([client])} == {8, 12}
    for (f, _), m in colgen._SUB_MODELS[client].items():
        assert len(m.c) == f + 1
