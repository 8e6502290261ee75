"""Column generation: master, duals, pricing, node admissibility."""

import random
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tdmcfg import colgen
from tdmcfg.colgen import (
    ColumnPool,
    NodeInfeasibleError,
    build_master,
    canonical_duals,
    column_generation,
    ensure_seed_columns,
    fewest_slot_masks,
    price_client,
    slots_of,
    solve_master,
)
from tdmcfg.heuristics import allocated_slots, best_of_runs
from tdmcfg.ilp import find_latency_violation
from tdmcfg.mip import LpSolution, LpStatus
from tdmcfg.model import ClientRequirement, ProblemInstance, latency_witness, slot_bound_sum
from tdmcfg.serialize import load_instance
from tdmcfg.usecase import GenSpec, generate
from tdmcfg.verify import _feasible_masks, client_feasible

from conftest import brute_force_price, column_admissible

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _integral_pair_slots(pool: ColumnPool) -> int:
    """Fewest total slots over conflict-free (c1, c2) column pairs."""
    best = None
    for mask1 in pool.admissible(1, ()):
        for mask2 in pool.admissible(2, ()):
            if any(a and b for a, b in zip(mask1, mask2)):
                continue
            total = int(mask1.sum() + mask2.sum())
            if best is None or total < best:
                best = total
    assert best is not None
    return best


def seeded_pool(columns) -> ColumnPool:
    """A pool of (client id, mask) columns."""
    pool = ColumnPool()
    for client_id, mask in columns:
        pool.add(client_id, mask)
    return pool


def test_column_pool_deduplicates(golden_seed_columns):
    a11, a21 = golden_seed_columns
    pool = seeded_pool([a11, a21])
    assert not pool.add(*a11)
    assert len(pool.admissible(1, ())) == 1


def test_column_pool_deduplicates_every_form_of_a_mask_in_pool_order():
    first, second = (1, 0, 1, 0), (0, 1, 0, 1)
    pool = ColumnPool()
    assert pool.add(1, first) and pool.add(1, np.array(second, dtype=float))
    for form in (tuple, list, np.array, lambda m: np.array(m, dtype=float)):
        assert not pool.add(1, form(first)) and not pool.add(1, form(second))
    # the same mask is another column for another client
    assert pool.add(2, list(second))
    admissible = pool.admissible(1, ())
    assert admissible.dtype == float
    assert admissible.tolist() == [list(first), list(second)]
    assert pool.admissible(2, ()).tolist() == [list(second)]
    assert len(pool.admissible(3, ())) == 0


def test_column_admissible_respects_decisions(golden_seed_columns):
    a11, _ = golden_seed_columns  # client 1 holds slots 3, 4, 8, 9, 10
    pool = seeded_pool([a11])

    def admissible(decisions):
        return np.array_equal(pool.admissible(1, decisions), [a11[1]])

    assert admissible(())
    assert admissible(((1, 3, True),))
    assert not admissible(((1, 3, False),))
    assert not admissible(((1, 1, True),))
    # another client taking slot 3 forbids it for this column
    assert not admissible(((2, 3, True),))


def test_master_values_track_pool_growth(golden_instance, golden_seed_columns):
    a11, a21 = golden_seed_columns
    a22 = (2, (1, 0, 0, 0, 1, 0, 0, 1, 0, 0))
    a12 = (1, (0, 1, 1, 0, 1, 1, 0, 0, 1, 0))
    a23 = (2, (1, 0, 0, 1, 0, 0, 1, 0, 0, 0))
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
    lam, sigma = canonical_duals(master, golden_instance)
    f = golden_instance.frame_size
    # dual feasibility: every pooled column has nonnegative reduced cost
    for p, client in enumerate(golden_instance.clients):
        for mask in pool.admissible(client.id, ()):
            xi = (
                sum(lam[j] for j in np.flatnonzero(mask))
                + mask.sum() / f
                - sigma[p]
            )
            assert xi >= -1e-6
    # strong duality against the master optimum
    dual_value = -lam.sum() + sigma.sum()
    assert dual_value == pytest.approx(master.objective, abs=1e-6)


def test_canonical_duals_fall_back_to_the_simplex_duals(
    monkeypatch, golden_instance, golden_seed_columns
):
    master = solve_master(seeded_pool(golden_seed_columns), (), golden_instance)
    # the master's simplex duals are optimal too: strong duality holds
    dual_value = -master.lam.sum() + master.sigma.sum()
    assert dual_value == pytest.approx(master.objective, abs=1e-6)
    monkeypatch.setattr(colgen, "solve_lp", lambda model, deadline: LpSolution(LpStatus.TIMED_OUT))
    lam, sigma = canonical_duals(master, golden_instance)
    assert lam is master.lam and sigma is master.sigma


def test_iteration_one_reduced_costs(golden_instance, golden_seed_columns):
    pool = seeded_pool(golden_seed_columns)
    master = solve_master(pool, (), golden_instance)
    lam, sigma = canonical_duals(master, golden_instance)
    _, cost1 = price_client(golden_instance.client(1), lam, 10)
    _, cost2 = price_client(golden_instance.client(2), lam, 10)
    xi1, xi2 = cost1 - sigma[0], cost2 - sigma[1]
    assert xi1 == pytest.approx(0.0, abs=1e-6)
    assert xi2 == pytest.approx(-0.1, abs=1e-6)


def test_priced_columns_meet_requirements(golden_instance):
    for client in golden_instance.clients:
        mask, _ = price_client(client, np.zeros(10), 10)
        assert mask.sum() >= 1
        assert find_latency_violation(mask.tolist(), client, 10) is None


def test_pricing_respects_node_decisions(golden_instance):
    client = golden_instance.client(2)
    decisions = ((2, 1, False), (2, 2, False))
    mask, _ = price_client(client, np.zeros(10), 10, decisions)
    assert mask[0] == 0 and mask[1] == 0


def test_pricing_raises_on_impossible_fixings():
    req = ClientRequirement(1, "c", Fraction(9, 10), None)
    inst = ProblemInstance(10, (req,))
    # forbidding two slots leaves only 8 < 9 required
    decisions = ((1, 1, False), (1, 2, False))
    with pytest.raises(NodeInfeasibleError):
        price_client(req, np.zeros(10), 10, decisions)


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
        best = brute_force_price(client, lam, f, decisions)
        if best is None:
            infeasible += 1
            with pytest.raises(NodeInfeasibleError):
                price_client(client, lam, f, decisions, tie_break=tie_break)
            continue
        mask, cost = price_client(client, lam, f, decisions, tie_break=tie_break)
        assert cost == pytest.approx(best, abs=1e-6), (case, client, decisions)
        # an integer 0/1 mask, and its cost bitwise, free of the tie-break
        assert mask.dtype.kind == "i" and set(mask.tolist()) <= {0, 1}
        assert cost == sum(lam[mask == 1].tolist()) + mask.sum() / f
        assert mask.sum() >= rate * f
        if rate > 0:
            assert latency_witness(mask, client.effective_latency(f)) is None
        assert column_admissible(1, mask, decisions)
    assert 20 <= infeasible <= 200


def _recording_checks(monkeypatch) -> list:
    """Patch pricing's feasibility check to record every mask it checks."""
    checked = []

    def recording(mask, client, frame_size):
        checked.append(list(mask))
        return client_feasible(mask, client, frame_size)

    monkeypatch.setattr(colgen, "client_feasible", recording)
    return checked


def test_price_client_checks_each_candidate_once(monkeypatch):
    checked = _recording_checks(monkeypatch)
    # rate only: the greedy mask of the fewest slots wins, checked once
    client = ClientRequirement(1, "c", Fraction(3, 8), None)
    mask, _ = price_client(client, np.zeros(8), 8)
    assert checked == [mask.tolist()] == [[1, 1, 1, 0, 0, 0, 0, 0]]
    # latency 1 at rate 1/2: the greedy mask (slots 1-4) fails, and the
    # LP's vertex, which wins, is checked where it is made
    checked.clear()
    client = ClientRequirement(1, "c", Fraction(1, 2), Fraction(1))
    mask, _ = price_client(client, np.zeros(8), 8)
    assert checked == [[1, 1, 1, 1, 0, 0, 0, 0], mask.tolist()]


def test_price_client_refuses_an_infeasible_lp_vertex(monkeypatch):
    # the greedy mask (slots 1-4) breaks latency 1, so the LP runs; a vertex
    # that holds the same slots breaks it too and must not be returned
    client = ClientRequirement(1, "c", Fraction(1, 2), Fraction(1))
    prefix = np.cumsum([0, 1, 1, 1, 1, 0, 0, 0, 0]).astype(float)
    monkeypatch.setattr(
        colgen, "solve_lp", lambda model, deadline: LpSolution(LpStatus.OPTIMAL, prefix)
    )
    with pytest.raises(RuntimeError, match="infeasible mask"):
        price_client(client, np.zeros(8), 8)


def test_fewest_slot_masks_match_brute_force():
    # t_c is the fewest slots of any feasible mask, and every rotation of
    # the mask is feasible, because latency windows are cyclic
    rng = random.Random(25)
    for case in range(60):
        f = rng.randint(3, 12)
        rate = Fraction(rng.randint(0, f), rng.choice([f, 2 * f]))
        latency = None if case % 4 == 0 else Fraction(rng.randint(0, 3 * f), rng.choice([1, 2, 3]))
        client = ClientRequirement(1, "c", rate, latency)
        instance = ProblemInstance(f, (client,))
        (mask,) = fewest_slot_masks(instance)
        assert mask.sum() == _feasible_masks(client, f)[0].bit_count(), client
        assert mask.sum() >= slot_bound_sum(instance)
        for k in range(f):
            assert client_feasible(np.roll(mask, k), client, f).feasible, (client, k)


def test_fewest_slot_masks_obey_the_deadline():
    instance = generate(GenSpec.default("LD", 8, seed=2))
    with pytest.raises(colgen.LpTimeoutError):
        fewest_slot_masks(instance, deadline=0.0)


def test_column_generation_reaches_integral_optimum(
    golden_instance, golden_seed_columns, monkeypatch
):
    priced = []  # per call: (client id, cost, least cost of any feasible mask)
    sigmas = []  # per iteration: the client prices pricing ran under

    def recording_price_client(client, lam, frame_size, decisions=(), **kwargs):
        mask, cost = price_client(client, lam, frame_size, decisions, **kwargs)
        priced.append((client.id, cost, brute_force_price(client, lam, frame_size)))
        return mask, cost

    def recording_duals(*args, **kwargs):
        lam, sigma = canonical_duals(*args, **kwargs)
        sigmas.append(sigma)
        return lam, sigma

    monkeypatch.setattr(colgen, "price_client", recording_price_client)
    monkeypatch.setattr(colgen, "canonical_duals", recording_duals)
    pool = seeded_pool(golden_seed_columns)
    trace = []
    res = column_generation(pool, (), golden_instance, trace)
    assert res.status == "optimal"
    assert res.lower_bound == pytest.approx(0.8, abs=1e-9)
    # the pool holds a conflict-free integral pair achieving the optimum
    assert _integral_pair_slots(pool) == 8
    # every priced column has the least reduced cost of any feasible mask,
    # and the loop's reduced cost is its cost less its client's price
    assert len(priced) == 2 * len(trace) == 2 * len(sigmas)
    for k, (client_id, cost, best) in enumerate(priced):
        assert cost == pytest.approx(best, abs=1e-9)
        (_, _, xi), sigma = trace[k // 2], sigmas[k // 2]
        assert xi[client_id] == cost - sigma[client_id - 1]
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
        (c.id, schedule.mask(c.id)) for schedule in found for c in instance.clients
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
        columns = [(c.id, s.mask(c.id)) for s in found for c in instance.clients]
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
    pool.add(1, (1, 1, 1, 1, 1, 0, 0, 0, 0, 0))
    pool.add(2, (0, 0, 0, 0, 0, 1, 1, 1, 0, 0))
    decisions = ((1, 1, False),)  # the only c1 column uses slot 1
    with pytest.raises(NodeInfeasibleError):
        solve_master(pool, decisions, golden_instance)


def test_master_holds_only_admissible_columns(golden_instance, golden_seed_columns):
    a11, a21 = golden_seed_columns
    a12 = (1, (0, 1, 1, 0, 1, 1, 0, 0, 1, 0))
    pool = seeded_pool([a11, a21, a12])
    decisions = ((1, 2, False),)  # a12 holds slot 2
    master = solve_master(pool, decisions, golden_instance)
    model = build_master(master.masks, master.owner, golden_instance)
    admissible = np.vstack([
        pool.admissible(c.id, decisions) for c in golden_instance.clients
    ])
    assert np.array_equal(master.masks, admissible)
    assert np.array_equal(admissible, [a11[1], a21[1]])
    assert master.owner.tolist() == [0, 1]
    assert len(model.c) == len(admissible) + golden_instance.frame_size


def _price_fresh(*args, **kwargs):
    """``price_client`` with every sub-model built anew, outside the memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colgen, "_PRICING_MEMO", weakref.WeakKeyDictionary())
        return price_client(*args, **kwargs)


def _memo_keys(clients) -> set:
    """The (client, f, t) the memo holds for the given clients."""
    return {
        (client, f, t)
        for client in clients
        for f, memo in colgen._PRICING_MEMO.get(client, {}).items()
        for t in memo.models
    }


def test_shared_sub_models_price_like_fresh_ones(monkeypatch):
    # the memo over many clients, prices and decision sets: every answer is
    # bitwise the answer priced from freshly built sub-models, the memo
    # holds one sub-model per (client, f, t) whatever decisions it was
    # priced under, and pricing leaves a cached model as it was built
    from conftest import random_instance

    monkeypatch.setattr(colgen, "_PRICING_MEMO", weakref.WeakKeyDictionary())
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
            lam = np.array([rng.choice([0.0, rng.random()]) for _ in range(f)])
            tie_break = np.array([rng.random() for _ in range(f)])
            for client in instance.clients:
                for decisions in decision_sets:
                    answers = []
                    for pricing in (price_client, _price_fresh):
                        shared_run[0] = pricing is price_client
                        try:
                            answers.append(pricing(
                                client, lam, f, decisions, tie_break=tie_break,
                            ))
                        except NodeInfeasibleError:
                            answers.append(None)
                    shared, fresh = answers
                    assert (shared is None) == (fresh is None)
                    if shared is not None:
                        priced += 1
                        assert np.array_equal(shared[0], fresh[0])
                        assert shared[1] == fresh[1]  # bitwise
    memo = _memo_keys(clients)
    assert priced > 100 and len(built) == len(set(built)) == len(memo) > 10
    assert set(built) == memo
    cached = {(c, f, t): colgen._PRICING_MEMO[c][f].models[t] for c, f, t in memo}
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
    monkeypatch.setattr(colgen, "_PRICING_MEMO", weakref.WeakKeyDictionary())
    client = ClientRequirement(1, "c1", Fraction(1, 4), Fraction(3))
    lps = []
    solve = colgen.solve_lp
    monkeypatch.setattr(colgen, "solve_lp", lambda m, **kw: lps.append(m) or solve(m, **kw))
    rng = np.random.default_rng(3)
    for f in (8, 12, 8, 12):
        for decisions in ((), ((1, 2, True),), ((1, 1, False), (2, 5, True))):
            lam = rng.uniform(0.0, 1.0, f)
            shared = price_client(client, lam, f, decisions)
            fresh = _price_fresh(client, lam, f, decisions)
            assert np.array_equal(shared[0], fresh[0]) and shared[1] == fresh[1]
    assert lps  # the cheapest slots alone break the latency bound
    assert {f for _, f, _ in _memo_keys([client])} == {8, 12}
    for _, f, t in _memo_keys([client]):
        assert len(colgen._PRICING_MEMO[client][f].models[t].c) == f + 1


def test_price_client_looks_up_its_memo_once_per_call(monkeypatch):
    # one memo lookup per call gives the slot lower bound and the
    # sub-models; the bound is computed once per (client, f)
    class CountingMemo(weakref.WeakKeyDictionary):
        lookups = 0

        def setdefault(self, key, default=None):
            CountingMemo.lookups += 1
            return super().setdefault(key, default)

        def get(self, key, default=None):
            CountingMemo.lookups += 1
            return super().get(key, default)

        def __getitem__(self, key):
            CountingMemo.lookups += 1
            return super().__getitem__(key)

    monkeypatch.setattr(colgen, "_PRICING_MEMO", CountingMemo())
    bounds = []
    lower_bound = colgen.slot_lower_bound
    monkeypatch.setattr(
        colgen, "slot_lower_bound", lambda c, f: bounds.append((c.id, f)) or lower_bound(c, f)
    )
    lps = []
    solve = colgen.solve_lp
    monkeypatch.setattr(colgen, "solve_lp", lambda m, **kw: lps.append(m) or solve(m, **kw))
    rng = np.random.default_rng(5)
    clients = [
        ClientRequirement(1, "c1", Fraction(1, 4), Fraction(3)),
        ClientRequirement(2, "c2", Fraction(1, 3), Fraction(2)),
    ]
    calls = 0
    for f in (12, 8, 12):
        for client in clients:
            for decisions in ((), ((client.id, 2, True),)):
                price_client(client, rng.uniform(0.0, 1.0, f), f, decisions)
                calls += 1
    assert lps  # the sub-models were reached too
    assert CountingMemo.lookups == calls
    assert sorted(bounds) == [(1, 8), (1, 12), (2, 8), (2, 12)]
