"""Branch-and-price driver: branching, completion, warm start, bounds."""

import dataclasses
import gc
import math
import random
import time
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tdmcfg
from tdmcfg import bnp, colgen, heuristics, mip
from tdmcfg.bnp import (
    BnpConfig,
    BnpNode,
    MAX_PROBABILITY,
    SEQUENTIAL,
    branch_max_probability,
    branch_sequential,
    default_completion_thresholds,
    solve_bnp,
)
from tdmcfg.colgen import ColGenResult, MasterSolution
from tdmcfg.ilp import solve_direct
from tdmcfg.mip import MipStatus
from tdmcfg.model import ClientRequirement, ProblemInstance, slot_bound_sum
from tdmcfg.serialize import load_instance
from tdmcfg.usecase import GenSpec, generate
from tdmcfg.verify import brute_force_optimum, schedule_feasible

from conftest import formula_slots, random_instance

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "bnp-tree"


def test_node_child_extends_decisions():
    root = BnpNode(())
    child = root.child(1, 3, True)
    assert child.decisions == ((1, 3, True),)
    assert BnpNode((), 0.5).child(1, 3, True).local_bound == 0.5


def test_branch_sequential_forbid_first(golden_instance):
    node = BnpNode(())
    first, second = branch_sequential(node, golden_instance)
    # same (client, slot) pair, Forbid explored before Allocate
    assert first.decisions[-1][:2] == second.decisions[-1][:2]
    assert first.decisions[-1][2] is False
    assert second.decisions[-1][2] is True


def test_branch_max_probability_reads_the_master_weights():
    # client 2 has the tighter latency, so it comes first in theta order
    inst = ProblemInstance(4, (
        ClientRequirement(1, "a", Fraction(1, 4)),
        ClientRequirement(2, "b", Fraction(1, 4), Fraction(1)),
    ))

    def branch(decisions, weighted):
        """(client, slot, allocate) of both children, for a master built by
        hand from (client id, mask, weight), client-major."""
        master = MasterSolution(
            np.array([mask for _, mask, _ in weighted], dtype=float),
            np.array([c - 1 for c, _, _ in weighted]),
            np.array([w for _, _, w in weighted]),
            np.zeros(4), 0.0, np.zeros(4), np.zeros(2),
        )
        children = branch_max_probability(BnpNode(decisions), master, inst)
        return [child.decisions[-1] for child in children]

    # the highest-weight slot of the first client in theta order, Allocate first
    assert branch((), [
        (1, (1, 0, 0, 0), 1.0), (2, (0, 1, 0, 1), 0.25), (2, (0, 0, 1, 1), 0.75),
    ]) == [(2, 4, True), (2, 4, False)]
    # a tie keeps the leftmost undecided slot
    ties = [(1, (1, 0, 0, 0), 1.0), (2, (1, 0, 1, 0), 0.5), (2, (0, 1, 0, 1), 0.5)]
    assert branch((), ties) == [(2, 1, True), (2, 1, False)]
    assert branch(((2, 1, False),), ties) == [(2, 2, True), (2, 2, False)]
    # client 2's free slots 3 and 4 carry no weight: client 1 is next
    held = ((2, 1, True), (2, 2, True))
    assert branch(held, [
        (1, (0, 0, 1, 1), 1.0), (2, (1, 1, 0, 0), 1.0),
    ]) == [(1, 3, True), (1, 3, False)]
    # no free slot carries weight: reversed sequential order
    assert branch(held, [
        (1, (0, 0, 1, 1), 0.0), (2, (1, 1, 0, 0), 1.0),
    ]) == [(2, 3, True), (2, 3, False)]


def test_completion_thresholds_interpolate():
    pos8, neg8 = default_completion_thresholds(8)
    assert pos8 == pytest.approx(0.10)
    assert neg8 == pytest.approx(0.40)
    pos12, _ = default_completion_thresholds(12)
    assert 0.10 < pos12 < 0.30
    pos_big, _ = default_completion_thresholds(1000)
    assert pos_big == pytest.approx(0.95)


@pytest.mark.parametrize("branching", [SEQUENTIAL, MAX_PROBABILITY])
def test_solve_bnp_golden_optimum(golden_instance, branching):
    schedule, status, objective, bound, stats = solve_bnp(
        golden_instance, BnpConfig(branching=branching, seed=0, time_limit=60)
    )
    assert status == MipStatus.OPTIMAL
    assert objective == Fraction(4, 5)
    assert bound == pytest.approx(0.8)
    assert schedule_feasible(schedule, golden_instance).feasible


def test_solve_bnp_infeasible_instance():
    clients = tuple(
        ClientRequirement(i, f"c{i}", Fraction(1, 2), None) for i in (1, 2, 3)
    )
    inst = ProblemInstance(4, clients)
    schedule, status, objective, bound, _ = solve_bnp(inst, BnpConfig(seed=0))
    assert status == MipStatus.INFEASIBLE
    assert schedule is None
    assert math.isinf(bound)


def test_solve_bnp_matches_brute_force_on_small_instances():
    rng = random.Random(21)
    for _ in range(8):
        inst = random_instance(rng, max_frame=8)
        _, bf_obj = brute_force_optimum(inst)
        schedule, status, objective, _, _ = solve_bnp(
            inst, BnpConfig(seed=0, time_limit=60)
        )
        if bf_obj is None:
            assert status == MipStatus.INFEASIBLE
        else:
            assert status == MipStatus.OPTIMAL
            assert objective == bf_obj


def _formula_sum(instance: ProblemInstance) -> int:
    return sum(formula_slots(c, instance.frame_size) for c in instance.clients)


def test_exact_floor_ends_the_solve_before_the_root(monkeypatch):
    # LD n = 8 seed 2: each client's fewest slots sum to 67 > 64, so no
    # schedule exists, and neither the heuristic, the root nor the ILP is
    # tried: no HiGHS run at all, in branch and price and in the ILP
    instance = generate(GenSpec.default("LD", 8, seed=2))
    assert sum(mask.sum() for mask in colgen.fewest_slot_masks(instance)) == 67
    assert slot_bound_sum(instance) == 67
    assert _formula_sum(instance) == 60

    def no_highs(highs, deadline):
        raise AssertionError("HiGHS ran")

    with monkeypatch.context() as patch:
        patch.setattr(mip, "linprog", no_highs)
        schedule, status, _, bound, stats = solve_bnp(instance)
        assert (schedule, status, bound) == (None, MipStatus.INFEASIBLE, math.inf)
        assert (stats.nodes_opened, stats.completions) == (0, 0)
        assert solve_direct(instance) == (None, MipStatus.INFEASIBLE, None, math.inf)
    # MD n = 8 seeds 2 and 4: run 1 meets the floor, one slot above the
    # paper's formula, so its schedule is optimal with no node opened
    for seed, slots in ((2, 52), (4, 51)):
        instance = generate(GenSpec.default("MD", 8, seed=seed))
        schedule, status, objective, bound, stats = solve_bnp(instance)
        assert (status, objective) == (MipStatus.OPTIMAL, Fraction(slots, 64))
        assert slot_bound_sum(instance) == slots
        assert _formula_sum(instance) == slots - 1
        assert (stats.nodes_opened, stats.completions) == (0, 0)
        assert schedule_feasible(schedule, instance).feasible


def test_root_bound_lies_between_the_floor_and_the_optimum():
    # the root starts from every rotation of each client's fewest-slot mask
    for path in sorted(CORPUS.glob("*.json")):
        instance = load_instance(path)
        f = instance.frame_size
        floor = sum(mask.sum() for mask in colgen.fewest_slot_masks(instance))
        _, optimum = brute_force_optimum(instance, budget=10**9)
        _, status, objective, _, stats = solve_bnp(instance)
        assert (status, objective) == (MipStatus.OPTIMAL, optimum), path.name
        root = stats.node_log[0][0]
        assert floor / f - 1e-9 <= root <= optimum + 1e-9, path.name


def test_solve_bnp_time_limit_returns_promptly(golden_instance):
    t0 = time.monotonic()
    _, status, _, _, _ = solve_bnp(
        golden_instance, BnpConfig(seed=0, time_limit=0.01)
    )
    assert time.monotonic() - t0 < 30
    assert status in (
        MipStatus.OPTIMAL,
        MipStatus.FEASIBLE,
        MipStatus.TIMED_OUT,
    )


@pytest.mark.parametrize("case", ["worked example", "hd-video"])
def test_zero_time_limit_reports_the_slot_bound_sum(golden_instance, case):
    # the deadline passes before the root opens; the root still bounds the answer
    instance, slots = (
        (golden_instance, 8) if case == "worked example"
        else (load_instance(Path(tdmcfg.__file__).parent / "data" / "hd-video.json"), 59)
    )
    schedule, status, objective, bound, _ = solve_bnp(instance, BnpConfig(time_limit=0))
    assert (schedule, status, objective) == (None, MipStatus.TIMED_OUT, None)
    assert bound == slots / instance.frame_size


def test_warm_start_stops_at_slot_bound_sum(monkeypatch):
    # the first heuristic run on the case study already allocates the sum
    # of the slot lower bounds (59 of 64), so no later run can do better
    instance = load_instance(Path(tdmcfg.__file__).parent / "data" / "hd-video.json")
    runs = []
    generative = heuristics.generative
    monkeypatch.setattr(
        heuristics, "generative", lambda *a, **k: runs.append(1) or generative(*a, **k)
    )
    schedule, status, objective, _, _ = solve_bnp(instance, BnpConfig(seed=0))
    assert len(runs) == 1
    assert (status, objective) == (MipStatus.OPTIMAL, Fraction(59, 64))
    assert schedule_feasible(schedule, instance).feasible


def _counting_runs(monkeypatch) -> list:
    """Patch the generative heuristic to record each run's slot count (None: failed)."""
    runs = []
    generative = heuristics.generative

    def counting(*args, **kwargs):
        schedule, status = generative(*args, **kwargs)
        runs.append(None if schedule is None else heuristics.allocated_slots(schedule))
        return schedule, status

    monkeypatch.setattr(heuristics, "generative", counting)
    return runs


def test_root_bound_ends_the_warm_start(monkeypatch):
    # bnp-tree's ld3-s21: run 1 finds 10 of 12 slots, one above the
    # slot-bound sum; the root's bound, 28/3 slots, rounds up to 10, so the
    # root is pruned and no other run is made
    runs = _counting_runs(monkeypatch)
    instance = load_instance(CORPUS / "ld3-s21.json")
    schedule, status, objective, bound, stats = solve_bnp(instance)
    assert (status, objective, bound) == (MipStatus.OPTIMAL, Fraction(10, 12), 10 / 12)
    assert runs == [10]
    assert (stats.nodes_opened, stats.nodes_pruned, stats.completions) == (1, 1, 0)
    assert schedule_feasible(schedule, instance).feasible


def test_warm_start_resumes_when_the_root_leaves_a_gap(monkeypatch):
    # bnp-tree's ld4-s19: run 1 fails, so the root is solved with no
    # incumbent; its bound, 34/3 slots, leaves a gap below 12 (of 12).  Run
    # 2 finds 12, which meets the root's bound rounded up, so the solve ends
    # with no ILP slice and no other node
    runs = _counting_runs(monkeypatch)
    instance = load_instance(CORPUS / "ld4-s19.json")
    schedule, status, objective, bound, stats = solve_bnp(instance)
    assert (status, objective, bound) == (MipStatus.OPTIMAL, Fraction(1), 1.0)
    assert runs == [None, 12]
    assert (stats.nodes_opened, stats.completions) == (1, 0)
    assert stats.heuristic_feasible
    assert schedule_feasible(schedule, instance).feasible


def test_failed_warm_start_of_many_runs_leaves_the_root_to_the_tree(monkeypatch):
    # bnp-tree's ld4-s7 is not all bandwidth-dominated, so its warm start
    # has eight runs; with every run failing, the tree closes it and the
    # monolithic ILP never gets the whole, undecided instance
    monkeypatch.setattr(heuristics, "generative", lambda *a, **k: (None, heuristics.NO_FEASIBLE))
    completed = []
    complete = bnp.complete_with_ilp

    def recording(node, *args, **kwargs):
        completed.append(node.decisions)
        return complete(node, *args, **kwargs)

    monkeypatch.setattr(bnp, "complete_with_ilp", recording)
    instance = load_instance(CORPUS / "ld4-s7.json")
    schedule, status, objective, bound, stats = solve_bnp(instance, BnpConfig(time_limit=60))
    assert (status, objective, bound) == (MipStatus.OPTIMAL, Fraction(1), 1.0)
    assert schedule_feasible(schedule, instance).feasible
    assert not stats.heuristic_feasible and stats.nodes_opened > 1
    assert () not in completed


@pytest.mark.parametrize("limit", [math.nan, -1.0, -math.inf])
def test_bad_time_limits_are_refused(limit):
    with pytest.raises(ValueError, match="at least 0"):
        BnpConfig(time_limit=limit)
    # no limit, no time left and an infinite limit are all limits
    for allowed in (None, 0, math.inf):
        assert BnpConfig(time_limit=allowed).time_limit == allowed


@pytest.mark.parametrize("rule", ["auto", "sequentail", ""])
def test_unknown_branching_rules_are_refused(rule):
    with pytest.raises(ValueError, match="branching must be one of"):
        BnpConfig(branching=rule)


@pytest.mark.parametrize("name", ["ld4-s7", "ld4-s10"])
def test_default_branching_opens_fewer_nodes_than_sequential(name):
    # the same optimum either way; max_probability, the default, closes
    # these two in fewer nodes (3 against 9 when measured)
    assert BnpConfig().branching == MAX_PROBABILITY
    instance = load_instance(CORPUS / f"{name}.json")
    configs = [BnpConfig(time_limit=60), BnpConfig(MAX_PROBABILITY, 60), BnpConfig(SEQUENTIAL, 60)]
    answers, nodes = [], []
    for config in configs:
        schedule, status, objective, bound, stats = solve_bnp(instance, config)
        assert schedule_feasible(schedule, instance).feasible
        answers.append((status, objective, bound))
        nodes.append(stats.nodes_opened)
    assert answers == [(MipStatus.OPTIMAL, Fraction(1), 1.0)] * 3
    default, max_probability, sequential = nodes
    assert default == max_probability < sequential


def test_solve_bnp_seed_pricing_obeys_time_limit():
    # seeding columns on this latency-dominated instance takes far longer
    # than the limit; the search must stop there, not finish seeding
    instance = generate(GenSpec.default("LD", 8, seed=0))
    t0 = time.monotonic()
    schedule, status, _, _, _ = solve_bnp(instance, BnpConfig(time_limit=5))
    assert time.monotonic() - t0 < 5 + 3
    assert status in (MipStatus.TIMED_OUT, MipStatus.FEASIBLE)
    if schedule is not None:
        assert schedule_feasible(schedule, instance).feasible


@pytest.mark.parametrize("klass, seed, runs", [
    ("MD", 10, None), ("LD", 1, None), ("MD", 1, 1), ("LD", 1, 1),
], ids=["MD8-s10", "LD8-s1", "MD8-s1-one-run", "LD8-s1-one-run"])
def test_solve_bnp_root_completion_lp_obeys_time_limit(klass, seed, runs):
    # the heuristic fails here.  With one warm-start run the root ILP slice
    # runs HiGHS LPs on the whole instance for a third of the time left; by
    # default (eight runs) no root slice runs, and the root node, the other
    # runs and the tree take the time until the deadline
    instance = generate(GenSpec.default(klass, 8, seed=seed))
    t0 = time.monotonic()
    schedule, status, _, _, _ = solve_bnp(
        instance, BnpConfig(time_limit=5, heuristic_runs=runs)
    )
    assert time.monotonic() - t0 < 5.75
    assert status in (MipStatus.TIMED_OUT, MipStatus.FEASIBLE)
    if schedule is not None:
        assert schedule_feasible(schedule, instance).feasible


# MD seed 0: heuristic runs 0-3 stop at 58 slots (about 1.7 s in all)
# and the tree does not close 58 against the bound of 57 within a minute;
# the warm start's third of a 15 s limit reaches run 4, which finds 57,
# even on a machine three times slower (a 5 s limit rarely does)
@pytest.mark.parametrize("klass, seed, optimum, limit", [
    ("MD", 0, Fraction(57, 64), 15),
    ("BD", 2, Fraction(1), 5),
], ids=["MD8-s0", "BD8-s2"])
def test_solve_bnp_proves_optimum_within_time_limit(klass, seed, optimum, limit):
    instance = generate(GenSpec.default(klass, 8, seed=seed))
    t0 = time.monotonic()
    schedule, status, objective, bound, _ = solve_bnp(instance, BnpConfig(time_limit=limit))
    assert time.monotonic() - t0 < limit + 0.75
    assert status == MipStatus.OPTIMAL
    assert objective == optimum
    assert bound == pytest.approx(float(optimum))
    assert schedule_feasible(schedule, instance).feasible


def _tree_search_only(monkeypatch) -> BnpConfig:
    """No heuristic incumbent and no ILP completion: the tree alone decides."""
    monkeypatch.setattr(
        bnp, "complete_with_ilp",
        lambda node, instance, deadline=math.inf: (None, MipStatus.TIMED_OUT),
    )
    monkeypatch.setattr(bnp, "default_completion_thresholds", lambda n: (2.0, 100.0))
    return BnpConfig(seed=0, heuristic_runs=0)


def test_root_ilp_slice_closes_bd8_seed3():
    # with no heuristic run, the ILP's root slice closes this instance before
    # any node is opened; the tree alone takes about 15 s and 59 nodes
    instance = generate(GenSpec.default("BD", 8, seed=3))
    schedule, status, objective, _, stats = solve_bnp(
        instance, BnpConfig(time_limit=30, heuristic_runs=0)
    )
    assert (status, objective) == (MipStatus.OPTIMAL, Fraction(7, 8))
    assert (stats.completions, stats.nodes_opened) == (1, 0)
    assert schedule_feasible(schedule, instance).feasible


@pytest.mark.parametrize("where", ["column_generation", "completion"])
@pytest.mark.parametrize("node_bound, reported", [(0.45, 0.5), (0.55, 0.5)])
def test_timed_out_node_stays_open_with_its_bound(
    golden_instance, monkeypatch, where, node_bound, reported
):
    # the root bounds at 0.5 and branches; at the second node column
    # generation (or the ILP completion after it) runs out of time.  The
    # root's other child (bound 0.5) and that node stay open, and the least
    # of their bounds is reported.  That node keeps the root's 0.5 when its
    # own run proves less
    # the faked results hold no master, which only max_probability reads
    config = dataclasses.replace(_tree_search_only(monkeypatch), branching=SEQUENTIAL)
    second = "timed_out" if where == "column_generation" else "lagrangian_stop"
    results = iter([
        ColGenResult(None, 0.5, "lagrangian_stop", 1, 0),
        ColGenResult(None, node_bound, second, 1, 0),
    ])
    monkeypatch.setattr(bnp, "column_generation", lambda *args, **kwargs: next(results))
    if where == "completion":
        # the root holds one Allocate decision, the second node one Forbid more
        monkeypatch.setattr(bnp, "default_completion_thresholds", lambda n: (2.0, 0.1))
    schedule, status, objective, bound, stats = solve_bnp(golden_instance, config)
    assert (schedule, status, objective) == (None, MipStatus.TIMED_OUT, None)
    assert bound == reported
    assert stats.nodes_opened == 2
    assert stats.completions == (1 if where == "column_generation" else 2)


def test_completion_that_ends_feasible_keeps_its_node_open(golden_instance, monkeypatch):
    # every completion runs out of time holding the optimum (8 of 10 slots)
    # and every node bounds at 0.5: the node that completes goes back on
    # the stack, so the answer is FEASIBLE at bound 0.5, not OPTIMAL
    # the faked results hold no master, which only max_probability reads
    config = dataclasses.replace(_tree_search_only(monkeypatch), branching=SEQUENTIAL)
    optimum, _ = brute_force_optimum(golden_instance)
    monkeypatch.setattr(
        bnp, "complete_with_ilp",
        lambda node, instance, deadline=math.inf: (optimum, MipStatus.FEASIBLE),
    )
    monkeypatch.setattr(
        bnp, "column_generation",
        lambda *args, **kwargs: ColGenResult(None, 0.5, "lagrangian_stop", 1, 0),
    )
    # the root holds one Allocate decision, the second node one Forbid more
    monkeypatch.setattr(bnp, "default_completion_thresholds", lambda n: (2.0, 0.1))
    schedule, status, objective, bound, stats = solve_bnp(golden_instance, config)
    assert (status, objective, bound) == (MipStatus.FEASIBLE, Fraction(4, 5), 0.5)
    assert schedule == optimum
    # the root's ILP slice and the second node's completion
    assert (stats.nodes_opened, stats.completions) == (2, 2)


def test_solve_bnp_prunes_infeasible_nodes_without_incumbent(monkeypatch):
    config = _tree_search_only(monkeypatch)
    # latency 1 at the rate of its own slots takes 6 of the 7 slots for
    # c2, leaving 1 for c1, which needs 3; the slot bounds (3 + 4) do not
    # show it
    instance = ProblemInstance(7, (
        ClientRequirement(1, "c1", Fraction(3, 7), None),
        ClientRequirement(2, "c2", Fraction(2, 7), Fraction(1)),
    ))
    assert brute_force_optimum(instance) == (None, None)
    schedule, status, _, bound, stats = solve_bnp(instance, config)
    assert status == MipStatus.INFEASIBLE and schedule is None
    assert math.isinf(bound)
    # the exact floor (3 + 6 slots) shows it before the root opens
    assert (stats.nodes_opened, stats.nodes_pruned) == (0, 0)
    # here the floor (1 + 3 + 2) fills the frame, but c2 holds every other
    # slot, and no two of the other three meet c3's latency
    instance = ProblemInstance(6, (
        ClientRequirement(1, "c1", Fraction(1, 6), None),
        ClientRequirement(2, "c2", Fraction(1, 2), Fraction(1)),
        ClientRequirement(3, "c3", Fraction(1, 3), Fraction(5, 2)),
    ))
    assert brute_force_optimum(instance) == (None, None)
    schedule, status, _, bound, stats = solve_bnp(instance, config)
    assert status == MipStatus.INFEASIBLE and schedule is None
    assert math.isinf(bound)
    # the root bound needs more than f slots: pruned, never branched on
    assert (stats.nodes_opened, stats.nodes_pruned) == (1, 1)
    rng = random.Random(5)
    for _ in range(12):
        instance = random_instance(rng, max_frame=8)
        _, bf_obj = brute_force_optimum(instance)
        _, status, objective, _, _ = solve_bnp(instance, config)
        if bf_obj is None:
            assert status == MipStatus.INFEASIBLE, instance
        else:
            assert (status, objective) == (MipStatus.OPTIMAL, bf_obj), instance


def test_integral_master_failing_verification_raises(golden_instance, monkeypatch):
    # with no incumbent, the root master of the worked example is integral
    # and conflict-free
    config = _tree_search_only(monkeypatch)
    monkeypatch.setattr(
        bnp, "schedule_feasible", lambda schedule, inst: SimpleNamespace(feasible=False)
    )
    with pytest.raises(RuntimeError, match="integral master at node"):
        solve_bnp(golden_instance, config)


def test_solve_bnp_stats_are_populated(golden_instance):
    _, status, _, _, stats = solve_bnp(golden_instance, BnpConfig(seed=0))
    assert status == MipStatus.OPTIMAL
    d = stats.as_dict()
    assert "nodes_opened" in d and "columns_generated" in d
    # the heuristic's schedule is the answer, and it counts as an update
    assert d["heuristic_feasible"] and d["nodes_opened"] == 0
    assert d["incumbent_updates"] == 1
    for lb, estimates in stats.node_log:
        for est in estimates:
            assert est <= lb + 1e-9


def test_repeated_solves_in_one_process_agree(monkeypatch):
    # pricing keeps its sub-models between solves but never changes them,
    # and the LP handle is reset per model: a solve from built sub-models,
    # with another instance solved in between, gives the first answer again
    monkeypatch.setattr(colgen, "_PRICING_MEMO", weakref.WeakKeyDictionary())
    ld = load_instance(CORPUS / "ld4-s7.json")
    hd_video = load_instance(Path(tdmcfg.__file__).parent / "data" / "hd-video.json")
    first, _, again = [solve_bnp(instance) for instance in (ld, hd_video, ld)]
    assert first[4].nodes_opened > 0  # the tree is searched, not just the heuristic
    assert first[:4] == again[:4]
    assert first[4].as_dict() == again[4].as_dict()
    assert first[4].node_log == again[4].node_log


def test_sub_models_live_as_long_as_their_clients(monkeypatch):
    # a second solve of the same instance builds no sub-model, and once the
    # instance is gone its clients' sub-models leave the memo
    monkeypatch.setattr(colgen, "_PRICING_MEMO", weakref.WeakKeyDictionary())
    builds = [0]
    build = colgen.build_sub_model

    def counting_build(*args):
        builds[0] += 1
        return build(*args)

    monkeypatch.setattr(colgen, "build_sub_model", counting_build)
    instance = load_instance(CORPUS / "ld4-s7.json")
    solve_bnp(instance)
    first = builds[0]
    assert first > 0 and len(colgen._PRICING_MEMO) > 0
    solve_bnp(instance)
    assert builds[0] == first
    gone = weakref.ref(instance)
    del instance
    gc.collect()
    assert gone() is None and len(colgen._PRICING_MEMO) == 0
