"""Core model: service curves, exact latency, bounds, dominance."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tdmcfg.colgen import ColumnPool
from tdmcfg.ilp import FixingConflictError, build_ilp

from tdmcfg.model import (
    ClientRequirement,
    DominanceClass,
    LatencyUndefinedError,
    ProblemInstance,
    Schedule,
    UnknownClientError,
    allocated_rate,
    dominance_class,
    late_windows,
    latency_witness,
    mask_bounds,
    mask_service_latency,
    service_latency,
    slot_lower_bound,
)
from tdmcfg.verify import Violation, client_feasible

from conftest import (
    LrCharacterization,
    ServiceCurve,
    check_fixings,
    column_admissible,
    free_pairs,
    lr_characterization,
    random_mask,
    wc_finishing_times,
)


def test_client_requirement_validation():
    with pytest.raises(ValueError):
        ClientRequirement(1, "bad", Fraction(-1, 2), None)
    with pytest.raises(ValueError):
        ClientRequirement(1, "bad", Fraction(3, 2), None)
    with pytest.raises(ValueError):
        ClientRequirement(1, "bad", Fraction(1, 2), Fraction(-1))


def test_effective_latency_defaults_to_frame_minus_one():
    req = ClientRequirement(1, "c", Fraction(1, 4), None)
    assert req.effective_latency(8) == Fraction(7)
    req2 = ClientRequirement(1, "c", Fraction(1, 4), Fraction(5, 2))
    assert req2.effective_latency(8) == Fraction(5, 2)


def test_instance_rejects_duplicate_ids():
    c = ClientRequirement(1, "a", Fraction(1, 4), None)
    d = ClientRequirement(1, "b", Fraction(1, 4), None)
    with pytest.raises(ValueError):
        ProblemInstance(8, (c, d))


def test_schedule_from_masks_rejects_overlap():
    with pytest.raises(ValueError):
        Schedule.from_masks(4, {1: (1, 1, 0, 0), 2: (0, 1, 0, 0)})


def test_service_curve_cyclic_window():
    curve = ServiceCurve((1, 0, 0, 1))
    assert curve.total == 2
    assert curve.value(1, 1) == 1
    assert curve.value(2, 2) == 0
    assert curve.value(4, 2) == 2  # wraps to slot 1
    assert curve.min_over_starts(2) == 0
    assert curve.min_over_starts(4) == 2


def test_mask_latency_known_values():
    # evenly spread: two slots in f=4 give latency 1
    assert mask_service_latency((1, 0, 1, 0)) == Fraction(1)
    # contiguous block: the empty stretch dominates
    assert mask_service_latency((1, 1, 0, 0)) == Fraction(2)
    # full frame: zero latency
    assert mask_service_latency((1, 1, 1, 1)) == Fraction(0)


def test_mask_latency_exceeds_largest_gap():
    # {1, 5, 6} in f=10: largest empty gap is 4 but latency is 14/3
    mask = [0] * 10
    for s in (1, 5, 6):
        mask[s - 1] = 1
    assert mask_service_latency(mask) == Fraction(14, 3)


def test_mask_latency_undefined_for_empty():
    with pytest.raises(LatencyUndefinedError):
        mask_service_latency((0, 0, 0, 0))


def test_latency_rotation_invariant():
    rng = random.Random(5)
    for _ in range(50):
        f = rng.randint(3, 12)
        mask = list(random_mask(rng, f))
        base = mask_service_latency(mask)
        shift = rng.randrange(f)
        rotated = mask[shift:] + mask[:shift]
        assert mask_service_latency(rotated) == base


def test_latency_satisfies_service_bound_everywhere():
    rng = random.Random(6)
    for _ in range(50):
        f = rng.randint(3, 12)
        mask = random_mask(rng, f)
        theta = mask_service_latency(mask)
        phi = sum(mask)
        curve = ServiceCurve(mask)
        for j in range(1, f + 1):
            need = Fraction(phi, f) * (j - theta)
            for k in range(1, f + 1):
                assert curve.value(k, j) >= need


def test_slot_lower_bound_and_dominance():
    f = 10
    # rate bound dominates
    bd = ClientRequirement(1, "bd", Fraction(1, 2), Fraction(9))
    assert slot_lower_bound(bd, f) == 5
    assert dominance_class(bd, f) == DominanceClass.BANDWIDTH_DOMINATED
    # latency bound dominates: ceil(10 / (1.5 + 1)) = 4 > ceil(1) = 1
    ld = ClientRequirement(2, "ld", Fraction(1, 10), Fraction(3, 2))
    assert slot_lower_bound(ld, f) == 4
    assert dominance_class(ld, f) == DominanceClass.LATENCY_DOMINATED
    # equal bounds
    md = ClientRequirement(3, "md", Fraction(2, 10), Fraction(4))
    assert slot_lower_bound(md, f) == 2
    assert dominance_class(md, f) == DominanceClass.MIXED_DOMINATED


def test_allocated_rate_and_characterization():
    schedule = Schedule((1, None, 1, 2))
    assert allocated_rate(schedule, 1) == Fraction(1, 2)
    assert allocated_rate(schedule, 2) == Fraction(1, 4)
    lr = lr_characterization(schedule, 1)
    assert lr.rate == Fraction(1, 2)
    assert lr.latency == service_latency(schedule, 1)
    inst = ProblemInstance(4, (ClientRequirement(1, "c", Fraction(1, 4), None),))
    with pytest.raises(UnknownClientError):
        allocated_rate(schedule, 9, inst)


def test_wc_finishing_times_monotone_in_arrivals():
    lr = LrCharacterization(latency=Fraction(2), rate=Fraction(1, 4))
    arrivals = [(0, 1), (1, 2), (5, 1)]
    fins = wc_finishing_times(arrivals, lr)
    assert fins == sorted(fins)
    # first request: arrival + latency + size/rate
    assert fins[0] == Fraction(0) + Fraction(2) + Fraction(4)
    # delaying an arrival never decreases its finishing time
    later = wc_finishing_times([(0, 1), (3, 2), (5, 1)], lr)
    assert later[1] >= fins[1]


def test_wc_finishing_times_rejects_unsorted():
    lr = LrCharacterization(latency=Fraction(1), rate=Fraction(1, 2))
    with pytest.raises(ValueError):
        wc_finishing_times([(3, 1), (1, 1)], lr)


def test_mask_bounds_matches_decision_loops():
    """Pool admissibility, free pairs and ILP conflicts read the decisions
    exactly as the loop-based oracles do, conflicting sets included."""
    rng = random.Random(8)
    conflicts = 0
    for case in range(300):
        n, f = rng.randint(1, 4), rng.randint(1, 12)
        ids = list(range(1, n + 1))
        decisions = [
            (rng.choice(ids), rng.randint(1, f), rng.random() < 0.4)
            for _ in range(rng.randint(0, 2 * f if case % 2 else 3))
        ]
        bounds = {c: mask_bounds(c, f, decisions) for c in ids}
        free = {(c, s + 1) for c, (lo, up) in bounds.items() for s in np.flatnonzero(lo < up)}
        assert free == free_pairs(decisions, ids, f), decisions
        inst = ProblemInstance(
            f, tuple(ClientRequirement(c, f"c{c}", Fraction(0), None) for c in ids)
        )
        try:
            check_fixings(decisions)
            conflict = False
        except FixingConflictError:
            conflict = True
        conflicts += conflict
        if conflict:
            with pytest.raises(FixingConflictError):
                build_ilp(inst, decisions)
        else:
            build_ilp(inst, decisions)
        pool = ColumnPool()
        for c, (lo, up) in bounds.items():
            added = []  # the client's masks in pool order
            for _ in range(6):
                # half of the masks drawn inside the bounds, half anywhere
                bits = np.array([rng.randint(0, 1) for _ in range(f)])
                mask = np.where(lo < up, bits, lo) if rng.random() < 0.5 else bits
                if pool.add(c, mask):
                    added.append(mask)
            expected = [m for m in added if column_admissible(c, m, decisions)]
            assert np.array_equal(
                pool.admissible(c, decisions), np.reshape(expected, (-1, f))
            )
    assert 30 <= conflicts <= 270


# the mask forms callers pass: tuples, lists and integer, float and bool arrays
MASK_FORMS = (
    tuple, list, np.array,
    lambda m: np.array(m, dtype=float), lambda m: np.array(m, dtype=bool),
)


def first_late_windows(masks: np.ndarray, theta) -> list:
    """Each mask's first late window (k, j) in j-major, k-minor order, or
    None, read off ``late_windows`` (every cyclic window of every mask)."""
    f = masks.shape[1]
    late = late_windows(masks, theta).reshape(len(masks), f * f)
    out = []
    for row, first in zip(late, late.argmax(axis=1).tolist()):
        j, k = divmod(first, f)
        out.append((k + 1, j + 1) if row[first] else None)
    return out


def test_latency_witness_matches_late_windows_on_every_small_mask():
    # every mask of f <= 10 slots over latencies 0, 1/3, 1/2, 2/3, 1, ...,
    # f: latency_witness decides at the need lengths only, yet gives the
    # witness the f x f windows give, for every mask form
    cases = late = tight = 0
    for f in range(1, 11):
        masks = (np.arange(1 << f)[:, None] >> np.arange(f)) & 1
        phi = masks.sum(axis=1)
        thetas = sorted({Fraction(a, d) for d in (1, 2, 3) for a in range(f * d + 1)})
        for i, theta in enumerate(thetas):
            expected = first_late_windows(masks, theta)
            for m, (mask, want) in enumerate(zip(masks.tolist(), expected)):
                form = MASK_FORMS[(m + i) % len(MASK_FORMS)]
                assert latency_witness(form(mask), theta) == want, (mask, theta)
                cases += 1
                late += want is not None
                # below f / phi - 1 even an equidistant mask is late
                tight += phi[m] > 0 and theta < Fraction(f, int(phi[m])) - 1
    assert cases > 40_000 and 0.2 < late / cases < 0.6 and tight > 1000


def test_mask_service_latency_is_the_least_latency_without_late_windows():
    # every nonempty mask of f <= 10 slots: no window is late at the
    # latency, and one is just below it
    for f in range(1, 11):
        for bits in range(1, 1 << f):
            mask = [(bits >> s) & 1 for s in range(f)]
            theta = mask_service_latency(mask)
            assert theta >= 0 and not late_windows(mask, theta).any(), mask
            below = theta - Fraction(1, 2 * sum(mask))
            assert late_windows(mask, below).any(), mask


def test_latency_witness_matches_late_windows_on_large_random_masks():
    rng = np.random.default_rng(26)
    late = 0
    for f in (64, 128):
        for _ in range(40):
            masks = (rng.random((25, f)) < rng.uniform(0.02, 0.6)).astype(int)
            theta = Fraction(int(rng.integers(0, 2 * f)), int(rng.integers(1, 4)))
            expected = first_late_windows(masks, theta)
            for m, (mask, want) in enumerate(zip(masks.tolist(), expected)):
                form = MASK_FORMS[m % len(MASK_FORMS)]
                assert latency_witness(form(mask), theta) == want, (mask, theta)
                late += want is not None
    assert 200 < late < 1800


def reference_client_feasible(mask, req: ClientRequirement, f: int):
    """(feasible, violations, objective) of a mask, with the rate compared
    in Fractions and the latency read off ``late_windows``."""
    phi = int(np.asarray(mask, dtype=int).sum())
    violations = []
    if Fraction(phi, f) < req.required_rate:
        violations.append(Violation(req.id, "rate", (phi, math.ceil(req.required_rate * f))))
    elif req.required_rate > 0:
        witness = first_late_windows(np.array([mask], dtype=int), req.effective_latency(f))[0]
        if witness is not None:
            violations.append(Violation(req.id, "latency", witness))
    return not violations, violations, Fraction(phi, f)


def test_client_feasible_matches_late_windows_reference():
    rng = random.Random(26)
    kinds = set()
    for case in range(3000):
        f = rng.choice([rng.randint(1, 12), 64, 128])
        rate = Fraction(rng.randint(0, f), f * rng.choice([1, 2, 3]))
        latency = None if case % 4 == 0 else Fraction(rng.randint(0, 2 * f), rng.choice([1, 2, 3]))
        req = ClientRequirement(7, "c", rate, latency)
        density = rng.random()
        mask = [int(rng.random() < density) for _ in range(f)]
        report = client_feasible(MASK_FORMS[case % len(MASK_FORMS)](mask), req, f)
        feasible, violations, objective = reference_client_feasible(mask, req, f)
        assert (report.feasible, report.violations, report.objective) == (
            feasible, violations, objective), (mask, req)
        kinds.update(v.kind for v in violations)
        kinds.add("feasible" if feasible else "infeasible")
    assert kinds == {"rate", "latency", "feasible", "infeasible"}
