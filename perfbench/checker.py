"""Exact schedule checker for the benchmark corpus, independent of tdmcfg.

It reads the instance JSON document (numbers as decimal or "p/q" strings)
and per-client 0/1 slot masks, and decides everything in integers. It
imports nothing from tdmcfg, so a fault in ``tdmcfg.model``, ``verify`` or
``ilp`` cannot hide in both a solver and its check.

A schedule is feasible when every slot has at most one owner, every owner
is a client of the instance, and each client with phi slots in a frame of
f meets

* the rate:    phi / f >= rate, and
* the latency: service(k, j) * f >= phi * (j - theta) for every cyclic
  window of j slots starting at slot k, where theta is the client's
  latency bound in slots (f - 1 when it has none).

Run ``python3 perfbench/checker.py`` to self-test it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

EXHAUSTIVE_MAX_FRAME = 14


def _ceil(value: Fraction) -> int:
    return -(-value.numerator // value.denominator)


def clients_of(doc: Mapping) -> tuple[int, list[tuple[str, Fraction, Fraction]]]:
    """Frame size and (name, rate, theta) per client of an instance document."""
    f = int(doc["frame_size"])
    clients = []
    for entry in doc["clients"]:
        rate = Fraction(str(entry["rate"]))
        raw = entry.get("latency_slots")
        theta = Fraction(f - 1) if raw is None else Fraction(str(raw))
        if rate <= 0 or theta < 0:
            raise ValueError(f"client {entry['name']}: rate must be > 0, theta >= 0")
        clients.append((str(entry["name"]), rate, theta))
    return f, clients


def slot_bound(f: int, rate: Fraction, theta: Fraction) -> int:
    """Fewest slots one client can hold: max(ceil(rate f), ceil(f / (theta + 1)))."""
    return max(_ceil(rate * f), _ceil(Fraction(f) / (theta + 1)))


def bound_sum(doc: Mapping) -> int:
    """Sum of the per-client slot bounds, a lower bound on the optimum."""
    f, clients = clients_of(doc)
    return sum(slot_bound(f, rate, theta) for _, rate, theta in clients)


def late_window(
    mask: Sequence[int], rate: Fraction, theta: Fraction
) -> Optional[tuple[int, int]]:
    """First (k, j) (1-based start, duration) whose service is short, or None.

    The rate is checked first; a mask that misses it reports (0, 0).
    """
    f = len(mask)
    phi = sum(mask)
    if phi * rate.denominator < rate.numerator * f:
        return (0, 0)
    p, q = theta.numerator, theta.denominator
    prefix = [0]
    for bit in list(mask) + list(mask):
        prefix.append(prefix[-1] + bit)
    for j in range(1, f + 1):
        need = phi * (j * q - p)
        if need <= 0:
            continue
        for k in range(f):
            if (prefix[k + j] - prefix[k]) * f * q < need:
                return (k + 1, j)
    return None


def check(doc: Mapping, masks: Mapping[str, Sequence[int]]) -> list[str]:
    """Every violation of a schedule given as per-client masks; [] if feasible."""
    f, clients = clients_of(doc)
    known = {name for name, _, _ in clients}
    problems = [f"unknown client {name!r}" for name in masks if name not in known]
    for name, mask in masks.items():
        if len(mask) != f or any(bit not in (0, 1) for bit in mask):
            problems.append(f"client {name!r}: mask is not {f} bits")
            return problems
    for slot in range(f):
        owners = [name for name, mask in masks.items() if mask[slot]]
        if len(owners) > 1:
            problems.append(f"slot {slot + 1} owned by {', '.join(owners)}")
    for name, rate, theta in clients:
        mask = masks.get(name, [0] * f)
        late = late_window(mask, rate, theta)
        if late == (0, 0):
            problems.append(f"client {name!r}: {sum(mask)}/{f} slots below rate {rate}")
        elif late is not None:
            problems.append(f"client {name!r}: window (k={late[0]}, j={late[1]}) late")
    return problems


def exhaustive_optimum(doc: Mapping) -> Optional[int]:
    """Fewest allocated slots of any feasible schedule, by full enumeration.

    Lists every feasible mask of each client, then searches disjoint
    combinations depth-first. Returns None when no schedule exists.
    """
    f, clients = clients_of(doc)
    if f > EXHAUSTIVE_MAX_FRAME:
        raise ValueError(f"exhaustive search is limited to f <= {EXHAUSTIVE_MAX_FRAME}")
    options = []
    for _, rate, theta in clients:
        ok = [
            bits
            for bits in range(1 << f)
            if late_window([(bits >> s) & 1 for s in range(f)], rate, theta) is None
        ]
        if not ok:
            return None
        options.append(sorted(ok, key=lambda b: bin(b).count("1")))
    options.sort(key=len)
    fewest = [bin(opts[0]).count("1") for opts in options]
    rest = [sum(fewest[i:]) for i in range(len(options) + 1)]
    best = f + 1

    def search(i: int, used: int, total: int) -> None:
        nonlocal best
        if i == len(options):
            best = total
            return
        for bits in options[i]:
            count = bin(bits).count("1")
            if total + count + rest[i + 1] >= best:
                break
            if not bits & used:
                search(i + 1, used | bits, total + count)

    search(0, 0, 0)
    return None if best > f else best


def _self_test() -> None:
    two = {
        "frame_size": 10,
        "clients": [
            {"name": "c1", "rate": "0.5", "latency_slots": "3"},
            {"name": "c2", "rate": "0.3", "latency_slots": "3"},
        ],
    }
    good = {"c1": [0, 0, 1, 1, 0, 0, 0, 1, 1, 1], "c2": [1, 1, 0, 0, 0, 1, 1, 0, 0, 0]}
    assert check(two, good) == [], check(two, good)
    assert bound_sum(two) == 8
    assert exhaustive_optimum(two) == 8, "the f = 10 example has optimum 4/5"

    # c2 meets its rate, but the 7-slot window from slot 8 holds one of its
    # slots: 1 * 10 < 3 * (7 - 3); every other window is served in time
    late = {"c1": good["c1"], "c2": [1, 0, 0, 0, 1, 0, 1, 0, 0, 0]}
    problems = check(two, late)
    assert problems == ["client 'c2': window (k=8, j=7) late"], problems

    collide = {"c1": list(good["c1"]), "c2": list(good["c2"])}
    collide["c1"][0] = 1
    problems = check(two, collide)
    assert problems == ["slot 1 owned by c1, c2"], problems


if __name__ == "__main__":
    _self_test()
    print("checker self-test passed")
