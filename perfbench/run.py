"""Fixed-corpus benchmark of tdmcfg's ILP, warm-start and branch-and-price paths.

    python3 perfbench/run.py --workload ilp-bd8 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One process on one CPU. The run solves its workload's committed instances
(``perfbench/corpus``) in whole rounds, each round in an order drawn from
``--seed``, and starts another round only while the projected end, counted
from process start with the set-up probes, stays within ``--seconds``.
Every answer must be OPTIMAL, pass ``checker.py`` and match the recorded
reference optimum. The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (per round), whose own end-to-end numbers are
printed on the line before it. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9

# the f = 10 two-client example, solved once before timing so that lazy
# imports and first-call work inside scipy are part of set-up
WARMUP = {
    "frame_size": 10,
    "clients": [
        {"name": "c1", "rate": "0.5", "latency_slots": "3"},
        {"name": "c2", "rate": "0.3", "latency_slots": "3"},
    ],
}


def setup(workload: str):
    """Import tdmcfg from the checkout, load the corpus, warm up.

    Returns (solve, cases): solve(instance) calls the workload's entry
    point, and each case is (name, instance, document, reference slots).
    """
    sys.path.insert(0, str(SRC))
    import tdmcfg
    from tdmcfg import bnp, ilp, serialize

    if Path(tdmcfg.__file__).resolve().parent != SRC / "tdmcfg":
        raise SystemExit(f"tdmcfg imported from {tdmcfg.__file__}, not {SRC}")
    manifest = json.loads((HERE / "corpus" / "manifest.json").read_text())
    spec = manifest["workloads"][workload]
    limit = manifest["time_limit"]
    if spec["entry"] == "ilp.solve_direct":
        def solve(instance):
            schedule, status, objective, _ = ilp.solve_direct(instance, time_limit=limit)
            return schedule, status, objective
    else:
        def solve(instance):
            config = bnp.BnpConfig(time_limit=limit)
            schedule, status, objective, _, _ = bnp.solve_bnp(instance, config)
            return schedule, status, objective
    cases = []
    for entry in spec["instances"]:
        path = HERE / "corpus" / entry["file"]
        cases.append((
            entry["name"], serialize.load_instance(path),
            json.loads(path.read_text()), entry["optimum_slots"],
        ))
    solve(serialize.instance_from_dict(WARMUP))
    return solve, cases


def measure_setup(workload: str) -> list[float]:
    """Wall time from spawning a fresh interpreter until its set-up is done."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--probe", "--workload", workload],
            stdout=subprocess.PIPE, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
    return times


def judge(case, result) -> tuple[bool, list[str]]:
    """(failed, problems): failed when not proven optimal, else check the answer."""
    name, instance, doc, optimum = case
    schedule, status, objective = result
    if status.value != "optimal" or schedule is None:
        return True, [f"{name}: status {status.value}"]
    f = instance.frame_size
    names = {c.id: c.name for c in instance.clients}
    masks = {c.name: [0] * f for c in instance.clients}
    for slot, owner in enumerate(schedule.slots):
        if owner is not None:
            masks.setdefault(names.get(owner, f"unknown id {owner}"), [0] * f)[slot] = 1
    problems = [f"{name}: {p}" for p in checker.check(doc, masks)]
    slots = sum(map(sum, masks.values()))
    if slots != optimum or objective * f != slots:
        problems.append(f"{name}: {slots} slots, objective {objective}, reference {optimum}")
    return False, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def one_thread() -> None:
    """One CPU and one thread; must run before numpy and scipy load.

    HiGHS sizes its worker pool from the CPUs the process may use; with two
    it ran three threads during a solve, and solves were slower, not faster.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main() -> int:
    begun = time.perf_counter()
    one_thread()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = json.loads((HERE / "corpus" / "manifest.json").read_text())["workloads"]
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.probe:
        setup(args.workload)
        print("ready", flush=True)
        return 0
    if not (SRC / "tdmcfg" / "__init__.py").is_file():
        print(f"no tdmcfg sources under {SRC}", file=sys.stderr)
        return 2
    setup_times = measure_setup(args.workload)
    solve, cases = setup(args.workload)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def run(case):
        if tracer is None:
            return solve(case[1])
        return tracer.span(f"solve:{case[0]}", solve, case[1])

    rng = random.Random(args.seed)
    durations: list[float] = []
    round_rates: list[float] = []  # solves per minute of one round's solving
    problems: list[str] = []
    attempted = failed = 0
    first_round = time.perf_counter()
    while True:
        times = []
        for case in rng.sample(cases, len(cases)):
            attempted += 1
            start = time.perf_counter()
            try:
                result = run(case)
            except Exception:  # a crashed solve counts as failed; keep going
                traceback.print_exc()
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            print(f"solve {case[0]} {elapsed:.3f} s", file=sys.stderr)
            bad, found = judge(case, result)
            if bad:
                failed += 1
                print("failed:", *found, file=sys.stderr)
            else:
                times.append(elapsed)
                problems += found
        durations += times
        round_rates.append(60 * len(times) / sum(times) if times else 0.0)
        now = time.perf_counter()
        if now - begun + (now - first_round) / len(round_rates) > args.seconds:
            break

    for line in problems:
        print("incorrect:", line, file=sys.stderr)
    end_to_end = {
        "solves_per_min": metric(statistics.median(round_rates), "1/min"),
        "solve_s_p50": metric(statistics.median(durations) if durations else 0.0, "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics = end_to_end
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "rounds": len(round_rates)},
        )
        print("traced end-to-end:", json.dumps({k: v["value"] for k, v in end_to_end.items()}))
        metrics = {
            name: metric(value, "s" if name.endswith(".s") else "count")
            for name, value in tracer.per_layer(len(round_rates)).items()
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
