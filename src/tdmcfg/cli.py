"""Command-line interface: solve, generate, verify and bench."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import serialize
from .bnp import BRANCHING_RULES, MAX_PROBABILITY, BnpConfig, solve_bnp
from .heuristics import best_of_runs, continuous_allocation
from .ilp import solve_direct
from .model import ProblemInstance, Schedule, allocated_rate, latency_slot_bound, service_latency
from .usecase import GenSpec, GenerationExhaustedError, generate
from .verify import schedule_feasible

log = logging.getLogger("tdmcfg")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3

_STATUS_EXIT = {
    "optimal": EXIT_OK,
    "feasible": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "no_feasible": EXIT_INFEASIBLE,
    "timed_out": EXIT_TIMEOUT,
}


def run_method(
    instance: ProblemInstance,
    method: str,
    time_limit: Optional[float] = None,
    seed: int = 0,
    branching: str = MAX_PROBABILITY,
    heuristic_runs: Optional[int] = None,
) -> tuple[Optional[Schedule], str, Optional[Fraction], float, dict]:
    """Dispatch one solve; returns (schedule, status, objective, bound, stats).

    ``time_limit`` (seconds) starts at this call.
    """
    if time_limit is not None and not time_limit >= 0:  # NaN fails too
        raise ValueError(f"time_limit must be at least 0 seconds, not {time_limit}")
    deadline = time.monotonic() + (math.inf if time_limit is None else time_limit)
    if method == "ilp":
        schedule, status, objective, bound = solve_direct(instance, deadline=deadline)
        return schedule, status.value, objective, bound, {}
    if method == "bnp":
        config = BnpConfig(
            branching=branching,
            time_limit=time_limit,
            heuristic_runs=heuristic_runs,
            seed=seed,
        )
        schedule, status, objective, bound, stats = solve_bnp(instance, config)
        return schedule, status.value, objective, bound, stats.as_dict()
    if method == "heuristic":
        runs = 1 if heuristic_runs is None else heuristic_runs
        best, _ = best_of_runs(instance, runs, seed, deadline)
        if best is None:
            return None, "no_feasible", None, -math.inf, {}
        return best, "feasible", _phi(best, instance), -math.inf, {}
    if method == "continuous":
        schedule, status = continuous_allocation(instance)
        if schedule is None:
            return None, "no_feasible", None, -math.inf, {}
        return schedule, "feasible", _phi(schedule, instance), -math.inf, {}
    raise ValueError(f"unknown method {method!r}")


def _phi(schedule: Schedule, instance: ProblemInstance) -> Fraction:
    return Fraction(
        sum(schedule.alloc_count(c.id) for c in instance.clients),
        instance.frame_size,
    )


def _result_document(
    instance: ProblemInstance,
    schedule: Optional[Schedule],
    status: str,
    objective: Optional[Fraction],
    bound: float,
    runtime: float,
    stats: dict,
) -> dict:
    doc = {
        "status": status,
        "objective": None if objective is None else serialize.format_number(objective),
        "bound": None if not math.isfinite(bound) else bound,
        "runtime_seconds": round(runtime, 6),
        "stats": stats,
        "schedule": None,
        "clients": [],
    }
    if schedule is not None:
        doc["schedule"] = serialize.schedule_to_dict(schedule, instance)
        for c in instance.clients:
            entry = {
                "name": c.name,
                "required_rate": serialize.format_number(c.required_rate),
                "required_latency": (
                    None
                    if c.required_latency is None
                    else serialize.format_number(c.required_latency)
                ),
                "allocated_rate": serialize.format_number(
                    allocated_rate(schedule, c.id)
                ),
                "service_latency": (
                    serialize.format_number(service_latency(schedule, c.id))
                    if schedule.alloc_count(c.id) > 0
                    else None
                ),
            }
            doc["clients"].append(entry)
    return doc


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        instance = serialize.load_instance(args.instance)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        log.error("cannot read instance: %s", exc)
        return EXIT_ERROR
    t0 = time.monotonic()
    schedule, status, objective, bound, stats = run_method(
        instance,
        args.method,
        time_limit=args.time_limit,
        seed=args.seed,
        branching=args.branching,
        heuristic_runs=args.heuristic_runs,
    )
    runtime = time.monotonic() - t0
    doc = _result_document(
        instance, schedule, status, objective, bound, runtime, stats
    )
    _emit(doc, args.out)
    return _STATUS_EXIT.get(status, EXIT_ERROR)


def cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.csv"
    rows = []
    failures = 0
    for k in range(args.count):
        spec = GenSpec.default(args.klass, args.n, seed=args.seed + k)
        try:
            instance = generate(spec)
        except GenerationExhaustedError as exc:
            log.warning("instance %d: %s", k, exc)
            failures += 1
            continue
        except ValueError as exc:  # no instance of this class and size can be drawn
            log.error("%s", exc)
            return EXIT_ERROR
        name = f"{args.klass.lower()}_{args.n}_{k:03d}.json"
        serialize.save_instance(instance, out_dir / name)
        total = instance.total_required_rate()
        lat_load = Fraction(
            sum(latency_slot_bound(c, instance.frame_size) for c in instance.clients),
            instance.frame_size,
        )
        rows.append(
            {
                "instance": name,
                "class": args.klass,
                "n": args.n,
                "f": instance.frame_size,
                "total_rate": serialize.format_number(total),
                "latency_load": serialize.format_number(lat_load),
            }
        )
    with open(manifest_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["instance", "class", "n", "f", "total_rate", "latency_load"],
        )
        writer.writeheader()
        writer.writerows(rows)
    log.info("wrote %d instances (%d failures) to %s", len(rows), failures, out_dir)
    return EXIT_OK if failures == 0 else EXIT_ERROR


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        instance = serialize.load_instance(args.instance)
        schedule = serialize.load_schedule(args.schedule, instance)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        log.error("cannot read input: %s", exc)
        return EXIT_ERROR
    report = schedule_feasible(schedule, instance)
    _emit(report.as_dict(), args.out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _bench_one(path: Path, method: str, time_limit: float, seed: int) -> dict:
    t0 = time.monotonic()
    try:
        instance = serialize.load_instance(path)
        schedule, status, objective, bound, _ = run_method(
            instance, method, time_limit=time_limit, seed=seed
        )
    except Exception as exc:  # per-row failures recorded, run continues
        return {
            "instance": str(path),
            "method": method,
            "status": f"error: {exc}",
            "phi": None,
            "bound": None,
            "runtime": round(time.monotonic() - t0, 3),
        }
    return {
        "instance": str(path),
        "method": method,
        "status": status,
        "phi": None if objective is None else objective,
        "bound": None if not math.isfinite(bound) else bound,
        "runtime": round(time.monotonic() - t0, 3),
    }


def cmd_bench(args: argparse.Namespace) -> int:
    manifest = Path(args.manifest)
    try:
        with open(manifest, newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row names no file
            if "instance" not in (reader.fieldnames or ()):
                raise ValueError(f"{manifest} has no instance column")
            paths = [manifest.parent / row["instance"] for row in reader]
    except (OSError, ValueError, csv.Error) as exc:
        log.error("cannot read manifest: %s", exc)
        return EXIT_ERROR
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    results = [_bench_one(p, m, args.time_limit, args.seed) for p in paths for m in methods]

    # best phi per instance across methods, for distance-from-best
    best: dict[str, Fraction] = {}
    for row in results:
        if row["phi"] is not None:
            key = row["instance"]
            if key not in best or row["phi"] < best[key]:
                best[key] = row["phi"]
    out_rows = []
    for row in results:
        distance = None
        if row["phi"] is not None and row["instance"] in best:
            distance = float(row["phi"] - best[row["instance"]])
        out_rows.append(
            {
                "instance": row["instance"],
                "method": row["method"],
                "status": row["status"],
                "phi": None if row["phi"] is None else serialize.format_number(row["phi"]),
                "bound": row["bound"],
                "distance_from_best": distance,
                "runtime": row["runtime"],
            }
        )
    fieldnames = [
        "instance", "method", "status", "phi", "bound", "distance_from_best", "runtime",
    ]
    summary_rows = []
    for method in methods:
        rows = [r for r in results if r["method"] == method]
        failures = sum(1 for r in rows if r["phi"] is None)
        distances = [
            float(r["phi"] - best[r["instance"]])
            for r in rows
            if r["phi"] is not None and r["instance"] in best
        ]
        mean_distance = sum(distances) / len(distances) if distances else None
        summary_rows.append(
            {
                "instance": "SUMMARY",
                "method": method,
                "status": f"failures={failures}",
                "phi": None,
                "bound": None,
                "distance_from_best": mean_distance,
                "runtime": round(sum(r["runtime"] for r in rows), 3),
            }
        )
    target = args.out or "bench.csv"
    with open(target, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(out_rows)
        writer.writerows(summary_rows)
    log.info("wrote %d rows to %s", len(out_rows) + len(summary_rows), target)
    errors = sum(r["status"].startswith("error: ") for r in results)
    return EXIT_OK if errors == 0 else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Bad arguments exit with EXIT_ERROR: argparse's 2 means infeasible here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def count(text: str) -> int:
    """A count of at least 0, read from a command-line argument."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def seconds(text: str) -> float:
    """A time limit of at least 0 seconds (inf allowed), read from a
    command-line argument."""
    value = float(text)
    if not value >= 0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be at least 0, not {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdmcfg",
        description="Minimal-allocation TDM schedule synthesis under "
        "latency-rate requirements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument(
        "--method",
        choices=["ilp", "bnp", "heuristic", "continuous"],
        default="bnp",
    )
    solve.add_argument("--time-limit", type=seconds, default=3000.0)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--branching",
        choices=BRANCHING_RULES,
        default=MAX_PROBABILITY,
    )
    solve.add_argument("--heuristic-runs", type=count, default=None)
    solve.add_argument("--out", default=None, help="result JSON path (default stdout)")
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("generate", help="generate synthetic instances")
    gen.add_argument("klass", choices=["BD", "LD", "MD"], help="use-case class")
    gen.add_argument("--n", type=int, default=8, help="number of clients")
    gen.add_argument("--count", type=count, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output directory")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="check a schedule against an instance")
    ver.add_argument("instance")
    ver.add_argument("schedule")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run methods over a manifest")
    bench.add_argument("manifest", help="manifest CSV from generate")
    bench.add_argument("--methods", default="bnp,heuristic")
    bench.add_argument("--time-limit", type=seconds, default=3000.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="output CSV path")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("TDMCFG_LOG_LEVEL", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
