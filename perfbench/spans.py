"""Span tracing of tdmcfg's layers, installed from outside the package.

``Tracer.install()`` replaces each traced function in every ``tdmcfg``
module that holds it by name (``solve_lp`` in both ``mip`` and ``colgen``,
``price_client`` in both ``colgen`` and ``heuristics``, ...). Each wrapper
keeps a span (name, start, end, parent) in memory and adds the counts the
function's result carries; nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


def _bb_nodes(counts, res):
    counts["mip.bb.nodes"] += res.nodes


def _lazy_rows(counts, hit):
    counts["ilp.lazy.rows"] += hit is not None


def _colgen(counts, res):
    counts["colgen.nodes"] += 1
    counts["colgen.iterations"] += res.iterations
    counts["colgen.columns"] += res.columns_added


def _bnp(counts, res):
    stats = res[4]
    counts["bnp.nodes_opened"] += stats.nodes_opened
    counts["bnp.nodes_pruned"] += stats.nodes_pruned
    counts["bnp.completions"] += stats.completions


# (tdmcfg module to take the function from, function, span name, counts
# taken from its result)
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("tdmcfg.mip", "linprog", "mip.highs", None),
    ("tdmcfg.mip", "solve_lp", "mip.lp", None),
    ("tdmcfg.mip", "solve_mip", "mip.bb", _bb_nodes),
    ("tdmcfg.ilp", "build_ilp", "ilp.build", None),
    ("tdmcfg.ilp", "find_latency_violation", "ilp.lazy", _lazy_rows),
    ("tdmcfg.colgen", "column_generation", "colgen.node", _colgen),
    ("tdmcfg.colgen", "solve_master", "colgen.master", None),
    ("tdmcfg.colgen", "canonical_duals", "colgen.duals", None),
    ("tdmcfg.colgen", "price_client", "colgen.price", None),
    ("tdmcfg.colgen", "build_sub_model", "colgen.submodel", None),
    ("tdmcfg.heuristics", "generative", "heuristics.run", None),
    ("tdmcfg.bnp", "solve_bnp", "bnp.solve", _bnp),
    ("tdmcfg.bnp", "complete_with_ilp", "bnp.completion", None),
    ("tdmcfg.verify", "schedule_feasible", "verify", None),
]

# a holder whose calls get a span name of their own: the heuristic's pricing
RENAMED = {("tdmcfg.heuristics", "price_client"): "heuristics.price"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target in every loaded tdmcfg module that holds it."""
        homes = {home: importlib.import_module(home) for home, _, _, _ in TARGETS}
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("tdmcfg")]
        for home, attr, span, counter in TARGETS:
            original = getattr(homes[home], attr)
            for module in modules:
                if getattr(module, attr, None) is original:
                    name = RENAMED.get((module.__name__, attr), span)
                    setattr(module, attr, self.wrap(original, name, counter))

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args):
        """Call fn(*args) under a span of its own, e.g. one benchmark solve."""
        return self.wrap(fn, name)(*args)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive time and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round; a ".s" metric is the inclusive time of its spans."""
        layers = self.layer_totals()
        counts = self.counts

        def calls(span):
            return layers.get(span, {}).get("calls", 0)

        def secs(span):
            return layers.get(span, {}).get("s", 0.0)

        raw = {
            "mip.lp.calls": calls("mip.lp"), "mip.lp.s": secs("mip.lp"),
            "mip.highs.s": secs("mip.highs"),
            "mip.lp_overhead.s": secs("mip.lp") - secs("mip.highs"),
            "mip.bb.calls": calls("mip.bb"), "mip.bb.nodes": counts["mip.bb.nodes"],
            "mip.bb.s": secs("mip.bb"),
            "ilp.build.calls": calls("ilp.build"), "ilp.build.s": secs("ilp.build"),
            "ilp.lazy.calls": calls("ilp.lazy"), "ilp.lazy.rows": counts["ilp.lazy.rows"],
            "ilp.lazy.s": secs("ilp.lazy"),
            "colgen.nodes": counts["colgen.nodes"],
            "colgen.iterations": counts["colgen.iterations"],
            "colgen.columns": counts["colgen.columns"],
            "colgen.master.calls": calls("colgen.master"), "colgen.master.s": secs("colgen.master"),
            "colgen.duals.calls": calls("colgen.duals"), "colgen.duals.s": secs("colgen.duals"),
            "colgen.price.calls": calls("colgen.price"), "colgen.price.s": secs("colgen.price"),
            "colgen.submodel.s": secs("colgen.submodel"),
            "heuristics.runs": calls("heuristics.run"),
            "heuristics.price.calls": calls("heuristics.price"),
            "heuristics.s": secs("heuristics.run"),
            "bnp.nodes_opened": counts["bnp.nodes_opened"],
            "bnp.nodes_pruned": counts["bnp.nodes_pruned"],
            "bnp.completions": counts["bnp.completions"],
            "bnp.completion.s": secs("bnp.completion"), "bnp.s": secs("bnp.solve"),
            "verify.calls": calls("verify"), "verify.s": secs("verify"),
        }
        # whole rounds repeat the same work, so counts divide exactly
        return {
            name: (total // rounds if isinstance(total, int) and total % rounds == 0
                   else total / rounds)
            for name, total in raw.items()
        }

    def write(self, path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({**meta, "layers": self.layer_totals(), "counts": dict(self.counts)}, fh)
            fh.write("\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent]) + "\n")


def summary(path) -> str:
    """Per-round calls, inclusive and self seconds per span name of a trace file."""
    with open(path) as fh:
        head = json.loads(fh.readline())
    rounds = head["rounds"]
    lines = [f"{head['workload']} seed {head['seed']}, {rounds} round(s); per round:",
             f"{'span':20s} {'calls':>8s} {'incl s':>8s} {'self s':>8s}"]
    layers = sorted(head["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in layers:
        if not name.startswith("solve:"):
            lines.append(f"{name:20s} {row['calls'] / rounds:8.0f} "
                         f"{row['s'] / rounds:8.3f} {row['self_s'] / rounds:8.3f}")
    return "\n".join(lines)


if __name__ == "__main__":
    for trace_file in sys.argv[1:]:
        print(summary(trace_file))
