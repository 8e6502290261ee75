"""Rebuild the benchmark corpus from its recorded generator specs.

    python3 perfbench/corpus.py

writes every instance file under ``perfbench/corpus/`` with
``tdmcfg.usecase.generate`` (the hd-video case study is copied from the
package data) and rewrites ``perfbench/corpus/manifest.json``. Each
instance's reference optimum comes from ``checker.py`` alone, never from a
solver: for f = 64 and 128 it is the sum of the per-client slot bounds, for
f = 12 the exhaustive search. The benchmark loads the committed files, so a
later change to ``usecase`` cannot change a workload; rerunning this command
and diffing the corpus shows whether it would.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus"

# every solve is given this limit; the slowest corpus instance needs a
# small fraction of it, so no time-based budget inside the solvers is hit
TIME_LIMIT = 120.0


def _bd(n: int, seed: int) -> dict:
    """BD spec as GenSpec.default("BD", n, seed) gives it today."""
    row = {8: ((0.06, 0.16), (0.6, 0.9)), 16: ((0.03, 0.08), (0.5, 0.75))}[n]
    return dict(
        klass="BD", n_clients=n, rate_range=row[0], latency_tightness_range=row[1],
        total_rate_window=(0.8, 0.95), latency_load_window=None,
        frame_size=8 * n, seed=seed,
    )


def _ld12(n: int, seed: int) -> dict:
    """LD spec of the n = 8 row with rates scaled by 8 / n, on f = 12."""
    return dict(
        klass="LD", n_clients=n, rate_range=(0.02 * 8 / n, 0.07 * 8 / n),
        latency_tightness_range=(1.6, 3.3), total_rate_window=(0.35, 0.5),
        latency_load_window=(0.75, 0.95), frame_size=12, seed=seed,
    )


# workload -> (entry point, [(instance name, source)]); a source is a
# GenSpec field dict or the name of a file in tdmcfg's package data
WORKLOADS = {
    "ilp-bd8": ("ilp.solve_direct", [
        (f"bd8-s{s}", _bd(8, s)) for s in (3, 4, 8)
    ]),
    "warmstart": ("bnp.solve_bnp", [
        ("hd-video", "hd-video.json"),
        *[(f"bd8-s{s}", _bd(8, s)) for s in (0, 3)],
        *[(f"bd16-s{s}", _bd(16, s)) for s in (1, 3)],
    ]),
    "bnp-tree": ("bnp.solve_bnp", [
        *[(f"ld3-s{s}", _ld12(3, s)) for s in (21, 24)],
        *[(f"ld4-s{s}", _ld12(4, s)) for s in (2, 7, 10, 19)],
    ]),
}

HD_VIDEO_OPTIMUM = 59  # slots of 64, the paper's case-study optimum


def _reference(doc: dict) -> tuple[str, int]:
    if doc["frame_size"] <= checker.EXHAUSTIVE_MAX_FRAME:
        optimum = checker.exhaustive_optimum(doc)
        if optimum is None:
            raise SystemExit("corpus instance has no feasible schedule")
        return "exhaustive", optimum
    return "bound_sum", checker.bound_sum(doc)


def rebuild() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from tdmcfg.serialize import load_instance, save_instance
    from tdmcfg.usecase import GenSpec, generate

    checker._self_test()
    shutil.rmtree(CORPUS, ignore_errors=True)
    manifest = {"time_limit": TIME_LIMIT, "workloads": {}}
    for workload, (entry, sources) in WORKLOADS.items():
        (CORPUS / workload).mkdir(parents=True)
        entries = []
        for name, source in sources:
            if isinstance(source, str):
                instance = load_instance(ROOT / "src" / "tdmcfg" / "data" / source)
                recorded = {"package_data": source}
            else:
                instance = generate(GenSpec(**source))
                recorded = {"gen_spec": dataclasses.asdict(GenSpec(**source))}
            rel = f"{workload}/{name}.json"
            save_instance(instance, CORPUS / rel)
            kind, optimum = _reference(json.loads((CORPUS / rel).read_text()))
            if name == "hd-video" and optimum != HD_VIDEO_OPTIMUM:
                raise SystemExit(f"hd-video bound sum {optimum} != {HD_VIDEO_OPTIMUM}")
            entries.append({
                "name": name, "file": rel, "frame_size": instance.frame_size,
                "n_clients": instance.n_clients, "reference": kind,
                "optimum_slots": optimum, **recorded,
            })
        manifest["workloads"][workload] = {"entry": entry, "instances": entries}
    with open(CORPUS / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest


if __name__ == "__main__":
    for workload, spec in rebuild()["workloads"].items():
        refs = ", ".join(f"{e['name']}={e['optimum_slots']}" for e in spec["instances"])
        print(f"{workload}: {refs}")
