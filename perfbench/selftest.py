"""Regenerate the benchmark's pins from the oracles and compare them.

``python3 perfbench/run.py --self-test`` recomputes, at the default seed:

* every Fig. 11 cell on the scalar engine (in-process runner, no cache);
* every campaign cell's ``oracle_campaign_cell`` verdicts and its SPRT
  record (``run_campaign_cell`` in-process);
* every svc-mix job of the default seed's plan, in-process;

and compares them with ``perfbench/pins.json`` (``--write-pins`` stores
them instead). It also checks that ``BENCHMARK.json`` lists exactly the
metrics and workloads this package reports, and that the campaign grid
still equals ``CELLS`` in ``benchmarks/bench_campaign_smoke.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

from common import (
    CAMPAIGN_CELLS,
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    PINS_PATH,
    ROOT,
    SRC,
    WORKERS,
    WORKLOADS,
    digest,
    fig11_setups,
)


def fig11_pins() -> dict:
    from repro.analysis.runner import ExperimentRunner, Job, result_to_dict
    from repro.workloads.catalog import WORKLOADS as CATALOG

    runner = ExperimentRunner(jobs=WORKERS, use_cache=False)
    names, jobs = [], []
    for workload in CATALOG:
        for label, (setup, mapping) in fig11_setups().items():
            names.append(f"{workload}/{label}")
            jobs.append(Job(workload, setup, mapping, backend="scalar"))
    results = runner.run_many(jobs)
    return {name: digest(result_to_dict(result))
            for name, result in zip(names, results)}


def campaign_pins() -> dict:
    from repro.security.campaign import (
        CampaignJob,
        oracle_campaign_cell,
        run_campaign_cell,
    )

    pins = {}
    for name, cell in CAMPAIGN_CELLS:
        job = CampaignJob(**cell)
        oracle = oracle_campaign_cell(job)
        pins[name] = {
            "tolerated_threshold": oracle["tolerated_threshold"],
            "probes": [[p["threshold"], p["verdict"]]
                       for p in oracle["probes"]],
            "record": digest(run_campaign_cell(job)),
        }
    return pins


def svc_pins() -> dict:
    import svcmix

    reads, fresh, _ = svcmix.universe(DEFAULT_SEED)
    pinned = list(itertools.islice(fresh, svcmix.PINNED_FRESH))
    digests, _, _ = svcmix.oracle_digests(reads + pinned)
    return digests


def check_manifest() -> list:
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if declared != END_TO_END:
        problems.append(f"end_to_end {declared} != reported {END_TO_END}")
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if declared != PER_LAYER:
        problems.append("per_layer differs from the reported metrics: "
                        f"{sorted(set(declared) ^ set(PER_LAYER))}")
    names = tuple(w["name"] for w in manifest["workloads"])
    if names != WORKLOADS:
        problems.append(f"workloads {names} != {WORKLOADS}")
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from bench_campaign_smoke import CELLS

    if tuple(CELLS) != tuple(cell for _, cell in CAMPAIGN_CELLS):
        problems.append("campaign grid differs from bench_campaign_smoke")
    return problems


def main(write: bool = False) -> int:
    sys.path.insert(0, SRC)
    problems = check_manifest()
    pins = {
        "seed": DEFAULT_SEED,
        "fig11-cold": fig11_pins(),
        "campaign-cold": campaign_pins(),
        "svc-mix": svc_pins(),
    }
    if write:
        with open(PINS_PATH, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {os.path.relpath(PINS_PATH, ROOT)}")
    else:
        with open(PINS_PATH) as f:
            committed = json.load(f)
        for section in ("fig11-cold", "campaign-cold", "svc-mix"):
            if committed.get(section) != pins[section]:
                bad = sorted(
                    k for k in set(pins[section]) | set(committed[section])
                    if committed[section].get(k) != pins[section].get(k))
                problems.append(f"{section} pins differ: {bad[:5]}")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
