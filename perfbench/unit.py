"""One cold unit of the fig11-cold or campaign-cold workload.

Started by ``run.py`` as a fresh interpreter with an empty result cache,
``REPRO_JOBS=2`` and ``PYTHONPATH=src``::

    python3 perfbench/unit.py <spec.json>

It runs the workload's timed call through the public entry point the
figure harness or campaign runner uses and writes timings, result
digests and (in traced runs) per-job spans to ``spec["out"]``. For
fig11-cold, ``spec["workloads"]`` names the catalog workloads whose five
cells the unit runs. ``mode="setup"`` stops right before the timed call,
which is how set-up time is sampled; ``mode="oracle"`` (campaign only)
runs ``oracle_campaign_cell`` instead.
"""

from __future__ import annotations

import os
import time

from common import (
    CAMPAIGN_CELLS,
    PAPER_FIG11,
    Spans,
    child_main,
    digest,
    fig11_setups,
    median,
    read_spans,
    sim_counts,
)


def fig11_kind(setup, mapping: str) -> str:
    for label, kind in fig11_setups().items():
        if kind == (setup, mapping):
            return label
    return "other"


#: ResultCache (get, put) method names per job kind.
CACHE_METHODS = {
    "sim": ("get", "put"),
    "security": ("get_security", "put_security"),
    "campaign": ("get_campaign", "put_campaign"),
}


def cache_timings(cache, items, put_dir):
    """Median ms of a ``ResultCache`` get over ``(key, kind)`` items, and
    of putting the same value into a second cache nothing reads."""
    from repro.analysis.runner import ResultCache

    spare = ResultCache(put_dir, cache.schema_version)
    gets, puts = [], []
    for key, kind in items:
        get, put = CACHE_METHODS[kind]
        start = time.perf_counter()
        value = getattr(cache, get)(key)
        gets.append(time.perf_counter() - start)
        if value is None:
            continue
        start = time.perf_counter()
        getattr(spare, put)(key, value)
        puts.append(time.perf_counter() - start)
    stats = cache.stats()
    return {
        "cache.get_ms": 1000.0 * median(gets),
        "cache.put_ms": 1000.0 * median(puts),
        "cache.entries": stats["results"],
        "cache.bytes": stats["total_bytes"],
    }


def runner_metrics(snapshot: dict) -> dict:
    """Phase times and job counts from ``profile_snapshot()``, summed over
    the three job kinds (security and campaign batches are counted as
    submitted: these workloads never repeat one)."""
    phases = snapshot["phases"]
    counts = snapshot["counts"]
    return {
        "runner.plan_s": phases.get("plan", {}).get("seconds", 0.0),
        "runner.execute_s": phases.get("execute", {}).get("seconds", 0.0),
        "runner.unique_jobs": sum(counts.get(name, 0) for name in (
            "unique_jobs", "security_jobs", "campaign_cells")),
        "runner.executed": sum(counts.get(name, 0) for name in (
            "executed", "security_executed", "campaign_executed")),
    }


# ----------------------------------------------------------------------
def fig11(spec: dict) -> dict:
    from repro.analysis import experiments
    from repro.analysis import runner as runner_module
    from repro.analysis.runner import Job, result_to_dict
    from repro.workloads.catalog import WORKLOADS as CATALOG

    # The harness's call (benchmarks/bench_fig11_rfm_vs_autorfm.py) over
    # ``spec["workloads"]`` in catalog order: a fixed subset for a timed
    # unit, or (None) the whole catalog for the full figure. The figure's
    # inputs are the paper's, so the seed does not change them.
    setups = fig11_setups()
    specs = [(label,) + setups[label]
             for label in ("rfm4", "auto4", "rfm8", "auto8")]
    workloads = [wl for wl in CATALOG
                 if spec.get("workloads") is None or wl in spec["workloads"]]
    if spec["traced"]:
        Spans(spec["dir"]).hook(
            runner_module, ("make_rate_traces", "simulate"),
            lambda name, args, kwargs: (
                {"kind": fig11_kind(args[1], kwargs["mapping"])}
                if name == "simulate" else {}
            ),
        )

    t_first = time.perf_counter()
    if spec["mode"] == "setup":
        return {"t_first": t_first}
    table = experiments.slowdown_matrix(workloads, specs)
    t_end = time.perf_counter()
    runner = experiments.runner()
    snapshot = runner.profile_snapshot()

    cells = {f"{wl}/{label}": Job(wl, setup, mapping)
             for wl in workloads for label, (setup, mapping) in setups.items()}
    # Every cell's result, answered by the cache the timed call filled.
    results = {name: runner.run(job) for name, job in cells.items()}

    averages = {
        label: sum(table[label][wl] for wl in workloads) / len(workloads)
        for label in PAPER_FIG11
    }
    out = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "digests": {name: digest(result_to_dict(r))
                    for name, r in results.items()},
        "averages": averages,
        "layers": dict(
            sim_counts(r.stats for r in results.values()),
            **{"model.paper_err_pp": 100.0 * sum(
                abs(averages[k] - PAPER_FIG11[k]) for k in PAPER_FIG11
            ) / len(PAPER_FIG11)},
        ),
    }
    if spec["traced"]:
        out["layers"].update(runner_metrics(snapshot))
        out["layers"].update(cache_timings(
            runner.cache, [(runner.key_for(j), "sim") for j in cells.values()],
            os.path.join(spec["dir"], "put-cache"),
        ))
        out["spans"] = read_spans(spec["dir"])
    return out


# ----------------------------------------------------------------------
def campaign_cell_name(job) -> str:
    for name, cell in CAMPAIGN_CELLS:
        if all(getattr(job, field) == value for field, value in cell.items()):
            return name
    return "other"


def campaign(spec: dict) -> dict:
    from repro.analysis import runner as runner_module
    from repro.analysis.runner import ExperimentRunner
    from repro.security.campaign import (
        CampaignJob,
        oracle_campaign_cell,
        summarize_campaign,
    )

    # The grid is the paper-side smoke grid; the seed does not change it.
    jobs = [CampaignJob(**cell) for _, cell in CAMPAIGN_CELLS]
    names = [name for name, _ in CAMPAIGN_CELLS]
    if spec["mode"] == "oracle":
        return {"oracle": {
            name: {
                "tolerated_threshold": ref["tolerated_threshold"],
                "probes": [[p["threshold"], p["verdict"]]
                           for p in ref["probes"]],
            }
            for name, ref in zip(names, map(oracle_campaign_cell, jobs))
        }}
    runner = ExperimentRunner()
    if spec["traced"]:
        Spans(spec["dir"]).hook(
            runner_module, ("run_campaign_cell",),
            lambda name, args, kwargs: {"cell": campaign_cell_name(args[0])},
        )

    t_first = time.perf_counter()
    if spec["mode"] == "setup":
        return {"t_first": t_first}
    records = runner.run_campaign_many(jobs)
    t_end = time.perf_counter()
    snapshot = runner.profile_snapshot()

    out = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "records": dict(zip(names, records)),
        "digests": {name: digest(r) for name, r in zip(names, records)},
    }
    if spec["traced"]:
        summary = summarize_campaign(records)
        out["layers"] = dict(runner_metrics(snapshot), **{
            "campaign.probes": summary["probes"],
            "campaign.seeds_spent": summary["seeds_spent"],
            "campaign.seeds_saved_pct": summary["seeds_saved_pct"],
        })
        out["layers"].update(cache_timings(
            runner.cache,
            [(runner.campaign_key_for(j), "campaign") for j in jobs],
            os.path.join(spec["dir"], "put-cache"),
        ))
        out["spans"] = read_spans(spec["dir"])
    return out


if __name__ == "__main__":
    child_main(lambda spec: {"fig11-cold": fig11,
                             "campaign-cold": campaign}[spec["workload"]](spec))
