"""The repository benchmark: three workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig11-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test      # regenerate pins, compare
    python3 perfbench/run.py --write-pins     # regenerate pins, store

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. A ``machine:`` line before it records
the box (cores, CPU, versions, commit, calibration-loop time). See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from common import (
    CAMPAIGN_CELLS,
    Calibrator,
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    PINS_PATH,
    ROOT,
    SRC,
    WORK,
    WORKERS,
    WORKLOADS,
    fig11_setups,
    machine_record,
    median,
    peak_rss_mb,
    percentile,
    run_child,
    sim_counts,
    with_self_time,
    write_spans,
)

#: Set-up samples per run (the median is reported).
SETUP_SAMPLES = 7
#: Timed units per run at least, however short ``--seconds`` is.
MIN_UNITS = 2
#: Catalog workloads whose five Fig. 11 cells form one timed fig11-cold
#: unit: one SPEC, one GAP and one STREAM workload. The traced run
#: computes the whole figure.
FIG11_UNIT_WORKLOADS = ("mcf", "PageRank", "add")
#: Per-unit child timeout; a run must finish within 180 s.
UNIT_TIMEOUT = 150.0
#: Fig. 11 workloads whose five cells the traced run profiles in-process.
FIG11_PROFILE_WORKLOADS = ("mcf", "bwaves")
#: Fresh svc-mix jobs the traced run replays in-process.
SVC_PROFILE_JOBS = 24


class Run:
    """One benchmark invocation: its directory, counts and spans."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.id = f"{workload}-{seed}-{os.getpid()}"
        self.dir = os.path.join(WORK, self.id)
        self.attempted = 0
        self.failed = 0
        self.layers = {}
        self.spans = []
        self._children = 0
        self.cal = None  # the Calibrator, set by main()
        os.makedirs(self.dir)
        self.machine = machine_record()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"{self.workload}: wrong output: {what}", file=sys.stderr)

    def child(self, script: str, spec: dict) -> dict:
        self._children += 1
        directory = os.path.join(self.dir, f"c{self._children}")
        os.makedirs(directory)
        spec = dict(spec, workload=self.workload, seed=self.seed,
                    dir=directory, cache_dir=os.path.join(directory, "cache"))
        return run_child(script, spec, os.path.join(directory, "spec.json"),
                         UNIT_TIMEOUT)

    def unit(self, mode: str = "unit", traced: bool = False,
             **spec) -> dict:
        out = self.child("unit.py", dict(spec, mode=mode, traced=traced))
        if "t_first" in out:
            out["setup_s"] = out["t_first"] - out["t_spawn"]
        return out


def load_pins() -> dict:
    try:
        with open(PINS_PATH) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def setup_probes(run: Run, count: int) -> list:
    """Set-up times of ``count`` interpreters stopped before timing."""
    return [run.unit(mode="setup")["setup_s"] for _ in range(count)]


def timed_units(run: Run, **spec) -> list:
    """Cold units, repeated until ``--seconds`` have passed, with a
    calibration before the first and after each."""
    deadline = time.perf_counter() + run.seconds
    units = []
    run.cal.measure()
    while len(units) < MIN_UNITS or time.perf_counter() < deadline:
        units.append(run.unit(**spec))
        run.cal.measure()
    print(f"{run.workload}: unit wall_s (n={len(units)}) "
          + " ".join(f"{u['wall_s']:.3f}" for u in units))
    return units


def reference_times(run: Run, setups, walls) -> dict:
    """``setup_s`` and ``wall_s``: medians in host seconds, scaled to
    reference seconds by the run's calibrations."""
    scale = run.cal.scale()
    print(f"{run.workload}: host medians setup_s {median(setups):.4f}, "
          f"wall_s {median(walls):.4f}; calibration kernel median "
          f"{median(run.cal.samples):.4f} s (n={len(run.cal.samples)}), "
          f"scale {scale:.4f}")
    return dict(setup_s=scale * median(setups), wall_s=scale * median(walls))


def unit_times(run: Run, units) -> dict:
    """Reference ``setup_s`` over the units and extra set-up-only probes,
    and reference ``wall_s`` over the units."""
    setups = [u["setup_s"] for u in units]
    setups += setup_probes(run, SETUP_SAMPLES - len(setups))
    return reference_times(run, setups, [u["wall_s"] for u in units])


def tail_summary(values, scale: float, unit: str) -> str:
    """Median and the highest of p90/p99/p99.9 that has at least 10
    samples beyond it, with the sample count."""
    text = f"p50 {scale * median(values):.3f} {unit}"
    tails = [q for q in (90, 99, 99.9) if len(values) * (1 - q / 100) >= 10]
    if tails:
        text += (f", p{tails[-1]:g} "
                 f"{scale * percentile(values, tails[-1]):.3f} {unit}")
    return text + f" (n={len(values)})"


def job_span_seconds(spans):
    """Per-job host seconds from worker spans: a ``simulate`` span plus
    the ``make_rate_traces`` span just before it in the same process."""
    jobs = []
    pending = {}
    for span in sorted(spans, key=lambda s: (s["pid"], s["start"])):
        seconds = span["end"] - span["start"]
        if span["name"] == "make_rate_traces":
            pending[span["pid"]] = seconds
        elif span["name"] == "simulate":
            jobs.append((span, seconds + pending.pop(span["pid"], 0.0)))
        elif span["name"] in ("run_campaign_cell", "run_attack_batch"):
            jobs.append((span, seconds))
    return jobs


def pool_layers(layers: dict, spans) -> None:
    """Cell times, trace generation and pool idleness from worker spans."""
    jobs = job_span_seconds(spans)
    by_kind = {}
    for span, seconds in jobs:
        if span["name"] == "simulate":
            by_kind.setdefault(span["kind"], []).append(seconds)
    for kind, values in by_kind.items():
        layers[f"sim.cell_s.{kind}"] = sum(values) / len(values)
    layers["workloads.tracegen_s"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "make_rate_traces")
    busy = sum(seconds for _, seconds in jobs)
    execute = layers.get("runner.execute_s", 0.0)
    if execute:
        layers["runner.pool_idle_pct"] = max(
            0.0, 100.0 * (1.0 - busy / (WORKERS * execute)))


# ----------------------------------------------------------------------
# fig11-cold
# ----------------------------------------------------------------------
def fig11(run: Run) -> dict:
    pins = load_pins().get("fig11-cold", {})
    if run.traced:
        # The whole figure, once, with spans on.
        unit = run.unit(traced=True, workloads=None)
        units = [unit]
    else:
        units = timed_units(run, workloads=FIG11_UNIT_WORKLOADS)
    for unit in units:
        for name, value in sorted(unit["digests"].items()):
            run.check(pins.get(name) == value, f"Fig. 11 cell {name} digest")
    if not run.traced:
        return unit_times(run, units)
    print(f"fig11-cold: averages "
          + ", ".join(f"{k} {100 * v:.2f}%"
                      for k, v in unit["averages"].items())
          + f"; paper error {unit['layers']['model.paper_err_pp']:.2f} pp")
    run.layers.update(unit["layers"])
    run.spans.extend(unit["spans"])
    pool_layers(run.layers, unit["spans"])
    layer_probe(run, fig11_profile_jobs(), batch=True, mapping=True)
    return {}


def fig11_profile_jobs() -> list:
    sys.path.insert(0, SRC)
    from repro.analysis.runner import Job, any_job_to_wire

    return [any_job_to_wire(Job(workload, setup, mapping))
            for workload in FIG11_PROFILE_WORKLOADS
            for setup, mapping in fig11_setups().values()]


def layer_probe(run: Run, wire_jobs, batch=False, mapping=False,
                obs=False) -> dict:
    out = run.child("layers.py", dict(jobs=wire_jobs, batch=batch,
                                      mapping=mapping, obs=obs))
    for _ in range(out["failures"]):
        run.check(False, "batch backend differs from the scalar engine")
    for layer, value in out["layers"].items():
        run.layers.setdefault(layer, value)
    run.spans.extend(out["spans"])
    return out


# ----------------------------------------------------------------------
# campaign-cold
# ----------------------------------------------------------------------
def campaign(run: Run) -> dict:
    pins = load_pins().get("campaign-cold", {})
    units = [run.unit(traced=True)] if run.traced else timed_units(run)
    if not run.traced:
        metrics = dict(unit_times(run, units),
                       peak_rss_mb=peak_rss_mb())  # before the oracle below
    oracles = run.unit(mode="oracle")["oracle"]
    first = units[0]
    for name, _ in CAMPAIGN_CELLS:
        record = first["records"][name]
        oracle = oracles[name]
        pin = pins.get(name, {})
        probes = [[p["threshold"], p["verdict"]] for p in record["probes"]]
        run.check(record["tolerated_threshold"]
                  == oracle["tolerated_threshold"]
                  and probes == oracle["probes"],
                  f"campaign cell {name} differs from oracle_campaign_cell")
        run.check(oracle == {"tolerated_threshold":
                             pin.get("tolerated_threshold"),
                             "probes": pin.get("probes")},
                  f"campaign cell {name} oracle differs from its pin")
        for unit in units:
            run.check(unit["digests"][name] == pin.get("record"),
                      f"campaign cell {name} record digest")
    if run.traced:
        unit = units[0]
        run.layers.update(unit["layers"])
        run.spans.extend(unit["spans"])
        pool_layers(run.layers, unit["spans"])
        for span, seconds in job_span_seconds(unit["spans"]):
            run.layers[f"campaign.cell_s.{span['cell']}"] = seconds
        layer_probe(run, campaign_wire_jobs())
        return {}
    return metrics


def campaign_wire_jobs() -> list:
    sys.path.insert(0, SRC)
    from repro.analysis.runner import any_job_to_wire
    from repro.security.campaign import CampaignJob

    return [any_job_to_wire(CampaignJob(**cell)) for _, cell in CAMPAIGN_CELLS]


# ----------------------------------------------------------------------
# svc-mix
# ----------------------------------------------------------------------
def svc(run: Run) -> dict:
    sys.path.insert(0, SRC)
    import svcmix
    from repro.analysis.runner import ResultCache, any_job_to_wire

    reads, fresh, rng = svcmix.universe(run.seed)
    plan = svcmix.batches(reads, fresh, rng)
    outcome = svcmix.Outcome()
    for index in range(svcmix.LIFETIMES):
        svcmix.run_lifetime(os.path.join(run.dir, f"daemon{index}"), reads,
                            plan, run.seconds / svcmix.LIFETIMES, outcome,
                            run.traced, run.cal.measure)
    rss_mb = peak_rss_mb()  # before the in-process oracle below
    shares = svcmix.traffic_check(outcome)
    run.attempted += outcome.attempted
    run.failed += outcome.failed
    print("svc-mix: measured shares "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
          + f"; planned {outcome.planned}; daemon "
          + ", ".join(f"{k}={outcome.counters.get(k, 0)}"
                      for k in ("svc.cache_hits", "svc.cache_misses",
                                "svc.jobs_deduped")))
    print("svc-mix: hit latency " + tail_summary(outcome.hit_s, 1000.0, "ms")
          + "; cold latency "
          + tail_summary([s for _, s in outcome.cold_s], 1.0, "s"))

    hooks_dir = os.path.join(run.dir, "oracle-spans")
    if run.traced:
        os.makedirs(hooks_dir)
    expected, oracle_runner, sims = svcmix.oracle_digests(
        outcome.entries.values(), hooks_dir if run.traced else None)
    pins = (load_pins().get("svc-mix", {})
            if run.seed == DEFAULT_SEED else {})
    for key, (kind, payload) in outcome.payloads.items():
        got = svcmix.payload_digest(kind, payload)
        run.check(got == expected.get(key),
                  f"svc-mix {kind} result {key[:12]} differs from the "
                  f"in-process runner")
        if key in pins:
            run.check(got == pins[key], f"svc-mix result {key[:12]} pin")
    if not run.traced:
        return dict(reference_times(run, outcome.setups, outcome.unit_s),
                    peak_rss_mb=rss_mb)

    from unit import cache_timings, read_spans, runner_metrics

    layers = run.layers
    spans = read_spans(hooks_dir)
    run.spans.extend(spans)
    layers.update(runner_metrics(oracle_runner.profile_snapshot()))
    pool_layers(layers, spans)
    layers.update(sim_counts(r.stats for r in sims))
    layers.update(cache_timings(
        ResultCache(os.path.join(run.dir, "daemon0", "cache")),
        [(entry.key, entry.kind) for entry in reads],
        os.path.join(run.dir, "put-cache")))

    layers["svc.ping_ms"] = 1000.0 * median(outcome.ping_s)
    layers["svc.submit_ms"] = 1000.0 * median(outcome.submit_s)
    layers["svc.result_hit_ms"] = 1000.0 * median(outcome.result_hit_s)
    hits_ms = [1000.0 * s for s in outcome.hit_s]
    layers["svc.hit_p50_ms"] = median(hits_ms)
    layers["svc.hit_p90_ms"] = percentile(hits_ms, 90)
    cold = dict(outcome.cold_s)
    layers["svc.cold_p50_s"] = median(list(cold.values()))
    for name in ("cache_hits", "cache_misses", "jobs_deduped",
                 "jobs_retried", "jobs_failed", "worker_restarts"):
        layers[f"svc.{name}"] = outcome.counters.get(f"svc.{name}", 0)
    layers["svc.dedup_ratio"] = (
        outcome.counters.get("svc.jobs_deduped", 0)
        / max(1, outcome.planned["followers"]))
    for name, value in shares.items():
        layers[f"svc.share.{name}"] = value

    sample = [key for key, _ in outcome.cold_s[:SVC_PROFILE_JOBS]]
    probe = layer_probe(
        run, [any_job_to_wire(outcome.entries[k].job) for k in sample],
        batch=True, mapping=True, obs=True)
    layers["svc.cold_overhead_s"] = (
        median([cold[k] for k in sample]) - median(probe["per_job_s"]))
    return {}


# ----------------------------------------------------------------------
def run_workload(run: Run) -> dict:
    metrics = {"fig11-cold": fig11, "campaign-cold": campaign,
               "svc-mix": svc}[run.workload](run)
    if run.traced:
        layers = run.layers
        layers["machine.calib_ms"] = run.machine["calib_ms"]
        missing = sorted(name for name in PER_LAYER if name not in layers)
        if missing:
            print(f"{run.workload}: not exercised on this workload "
                  f"(reported as 0): {', '.join(missing)}")
        return {name: {"value": float(layers.get(name, 0.0)),
                       "unit": unit} for name, unit in PER_LAYER.items()}
    metrics.setdefault("peak_rss_mb", peak_rss_mb())
    return {name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    tempfile.tempdir = None
    if args.self_test or args.write_pins:
        import selftest

        return selftest.main(write=args.write_pins)
    if args.workload is None:
        parser.error("--workload is required")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine: " + json.dumps(run.machine, sort_keys=True))
    try:
        run.cal = Calibrator()
        try:
            metrics = run_workload(run)
        except Exception as exc:  # noqa: BLE001 - report, then fail the run
            print(f"{run.workload}: run failed: {exc!r}", file=sys.stderr)
            run.attempted += 1
            run.failed += 1
            metrics = {}
        if run.spans:
            path = os.path.join(WORK, f"spans-{run.id}.jsonl")
            write_spans(path, with_self_time(run.spans, run.id))
            print(f"spans: {os.path.relpath(path, ROOT)}")
    finally:
        if run.cal is not None:
            run.cal.close()
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
