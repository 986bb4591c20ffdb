"""Per-layer probes for a traced run, over a list of a workload's jobs.

Started by ``run.py`` as a fresh interpreter::

    python3 perfbench/layers.py <spec.json>

``spec["jobs"]`` holds wire-encoded jobs (the runner's own codec). Every
job runs in this process, one at a time, so a profiler started here sees
all of the work:

* a plain pass times the public calls of each layer per job
  (``make_rate_traces``, ``simulate``, the runner's security entry,
  ``run_campaign_cell``);
* the same pass again under ``cProfile`` gives self time per package
  and, against the plain pass, the tracing overhead;
* with ``spec["batch"]``, every simulation runs once more through
  ``simulate_batch(report=...)``, plain and profiled, and must equal the
  scalar result;
* micro-probes: ``locate`` and ``KCipher.encrypt_array`` per address,
  ``run_attack_batch`` activations per second, scenario compile time,
  and (``spec["obs"]``) observed simulations with metrics on and off.
"""

from __future__ import annotations

import cProfile
import time

from common import (
    Spans,
    child_main,
    digest,
    median,
    self_time_by_layer,
)
from unit import campaign_cell_name, fig11_kind

#: Routing reasons decided before the kernel starts (no kernel time spent).
STATIC_REASONS = {
    "observability", "max-events", "checkpoint", "open-page",
    "same-bank-refresh", "write-drain", "per-request-retry",
    "scalar-backend",
}

KERNEL_SEEDS = 32


def run(spec: dict) -> dict:
    from repro.analysis.runner import (
        CampaignJob,
        ExperimentRunner,
        Job,
        any_job_from_wire,
        default_requests,
    )
    from repro.cpu.system import simulate
    from repro.obs import Observability
    from repro.security.campaign import run_campaign_cell
    from repro.sim.config import SystemConfig
    from repro.workloads.catalog import WORKLOADS
    from repro.workloads.rate import make_rate_traces

    jobs = [any_job_from_wire(wire) for wire in spec["jobs"]]
    config = SystemConfig()
    runner = ExperimentRunner(config=config, jobs=1, use_cache=False)
    spans = Spans()
    traces_of = {}

    def one_pass():
        """Run every job once; returns (per-job seconds, sim results)."""
        per_job, results = [], {}
        for index, job in enumerate(jobs):
            start = time.perf_counter()
            if isinstance(job, Job):
                requests = job.requests or default_requests()
                with spans.span("workloads.make_rate_traces"):
                    traces = make_rate_traces(
                        WORKLOADS[job.workload], config,
                        requests=requests, seed=job.seed,
                    )
                traces_of[index] = traces
                obs = Observability(job.obs) if job.obs is not None else None
                with spans.span("sim.simulate",
                                kind=fig11_kind(job.setup, job.mapping)):
                    results[index] = simulate(
                        traces, job.setup, config, mapping=job.mapping,
                        seed=job.seed, obs=obs,
                    )
            elif isinstance(job, CampaignJob):
                with spans.span("security.run_campaign_cell",
                                cell=campaign_cell_name(job)):
                    run_campaign_cell(job)
            else:
                with spans.span("analysis.run_security"):
                    runner.run_security(job)
            per_job.append(time.perf_counter() - start)
        return per_job, results

    out = {"layers": {}, "failures": 0}
    layers = out["layers"]

    with spans.span("plain"):
        start = time.perf_counter()
        per_job, scalar = one_pass()
        plain_s = time.perf_counter() - start
    out["per_job_s"] = per_job
    profiler = cProfile.Profile()
    with spans.span("profiled"):
        start = time.perf_counter()
        profiler.enable()
        one_pass()
        profiler.disable()
        profiled_s = time.perf_counter() - start
    for layer, pct in self_time_by_layer(profiler).items():
        layers[f"self_pct.{layer}"] = pct
    layers["trace.overhead_pct"] = 100.0 * (profiled_s / plain_s - 1.0)

    sim_spans = [r for r in spans.records if r["name"] == "sim.simulate"]
    plain_sim = sim_spans[:len(scalar)]
    cycles = sum(r.stats.cycles for r in scalar.values())
    if cycles:
        layers["sim.scalar_ns_per_cycle"] = 1e9 * sum(
            r["end"] - r["start"] for r in plain_sim) / cycles

    if spec["batch"] and scalar:
        batch_layers(jobs, scalar, plain_sim, traces_of, config, spans, out)
    if spec["mapping"] and traces_of:
        mapping_layers(jobs, traces_of, config, layers)
    kernel_layers(jobs, layers)
    if spec["obs"]:
        observed = [(i, j) for i, j in enumerate(jobs)
                    if isinstance(j, Job) and j.obs is not None]
        if observed:
            on, off = [], []
            for _ in range(3):
                for index, job in observed:
                    for obs_on, samples in ((True, on), (False, off)):
                        obs = Observability(job.obs) if obs_on else None
                        start = time.perf_counter()
                        simulate(traces_of[index], job.setup, config,
                                 mapping=job.mapping, seed=job.seed, obs=obs)
                        samples.append(time.perf_counter() - start)
            layers["obs.overhead_pct"] = 100.0 * (sum(on) / sum(off) - 1.0)
    out["spans"] = spans.records
    return out


def batch_layers(jobs, scalar, plain_sim, traces_of, config, spans, out):
    from repro.analysis.runner import result_to_dict
    from repro.sim.batch import SimLane, simulate_batch

    layers = out["layers"]
    scalar_s = {index: record["end"] - record["start"]
                for record, index in zip(plain_sim, sorted(scalar))}

    def lanes_pass():
        entries = []
        for index in sorted(scalar):
            job = jobs[index]
            report = {}
            lane = SimLane(traces_of[index], setup=job.setup, config=config,
                           mapping=job.mapping, seed=job.seed)
            start = time.perf_counter()
            with spans.span("sim.simulate_batch"):
                result = simulate_batch([lane], report=report)[0]
            elapsed = time.perf_counter() - start
            if (digest(result_to_dict(result)["stats"])
                    != digest(result_to_dict(scalar[index])["stats"])):
                out["failures"] += 1
            entries.append((index, elapsed, report["lanes"][0],
                            result.stats.cycles))
        return entries

    entries = lanes_pass()
    kernel = [e for e in entries if e[2]["path"] == "kernel"]
    fallback = [e for e in entries if e[2]["path"] == "scalar"]
    layers["sim.lanes.kernel"] = len(kernel)
    layers["sim.lanes.scalar"] = len(fallback)
    layers["sim.fallback.rfm-command"] = sum(
        1 for e in fallback if e[2]["reason"] == "rfm-command")
    layers["sim.fallback.other"] = len(fallback) - layers[
        "sim.fallback.rfm-command"]
    layers["sim.fallback_waste_s"] = sum(
        max(0.0, elapsed - scalar_s[index])
        for index, elapsed, entry, _ in fallback
        if entry["reason"] not in STATIC_REASONS
    )
    kernel_cycles = sum(e[3] for e in kernel)
    if kernel_cycles:
        layers["sim.kernel_ns_per_cycle"] = 1e9 * sum(
            e[1] for e in kernel) / kernel_cycles
    profiler = cProfile.Profile()
    profiler.enable()
    lanes_pass()
    profiler.disable()
    for layer, pct in self_time_by_layer(profiler).items():
        layers[f"self_pct_batch.{layer}"] = pct


def mapping_layers(jobs, traces_of, config, layers):
    import numpy as np
    from repro.cpu.system import build_mapping

    locate_s = encrypt_s = 0.0
    locate_n = encrypt_n = 0
    for index, traces in sorted(traces_of.items()):
        job = jobs[index]
        mapping = build_mapping(job.mapping, config, seed=job.seed)
        addrs = [a for trace in traces for a in trace.addrs]
        start = time.perf_counter()
        for addr in addrs:
            mapping.locate(addr)
        locate_s += time.perf_counter() - start
        locate_n += len(addrs)
        cipher = getattr(mapping, "cipher", None)
        if cipher is not None:
            array = np.asarray(addrs, dtype=np.int64)
            start = time.perf_counter()
            cipher.encrypt_array(array)
            encrypt_s += time.perf_counter() - start
            encrypt_n += len(addrs)
    if locate_n:
        layers["mapping.locate_ns"] = 1e9 * locate_s / locate_n
    if encrypt_n:
        layers["mapping.encrypt_array_ns"] = 1e9 * encrypt_s / encrypt_n


def kernel_layers(jobs, layers):
    """``run_attack_batch`` rate on the jobs' own patterns, and scenario
    compile time."""
    from repro.analysis.runner import CampaignJob, SecurityJob
    from repro.payload import compile_scenario
    from repro.security.kernels import (
        build_pattern,
        policy_spec_from_string,
        run_attack_batch,
        tracker_spec_from_strings,
    )

    acts = 0
    seconds = 0.0
    compiles = []
    for job in jobs:
        if isinstance(job, CampaignJob):
            pattern = job.pattern_rows()
        elif isinstance(job, SecurityJob):
            pattern = (
                list(compile_scenario(job.scenario,
                                      params=dict(job.scenario_params),
                                      acts=job.acts).rows)
                if job.scenario is not None
                else build_pattern(job.attack, list(job.rows), job.acts)
            )
        else:
            continue
        if job.scenario is not None:
            for _ in range(5):
                start = time.perf_counter()
                compile_scenario(job.scenario,
                                 params=dict(job.scenario_params),
                                 acts=job.acts)
                compiles.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_attack_batch(
            [pattern], tracker_spec_from_strings(job.tracker, job.window),
            policy_spec_from_string(job.policy), window=job.window,
            seeds=KERNEL_SEEDS, rows_per_bank=job.rows_per_bank,
            blast_radius=job.blast_radius,
            refresh_interval_acts=job.refresh_interval_acts,
            collect_pressure=False,
        )
        seconds += time.perf_counter() - start
        acts += len(pattern) * KERNEL_SEEDS
    if seconds:
        layers["kernels.acts_per_s"] = acts / seconds
    if compiles:
        layers["payload.compile_ms"] = 1000.0 * median(compiles)


if __name__ == "__main__":
    child_main(run)
