"""Shared helpers for the benchmark: paths, metric catalogue, statistics,
digests, spans, profiler grouping and the machine record.

Everything here is importable from both the entry point (``run.py``) and the
child interpreters it starts (``unit.py``, ``layers.py``); importing it
starts nothing and touches no file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import pstats
import resource
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from importlib.metadata import PackageNotFoundError, version
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PINS_PATH = os.path.join(HERE, "pins.json")

#: The seed the committed pins were generated for.
DEFAULT_SEED = 1

WORKLOADS = ("fig11-cold", "campaign-cold", "svc-mix")

#: Worker processes and daemon workers: the reference box has 2 cores.
WORKERS = 2

#: Calibration kernel iterations per process, and the kernel time that
#: defines a reference second (see ``Calibrator``): about the kernel's
#: time on the reference box when the host is quiet.
CAL_ITERATIONS = 1_500_000
CAL_REF_S = 0.15

# ----------------------------------------------------------------------
# Metric catalogue (BENCHMARK.json is checked against it by --self-test)
# ----------------------------------------------------------------------
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Packages self time is grouped by (``other`` = stdlib and the rest).
SELF_LAYERS = (
    "mc", "cpu", "mapping", "sim", "dram", "core", "trackers", "rfm",
    "workloads", "security", "payload", "analysis", "obs", "numpy",
    "builtins", "other",
)

#: Fig. 11 cell kinds: label -> (mechanism, threshold, policy, mapping).
FIG11_KINDS = {
    "rfm4": ("rfm", 4, None, "zen"),
    "rfm8": ("rfm", 8, None, "zen"),
    "auto4": ("autorfm", 4, "fractal", "rubix"),
    "auto8": ("autorfm", 8, "fractal", "rubix"),
    "base": ("none", None, None, "zen"),
}

def fig11_setups() -> Dict[str, tuple]:
    """Label -> ``(MitigationSetup, mapping)`` for the Fig. 11 cell kinds."""
    from repro.mc.setup import MitigationSetup

    out = {}
    for label, (mechanism, threshold, policy, mapping) in FIG11_KINDS.items():
        options = {"threshold": threshold, "policy": policy}
        out[label] = (
            MitigationSetup(mechanism, **{k: v for k, v in options.items()
                                          if v is not None}),
            mapping,
        )
    return out


#: The campaign smoke grid (``CELLS`` in benchmarks/bench_campaign_smoke.py;
#: --self-test checks the two stay equal), with a stable name per cell.
CAMPAIGN_CELLS = (
    ("mint-fractal", dict(tracker="mint", policy="fractal", window=4,
                          acts=1500, max_seeds=80)),
    ("mint-blast", dict(tracker="mint", policy="blast", window=4,
                        acts=1500, max_seeds=80)),
    ("para-fractal", dict(tracker="para", policy="fractal", window=4,
                          acts=1500, max_seeds=80)),
    ("graphene-fractal", dict(tracker="graphene", policy="fractal",
                              window=4, acts=1500, max_seeds=80)),
    ("row_press", dict(scenario="row_press", acts=2000, max_seeds=120)),
    ("abcd_k", dict(scenario="abcd_k", acts=2000, max_seeds=120)),
)

SVC_SHARES = ("reads", "fresh", "followers", "sim", "security", "campaign")

PER_LAYER: Dict[str, str] = {
    "runner.plan_s": "s",
    "runner.execute_s": "s",
    "runner.unique_jobs": "count",
    "runner.executed": "count",
    "runner.pool_idle_pct": "%",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.entries": "count",
    "cache.bytes": "B",
    "workloads.tracegen_s": "s",
    "mapping.locate_ns": "ns",
    "mapping.encrypt_array_ns": "ns",
    "sim.lanes.kernel": "count",
    "sim.lanes.scalar": "count",
    "sim.fallback.rfm-command": "count",
    "sim.fallback.other": "count",
    "sim.fallback_waste_s": "s",
    "sim.scalar_ns_per_cycle": "ns",
    "sim.kernel_ns_per_cycle": "ns",
    **{f"sim.cell_s.{kind}": "s" for kind in FIG11_KINDS},
    "sim.cycles": "count",
    "dram.acts": "count",
    "core.alerts": "count",
    "rfm.commands": "count",
    "trackers.mitigations": "count",
    "model.paper_err_pp": "pp",
    **{f"self_pct.{layer}": "%" for layer in SELF_LAYERS},
    **{f"self_pct_batch.{layer}": "%" for layer in SELF_LAYERS},
    **{f"campaign.cell_s.{name}": "s" for name, _ in CAMPAIGN_CELLS},
    "campaign.probes": "count",
    "campaign.seeds_spent": "count",
    "campaign.seeds_saved_pct": "%",
    "kernels.acts_per_s": "acts/s",
    "payload.compile_ms": "ms",
    "svc.ping_ms": "ms",
    "svc.submit_ms": "ms",
    "svc.result_hit_ms": "ms",
    "svc.hit_p50_ms": "ms",
    "svc.hit_p90_ms": "ms",
    "svc.cold_p50_s": "s",
    "svc.cold_overhead_s": "s",
    "svc.cache_hits": "count",
    "svc.cache_misses": "count",
    "svc.jobs_deduped": "count",
    "svc.jobs_retried": "count",
    "svc.jobs_failed": "count",
    "svc.worker_restarts": "count",
    "svc.dedup_ratio": "fraction",
    **{f"svc.share.{name}": "fraction" for name in SVC_SHARES},
    "obs.overhead_pct": "%",
    "trace.overhead_pct": "%",
    "machine.calib_ms": "ms",
}

#: Paper-reported Fig. 11 averages (fractions).
PAPER_FIG11 = {"rfm4": 0.33, "auto4": 0.031, "rfm8": 0.129, "auto8": 0.023}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sim_counts(stats) -> Dict[str, int]:
    """Simulated counts summed over ``SimStats``; exact and deterministic."""
    stats = list(stats)
    return {
        "sim.cycles": sum(s.cycles for s in stats),
        "dram.acts": sum(s.total_activations for s in stats),
        "core.alerts": sum(s.total_alerts for s in stats),
        "rfm.commands": sum(s.total_rfm_commands for s in stats),
        "trackers.mitigations": sum(s.total_mitigations for s in stats),
    }


def digest(obj: object) -> str:
    """Short stable content hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for descendant, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# Child interpreters
# ----------------------------------------------------------------------
def child_env(cache_dir: Optional[str] = None) -> Dict[str, str]:
    """Environment for every interpreter the benchmark starts.

    The result cache always points into the run's own directory, so the
    checkout's ``benchmarks/results/.cache`` is never read; knobs that
    would change the workload are cleared.
    """
    env = dict(os.environ)
    for name in ("REPRO_CACHE", "REPRO_CACHE_MAX_MB", "REPRO_REQUESTS",
                 "REPRO_SVC_SOCKET", "REPRO_LOCATE_CACHE"):
        env.pop(name, None)
    env["PYTHONPATH"] = SRC
    env["REPRO_JOBS"] = str(WORKERS)
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = cache_dir
    return env


def run_child(script: str, spec: dict, spec_path: str,
              timeout: float) -> dict:
    """Run ``python3 perfbench/<script> <spec>``; returns its JSON output.

    ``spec["t_spawn"]`` is set to the moment just before the interpreter
    starts, on the system-wide monotonic clock the child reads too. The
    child gets its own process group, so a timeout also stops its pool
    workers.
    """
    out_path = spec_path + ".out.json"
    spec = dict(spec, out=out_path)
    spec["t_spawn"] = time.perf_counter()
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), spec_path],
        cwd=ROOT, env=child_env(spec.get("cache_dir")),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{script} timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise RuntimeError(
            f"{script} exited {proc.returncode}: " + " | ".join(tail)
        )
    with open(out_path) as f:
        result = json.load(f)
    result["t_spawn"] = spec["t_spawn"]
    return result


def child_main(run) -> None:
    """Entry point body for a child script: spec in, JSON out."""
    sys.path.insert(0, SRC)
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    result = run(spec)
    with open(spec["out"], "w") as f:
        json.dump(result, f)


# ----------------------------------------------------------------------
# Spans and profiles (traced runs only)
# ----------------------------------------------------------------------
class Spans:
    """Span log: name, start, end, parent span id, pid and attributes.

    Spans are kept in memory. With ``sink_dir`` set, each finished span is
    also appended to ``spans-<pid>.jsonl`` there: that is how spans from
    pool workers forked after :meth:`hook` reach the parent
    (:func:`read_spans`), whether or not a worker exits cleanly.
    """

    def __init__(self, sink_dir: Optional[str] = None):
        self.sink_dir = sink_dir
        self.records: List[dict] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str, **attrs: object):
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "id": f"{os.getpid()}-{len(self.records)}",
            "parent": self._stack[-1] if self._stack else None,
            "pid": os.getpid(), **attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            if self.sink_dir is not None:
                path = os.path.join(self.sink_dir,
                                    f"spans-{os.getpid()}.jsonl")
                with open(path, "a") as f:
                    f.write(json.dumps(record) + "\n")

    def hook(self, module, names: Sequence[str], attrs_of=None) -> None:
        """Time every call made through ``module.<name>`` as a span.

        ``attrs_of(name, args, kwargs)`` returns extra span attributes.
        """
        for name in names:
            original = getattr(module, name)

            def timed(*args, _name=name, _original=original, **kwargs):
                attrs = attrs_of(_name, args, kwargs) if attrs_of else {}
                with self.span(_name, **attrs):
                    return _original(*args, **kwargs)

            setattr(module, name, timed)


def read_spans(span_dir: str) -> List[dict]:
    """Every span a :class:`Spans` with ``sink_dir=span_dir`` wrote."""
    spans = []
    for entry in sorted(os.listdir(span_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(span_dir, entry)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def with_self_time(records: List[dict], run_id: str) -> List[dict]:
    """Each span with its run id and ``self_s``: its duration minus the
    union of the intervals its child spans cover."""
    children: Dict[str, List[dict]] = {}
    for record in records:
        if record.get("parent") is not None:
            children.setdefault(record["parent"], []).append(record)
    out = []
    for record in records:
        covered = 0.0
        cursor = record["start"]
        for child in sorted(children.get(record["id"], []),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], record["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(dict(
            record, run=run_id,
            self_s=record["end"] - record["start"] - covered,
        ))
    return out


def write_spans(path: str, records: Iterable[dict]) -> None:
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def layer_of(filename: str, funcname: str) -> str:
    """Map a profiler entry to the package it belongs to."""
    if filename == "~":
        return "numpy" if "numpy" in funcname else "builtins"
    path = filename.replace(os.sep, "/")
    if "/numpy/" in path:
        return "numpy"
    marker = "/repro/"
    if marker in path:
        rest = path.rsplit(marker, 1)[1]
        package = rest.split("/", 1)[0]
        if package in SELF_LAYERS:
            return package
    return "other"


def self_time_by_layer(profiler) -> Dict[str, float]:
    """Percent of profiled self time per package (sums to 100)."""
    stats = pstats.Stats(profiler)
    totals = {layer: 0.0 for layer in SELF_LAYERS}
    for (filename, _, funcname), entry in stats.stats.items():
        totals[layer_of(filename, funcname)] += entry[2]  # tottime
    whole = sum(totals.values()) or 1.0
    return {layer: 100.0 * seconds / whole
            for layer, seconds in totals.items()}


# ----------------------------------------------------------------------
# Machine record
# ----------------------------------------------------------------------
def calibration_kernel(iterations: int) -> float:
    """Seconds one process takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def calibration_ms() -> float:
    """Median time of the calibration loop (300k iterations, 3 repeats),
    in ms."""
    return 1000.0 * median([calibration_kernel(300_000) for _ in range(3)])


class Calibrator:
    """Times the calibration kernel on ``WORKERS`` processes at once.

    On a shared host the speed of each core can move in steps of tens of
    percent that last from seconds to minutes, and every timing moves
    with it. A timed run therefore calibrates before its first unit and
    after every unit, while no unit runs, on as many processes as a unit
    has workers. Its medians are then scaled by :meth:`scale`, so they
    read as seconds on a host where the kernel takes ``CAL_REF_S``.
    """

    def __init__(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=WORKERS)
        self.samples: List[float] = []

    def measure(self) -> None:
        """One calibration: mean kernel seconds over the processes."""
        times = list(self.pool.map(calibration_kernel,
                                   [CAL_ITERATIONS] * WORKERS))
        self.samples.append(sum(times) / len(times))

    def scale(self) -> float:
        """Factor from host seconds to reference seconds."""
        return CAL_REF_S / median(self.samples)

    def close(self) -> None:
        self.pool.shutdown(wait=True)


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "calib_ms": calibration_ms(),
    }
