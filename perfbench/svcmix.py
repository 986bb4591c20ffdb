"""svc-mix: one closed-loop client driving a ``repro serve`` daemon.

The daemon runs in its own process group with a private socket and cache
under the run's directory and ``--workers 2``. Each daemon lifetime:

1. set-up (timed as ``setup_s``): start the daemon, wait for ``ping``,
   then warm-fill the read keys (the workers execute them);
2. closed loop: submit one batch, wait for every result, submit the next;
3. read the daemon's counters (``cache`` op), stop it with ``shutdown``,
   and count any worker left alive in its process group as a failure.

Every batch has the same shape. The client first submits ``HITS`` keys
from the warm-filled read set and collects their results, then submits
fresh key A, ``FOLLOWERS`` duplicates of A and fresh key B, in that order,
and collects those. With both worker slots free when the writes arrive,
the daemon starts A, merges A's duplicates into A while it runs, and
starts B, so the daemon's own hit and dedup counters must equal the plan
exactly. Reads go first so that hit latency measures the cache-hit path,
not the event-loop time the daemon spends forking the batch's workers
(that cost shows in ``wall_s``).

Where the traffic comes from. The job shapes follow the repository's own
daemon clients: sim jobs are 300-request slices, the size
``benchmarks/bench_svc_smoke.py`` submits; reads are resubmissions of
finished keys, as in that benchmark's warm loop and ``repro campaign
report``; campaign cells are small ``CampaignJob`` grids as ``repro
campaign run --socket`` submits. The shares between roles (6 reads :
2 fresh : 2 followers per batch) and between kinds (6 sim : 2 security :
2 campaign per 10 fresh keys, every third sim job observed, 30 % of
security jobs on a corpus scenario) come from no measured daemon log:
they are assumed. Judge a daemon change by the per-role metrics of the
traced run (``svc.hit_p50_ms``, ``svc.cold_p50_s``) as well as by the
mix-weighted ``wall_s``.

The seed draws the workload, configuration, simulation seed, tracker,
policy, rows and scenario of every key; the fresh-key stream never runs
out, and its first ``PINNED_FRESH`` keys are pinned at the default seed.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from common import (
    ROOT,
    WORKERS,
    Spans,
    child_env,
    digest,
    fig11_setups,
)

LIFETIMES = 3
HITS = 6
FOLLOWERS = 2
#: Batches per timed unit (``wall_s`` is the median unit time).
UNIT_BATCHES = 8
#: Simulated requests per sim job (``REQUESTS`` in bench_svc_smoke.py).
SIM_REQUESTS = 300
#: Fresh keys of the default seed whose results are pinned.
PINNED_FRESH = 400
KIND_CYCLE = ("sim", "security", "sim", "campaign", "sim",
              "sim", "security", "sim", "campaign", "sim")
READ_KINDS = ("sim",) * 8 + ("security",) * 2 + ("campaign",) * 2
#: Every third sim job is observed (metrics on).
OBSERVED_EVERY = 3
TRACKERS = ("mint", "graphene", "para")
POLICIES = ("fractal", "blast")
ATTACKS = ("double_sided", "single_sided", "half_double")
SCENARIOS = ("half_double", "double_sided", "single_sided")


def key_of(job) -> str:
    from repro.analysis.runner import (
        CampaignJob,
        Job,
        campaign_job_key,
        job_key,
        security_job_key,
    )
    from repro.sim.config import SystemConfig

    if isinstance(job, Job):
        return job_key(job, SystemConfig(), job.requests)
    if isinstance(job, CampaignJob):
        return campaign_job_key(job)
    return security_job_key(job)


class Entry(NamedTuple):
    job: object
    key: str
    kind: str


def make_job(rng: random.Random, kind: str, observed: bool):
    from repro.analysis.runner import CampaignJob, Job, SecurityJob
    from repro.obs import ObsConfig
    from repro.workloads.catalog import WORKLOADS

    if kind == "sim":
        setups = fig11_setups()
        setup, mapping = setups[rng.choice(sorted(setups))]
        return Job(
            rng.choice(sorted(WORKLOADS)), setup, mapping,
            requests=SIM_REQUESTS,
            seed=rng.randrange(1, 1_000_000),
            obs=ObsConfig(metrics=True) if observed else None,
        )
    if kind == "security":
        common = dict(tracker=rng.choice(TRACKERS),
                      policy=rng.choice(POLICIES), window=4,
                      acts=1000, seeds=8)
        if rng.random() < 0.3:
            return SecurityJob(scenario=rng.choice(SCENARIOS), **common)
        return SecurityJob(attack=rng.choice(ATTACKS),
                           rows=(rng.randrange(1_000, 120_000),), **common)
    return CampaignJob(
        tracker=rng.choice(TRACKERS), policy=rng.choice(POLICIES), window=4,
        acts=500, max_seeds=40,
        base_row=rng.randrange(1_000, 120_000),
    )


def universe(seed: int):
    """The seed's read set (an ``Entry`` list), its endless fresh-key
    stream (an ``Entry`` iterator; every key distinct from all others),
    and the rng that samples reads per batch."""
    rng = random.Random(seed)
    seen = set()
    sims = 0

    def draw(kind: str) -> Entry:
        nonlocal sims
        observed = kind == "sim" and sims % OBSERVED_EVERY == 0
        sims += kind == "sim"
        while True:
            job = make_job(rng, kind, observed)
            key = key_of(job)
            if key not in seen:
                seen.add(key)
                return Entry(job, key, kind)

    def fresh() -> Iterator[Entry]:
        for index in itertools.count():
            yield draw(KIND_CYCLE[index % len(KIND_CYCLE)])

    reads = [draw(kind) for kind in READ_KINDS]
    return reads, fresh(), random.Random(seed + 1)


def batches(reads, fresh: Iterator[Entry], rng):
    """Endless batch plan: (reads, writes) lists of (entry, role) pairs."""
    while True:
        first, second = next(fresh), next(fresh)
        yield ([(entry, "read") for entry in rng.sample(reads, HITS)],
               [(first, "fresh")] + [(first, "follower")] * FOLLOWERS
               + [(second, "fresh")])


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


class Daemon:
    """A ``repro serve`` process in its own process group."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        # Relative to the checkout root (both processes run there): Unix
        # socket paths are limited to ~107 bytes.
        self.socket = os.path.relpath(os.path.join(directory, "svc.sock"),
                                      ROOT)
        self.cache_dir = os.path.join(directory, "cache")
        self.proc: Optional[subprocess.Popen] = None
        self.log = None

    def start(self) -> None:
        self.log = open(os.path.join(self.directory, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", str(WORKERS), "--cache-dir", self.cache_dir],
            cwd=ROOT, env=child_env(self.cache_dir), stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )

    def connect(self, timeout: float = 30.0):
        from repro.svc import ServiceError, SweepClient
        from repro.svc.protocol import ProtocolError

        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {self.proc.returncode} before ping")
            try:
                client = SweepClient(self.socket)
            except OSError:
                client = None
            if client is not None:
                try:
                    client.ping()
                    return client
                except (OSError, ServiceError, ProtocolError):
                    client.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not answer ping")
            time.sleep(0.01)

    def stop(self, client) -> int:
        """Shut down with the ``shutdown`` op, then kill whatever is left
        of the process group; returns the failures (a daemon that had to
        be killed, each worker that outlived it)."""
        failures = 0
        if client is not None:
            # A dead daemon's workers still hold the connection, so a
            # shutdown sent to it would block until they finish.
            if self.proc.poll() is not None:
                failures += 1
            else:
                try:
                    client.shutdown()
                except Exception:  # noqa: BLE001 - fall through to the kill
                    failures += 1
            client.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            failures += 1
        pgid = self.proc.pid
        deadline = time.perf_counter() + 3.0
        while group_members(pgid) and time.perf_counter() < deadline:
            time.sleep(0.05)
        left = group_members(pgid)
        if left:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the last of them exited after the listing
        self.proc.wait(timeout=10)
        deadline = time.perf_counter() + 10.0
        while group_members(pgid) and time.perf_counter() < deadline:
            time.sleep(0.05)
        self.log.close()
        return failures + len([pid for pid in left if pid != pgid])


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Outcome:
    """Everything one svc-mix run observed."""

    def __init__(self):
        self.setups: List[float] = []
        self.unit_s: List[float] = []
        self.jobs_done = 0
        self.hit_s: List[float] = []
        self.cold_s: List[Tuple[str, float]] = []  # (key, latency)
        self.submit_s: List[float] = []
        self.result_hit_s: List[float] = []
        self.ping_s: List[float] = []
        #: key -> (kind, first payload received); later answers for the
        #: same key must equal it (kept once, so memory does not grow with
        #: how many answers a fast run gets).
        self.payloads: Dict[str, Tuple[str, object]] = {}
        self.entries: Dict[str, Entry] = {}
        self.attempted = 0
        self.failed = 0
        self.planned = {"hits": 0, "followers": 0, "misses": 0}
        self.roles = {"reads": 0, "fresh": 0, "followers": 0}
        self.kinds = {"sim": 0, "security": 0, "campaign": 0}
        self.counters: Dict[str, int] = {}


def _collect(client, ids, entries_roles, outcome: Outcome, t_submit: float,
             measure: bool) -> None:
    from repro.svc import ServiceError

    for job_id, (entry, role) in zip(ids, entries_roles):
        key = entry.key
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            response = client.result(job_id, wait=True, timeout=120)
        except ServiceError:
            outcome.failed += 1
            continue
        now = time.perf_counter()
        if response["from_cache"] != (role in ("read", "follower")):
            outcome.failed += 1
        first = outcome.payloads.setdefault(
            key, (entry.kind, response["result"]))
        if first[1] != response["result"]:
            outcome.failed += 1
        outcome.entries[key] = entry
        if not measure:
            continue
        outcome.jobs_done += 1
        outcome.roles[{"read": "reads", "fresh": "fresh",
                       "follower": "followers"}[role]] += 1
        outcome.kinds[entry.kind] += 1
        if role == "read":
            outcome.hit_s.append(now - t_submit)
            outcome.result_hit_s.append(now - start)
        elif role == "fresh":
            outcome.cold_s.append((key, now - t_submit))


def run_batch(client, batch, outcome: Outcome) -> None:
    """One closed-loop batch: the reads, then the writes."""
    reads_part, writes_part = batch
    for part in (reads_part, writes_part):
        t_submit = time.perf_counter()
        ids = client.submit([entry.job for entry, _ in part])
        outcome.submit_s.append(time.perf_counter() - t_submit)
        _collect(client, ids, part, outcome, t_submit, measure=True)
    for _, role in reads_part + writes_part:
        key = {"read": "hits", "follower": "followers"}.get(role, "misses")
        outcome.planned[key] += 1


def run_lifetime(directory: str, reads, plan, seconds: float,
                 outcome: Outcome, traced: bool, calibrate) -> None:
    """One daemon lifetime; ``calibrate()`` times the calibration kernel
    before it and after each unit, while the daemon is idle."""
    calibrate()
    daemon = Daemon(directory)
    client = None
    start = time.perf_counter()
    try:
        daemon.start()
        client = daemon.connect()
        ids = client.submit([entry.job for entry in reads])
        _collect(client, ids, [(entry, "fresh") for entry in reads],
                 outcome, start, measure=False)
        outcome.planned["misses"] += len(reads)
        outcome.setups.append(time.perf_counter() - start)
        if traced:
            for _ in range(50):
                t = time.perf_counter()
                client.ping()
                outcome.ping_s.append(time.perf_counter() - t)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            # Keys are drawn before the clock starts.
            unit = list(itertools.islice(plan, UNIT_BATCHES))
            t_unit = time.perf_counter()
            for batch in unit:
                run_batch(client, batch, outcome)
            outcome.unit_s.append(time.perf_counter() - t_unit)
            calibrate()
        counters = client.cache_stats()["metrics"]["counters"]
        for name, value in counters.items():
            outcome.counters[name] = outcome.counters.get(name, 0) + value
    except Exception as exc:  # noqa: BLE001 - a broken lifetime is a failure
        print(f"svc-mix: lifetime failed: {exc!r}", file=sys.stderr)
        outcome.attempted += 1
        outcome.failed += 1
    finally:
        if daemon.proc is not None:
            outcome.failed += daemon.stop(client)


def traffic_check(outcome: Outcome) -> Dict[str, float]:
    """Measured shares, checked against the daemon's own counters."""
    total = max(1, outcome.jobs_done)
    shares = {name: count / total for name, count in outcome.roles.items()}
    shares.update({name: count / total
                   for name, count in outcome.kinds.items()})
    expected = {
        "svc.cache_hits": outcome.planned["hits"],
        "svc.jobs_deduped": outcome.planned["followers"],
        "svc.cache_misses": outcome.planned["misses"],
        "svc.jobs_failed": 0,
        "svc.jobs_retried": 0,
        "svc.worker_restarts": 0,
    }
    for name, want in expected.items():
        got = outcome.counters.get(name, 0)
        outcome.attempted += 1
        if got != want:
            outcome.failed += 1
            print(f"svc-mix: daemon counter {name}={got}, plan says {want}",
                  file=sys.stderr)
    return shares


def oracle_digests(entries, hooks_dir: Optional[str] = None):
    """Digest of every ``Entry``'s result from an in-process runner.

    Returns ``(digests by key, the runner, the sim results)``.
    """
    from repro.analysis.runner import ExperimentRunner, result_to_dict

    if hooks_dir is not None:
        install_oracle_hooks(hooks_dir)
    runner = ExperimentRunner(jobs=WORKERS, use_cache=False)
    by_kind: Dict[str, List[Tuple[str, object]]] = {
        "sim": [], "security": [], "campaign": []}
    for entry in entries:
        by_kind[entry.kind].append((entry.key, entry.job))
    out = {}
    sims = runner.run_many([job for _, job in by_kind["sim"]])
    for (key, _), result in zip(by_kind["sim"], sims):
        out[key] = digest(result_to_dict(result))
    secs = runner.run_security_many([job for _, job in by_kind["security"]])
    for (key, _), results in zip(by_kind["security"], secs):
        out[key] = digest(security_rows(
            [r.__dict__ for r in results]))
    camps = runner.run_campaign_many([job for _, job in by_kind["campaign"]])
    for (key, _), record in zip(by_kind["campaign"], camps):
        out[key] = digest(record)
    return out, runner, sims


def install_oracle_hooks(hooks_dir: str) -> None:
    from repro.analysis import runner as runner_module
    from repro.security import kernels
    from unit import campaign_cell_name, fig11_kind

    spans = Spans(hooks_dir)
    spans.hook(
        runner_module, ("make_rate_traces", "simulate", "run_campaign_cell"),
        lambda name, args, kwargs: (
            {"kind": fig11_kind(args[1], kwargs["mapping"])}
            if name == "simulate" else
            {"cell": campaign_cell_name(args[0])}
            if name == "run_campaign_cell" else {}
        ),
    )
    spans.hook(kernels, ("run_attack_batch",))


def security_rows(rows) -> list:
    return [{"max_pressure": float(r["max_pressure"]),
             "max_pressure_row": int(r["max_pressure_row"]),
             "activations": int(r["activations"]),
             "mitigations": int(r["mitigations"]),
             "victim_refreshes": int(r["victim_refreshes"])} for r in rows]


def payload_digest(kind: str, payload) -> str:
    if kind == "security":
        return digest(security_rows(payload))
    return digest(payload)
