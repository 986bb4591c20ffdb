"""Pinned cache keys and v1 wire payloads for every job kind.

The result cache is content-addressed by SHA-256 keys, and the sweep
daemon accepts jobs as versioned (schema 1) JSON payloads. Both are
persistent contracts: a key that changes orphans every cached result
computed under it, and a payload an old client sends must still decode
to the job it meant. These tests pin the literal key hex and the literal
canonical wire JSON of representative jobs of every kind, so any change
to the key functions or the wire codec shows up here as a diff.
"""

import json

import pytest

from repro.analysis.runner import (
    CampaignJob,
    ExperimentRunner,
    Job,
    SecurityJob,
    any_job_from_wire,
    any_job_to_wire,
    campaign_job_key,
    job_key,
    security_job_key,
)
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig
from repro.sim.config import SystemConfig

AUTO4 = MitigationSetup(mechanism="autorfm", tracker="mint", threshold=4)

_SETUP_AUTO4 = (
    '"setup":{"blockhammer_trh":1000,"mechanism":"autorfm",'
    '"mithril_entries":1024,"per_request_retry":false,"policy":"fractal",'
    '"prac_trh_d":100,"pride_fifo_entries":4,"smd_regions_per_bank":8,'
    '"threshold":4,"tm_retry_cycles":0,"tracker":"mint"}'
)
_SETUP_RFM8 = (
    '"setup":{"blockhammer_trh":1000,"mechanism":"rfm",'
    '"mithril_entries":1024,"per_request_retry":false,"policy":"fractal",'
    '"prac_trh_d":100,"pride_fifo_entries":4,"smd_regions_per_bank":8,'
    '"threshold":8,"tm_retry_cycles":0,"tracker":"mint"}'
)

#: name -> (job, cache key hex, canonical v1 wire JSON).
PINS = {
    "sim-plain": (
        Job("mcf", AUTO4, "rubix", 400, 7),
        "76d90f3d3f36ff8a1c2bb86ccc8fcab7d4cde7abc694dc4738828155e3103762",
        '{"backend":"scalar","kind":"sim","mapping":"rubix","obs":null,'
        '"requests":400,"schema":1,"seed":7,"segment_cycles":null,'
        + _SETUP_AUTO4 + ',"workload":"mcf"}',
    ),
    "sim-obs": (
        Job("xz", MitigationSetup("rfm", threshold=8), "zen", 300, 1,
            obs=ObsConfig(metrics=True)),
        "e7c8909ef083fadd6cc4d24d1fa9d93ca539d7c62a459ca0db19d99167a4d0ab",
        '{"backend":"scalar","kind":"sim","mapping":"zen",'
        '"obs":{"metrics":true,"trace":false,"trace_capacity":65536},'
        '"requests":300,"schema":1,"seed":1,"segment_cycles":null,'
        + _SETUP_RFM8 + ',"workload":"xz"}',
    ),
    "sim-segmented-batch": (
        Job("add", AUTO4, "zen", 300, 3, segment_cycles=8000,
            backend="batch"),
        "07bc5130c4a15ffaccbce7e0941f98b7fe321f202b29c543ffac179dabb528ec",
        '{"backend":"batch","kind":"sim","mapping":"zen","obs":null,'
        '"requests":300,"schema":1,"seed":3,"segment_cycles":8000,'
        + _SETUP_AUTO4 + ',"workload":"add"}',
    ),
    "security-pattern": (
        SecurityJob(attack="double_sided", rows=(70000, 70010), acts=2000,
                    window=4, seeds=3),
        "6a382cdffb9a8badb1e2442ab202f29a03300f14f89401d8857df258add6ee88",
        '{"acts":2000,"attack":"double_sided","backend":"numpy",'
        '"blast_radius":2,"kind":"security","policy":"fractal",'
        '"refresh_interval_acts":null,"rows":[70000,70010],'
        '"rows_per_bank":131072,"rubix_key":null,"scenario":null,'
        '"scenario_params":[],"scenario_version":null,"schema":1,'
        '"seeds":3,"tracker":"mint","window":4}',
    ),
    "security-corpus": (
        SecurityJob(acts=2000, window=4, seeds=3, scenario="abcd_k",
                    scenario_params={"stride": 20}),
        "1029176236796c043104ee59b97c6cedd81615f79d99c7d2a6675939f47a1312",
        '{"acts":2000,"attack":"double_sided","backend":"numpy",'
        '"blast_radius":2,"kind":"security","policy":"fractal",'
        '"refresh_interval_acts":null,"rows":[70000],'
        '"rows_per_bank":131072,"rubix_key":null,"scenario":"abcd_k",'
        '"scenario_params":[["stride",20]],"scenario_version":"1.0.0",'
        '"schema":1,"seeds":3,"tracker":"mint","window":4}',
    ),
    "campaign-pattern": (
        CampaignJob(window=4, acts=1000, max_seeds=50),
        "7fc842948b2052702676d6beb2d9c6857b59070dbd63dc0a934c55d9c652944f",
        '{"acts":1000,"alpha":0.001,"attack":"round_robin",'
        '"backend":"numpy","base_row":70000,"beta":0.001,"blast_radius":2,'
        '"kind":"campaign","max_chunk":256,"max_seeds":50,"min_chunk":8,'
        '"p0":0.01,"p1":0.1,"policy":"fractal",'
        '"refresh_interval_acts":null,"rows":[],"rows_per_bank":131072,'
        '"rubix_key":null,"scenario":null,"scenario_digest":null,'
        '"scenario_params":[],"scenario_version":null,"schema":1,'
        '"tracker":"mint","window":4}',
    ),
    "campaign-corpus": (
        CampaignJob(scenario="abcd_k", acts=1000, max_seeds=50, alpha=0.01,
                    rubix_key=3),
        "b1c734965ed577c17c45bd44d731ed844e14750b82563a1c137800f258898ff8",
        '{"acts":1000,"alpha":0.01,"attack":"round_robin",'
        '"backend":"numpy","base_row":70000,"beta":0.001,"blast_radius":2,'
        '"kind":"campaign","max_chunk":256,"max_seeds":50,"min_chunk":8,'
        '"p0":0.01,"p1":0.1,"policy":"fractal",'
        '"refresh_interval_acts":null,"rows":[],"rows_per_bank":131072,'
        '"rubix_key":3,"scenario":"abcd_k","scenario_digest":'
        '"b2d6b4a928a97ab56de0e091c140b3966700e3cdf4f2d473c6a2e18ab0d46b04",'
        '"scenario_params":[],"scenario_version":"1.0.0","schema":1,'
        '"tracker":"mint","window":4}',
    ),
}


def key_of(job) -> str:
    """The job's cache key through its kind's public key function."""
    if isinstance(job, Job):
        return job_key(job, SystemConfig(), job.requests)
    if isinstance(job, CampaignJob):
        return campaign_job_key(job)
    return security_job_key(job)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_cache_key_is_pinned(name):
    job, key, _ = PINS[name]
    assert key_of(job) == key


@pytest.mark.parametrize("name", sorted(PINS))
def test_runner_keys_match_the_pins(name):
    job, key, _ = PINS[name]
    runner = ExperimentRunner(use_cache=False)
    if isinstance(job, Job):
        assert runner.key_for(job) == key
    elif isinstance(job, CampaignJob):
        assert runner.campaign_key_for(job) == key


@pytest.mark.parametrize("name", sorted(PINS))
def test_v1_wire_payload_is_pinned(name):
    job, _, wire = PINS[name]
    assert canonical(any_job_to_wire(job)) == wire


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_v1_payload_decodes_to_the_same_job(name):
    job, key, wire = PINS[name]
    decoded = any_job_from_wire(json.loads(wire))
    assert decoded == job
    assert type(decoded) is type(job)
    assert key_of(decoded) == key
