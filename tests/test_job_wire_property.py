"""Round-trip property of the derived job wire codec, over every job kind.

``any_job_to_wire`` / ``any_job_from_wire`` are derived from the job
dataclasses' fields, so a new field travels without codec edits. What
keeps the derivation honest is this property: for any valid job of any
registered kind, encoding, a JSON round trip and decoding give back an
equal job with an equal cache key. The last test seeds the classic codec
bug — an encoder that forgets a field — and checks the property catches
it.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import runner
from repro.analysis.runner import (
    JOB_KINDS,
    CampaignJob,
    ExperimentRunner,
    Job,
    SecurityJob,
)
from repro.cpu.system import MAPPINGS
from repro.mc.setup import MECHANISMS, POLICIES, TRACKERS, MitigationSetup
from repro.obs import ObsConfig
from repro.payload import load_scenario, scenario_names
from repro.security.campaign import (
    _CAMPAIGN_ATTACKS,
    _CAMPAIGN_POLICIES,
    _CAMPAIGN_TRACKERS,
)
from repro.workloads.catalog import WORKLOADS

KEYER = ExperimentRunner(use_cache=False, requests=2500)

ROWS = st.integers(0, 128 * 1024 - 1)
OPTIONAL_COUNT = st.none() | st.integers(1, 10**6)


@st.composite
def scenario_fields(draw):
    """Either no scenario, or a corpus scenario with a subset of its
    declared parameters overridden."""
    name = draw(st.none() | st.sampled_from(scenario_names()))
    if name is None:
        return {}
    declared = [param for param, _ in load_scenario(name).params]
    params = draw(st.dictionaries(
        st.sampled_from(declared) if declared else st.nothing(),
        st.integers(1, 64),
    ))
    return {"scenario": name, "scenario_params": params}


def jobs_of(job_type, required=(), scenario=False, **fields):
    """Valid ``job_type`` instances from the ``required`` fields plus any
    subset of the others; absent fields keep their defaults."""
    mandatory = {name: fields.pop(name) for name in required}

    @st.composite
    def build(draw):
        kwargs = draw(st.fixed_dictionaries(mandatory, optional=fields))
        if scenario:
            kwargs.update(draw(scenario_fields()))
        try:
            return job_type(**kwargs)
        except ValueError:
            assume(False)
    return build()


SETUPS = st.builds(
    MitigationSetup,
    mechanism=st.sampled_from(MECHANISMS),
    threshold=st.integers(1, 64),
    tracker=st.sampled_from(TRACKERS),
    policy=st.sampled_from(POLICIES),
    prac_trh_d=st.integers(1, 4096),
    per_request_retry=st.booleans(),
    tm_retry_cycles=st.integers(0, 1000),
)

STRATEGIES = {
    "sim": jobs_of(
        Job, required=("workload",),
        workload=st.sampled_from(sorted(WORKLOADS)),
        setup=SETUPS,
        mapping=st.sampled_from(MAPPINGS),
        requests=OPTIONAL_COUNT,
        seed=st.integers(0, 2**31),
        obs=st.none() | st.builds(
            ObsConfig, metrics=st.booleans(), trace=st.booleans(),
            trace_capacity=st.integers(1, 2**20),
        ),
        segment_cycles=OPTIONAL_COUNT,
        backend=st.sampled_from(("scalar", "batch")),
    ),
    "security": jobs_of(
        SecurityJob, scenario=True,
        attack=st.sampled_from(runner._SECURITY_ATTACKS),
        rows=st.lists(ROWS, min_size=1, max_size=4).map(tuple),
        acts=st.integers(1, 10**6),
        window=st.integers(1, 64),
        tracker=st.sampled_from(runner._SECURITY_TRACKERS),
        policy=st.sampled_from(runner._SECURITY_POLICIES),
        seeds=st.integers(1, 1000),
        blast_radius=st.integers(1, 4),
        refresh_interval_acts=OPTIONAL_COUNT,
        rubix_key=st.none() | st.integers(0, 2**32),
        backend=st.sampled_from(("numpy", "scalar")),
    ),
    "campaign": jobs_of(
        CampaignJob, scenario=True,
        tracker=st.sampled_from(_CAMPAIGN_TRACKERS),
        policy=st.sampled_from(_CAMPAIGN_POLICIES),
        window=st.integers(1, 64),
        acts=st.integers(64, 10**5),
        attack=st.sampled_from(_CAMPAIGN_ATTACKS),
        rows=st.lists(ROWS, max_size=4).map(tuple),
        base_row=ROWS,
        blast_radius=st.integers(1, 4),
        refresh_interval_acts=OPTIONAL_COUNT,
        rubix_key=st.none() | st.integers(0, 2**32),
        max_seeds=st.integers(2, 1000),
        alpha=st.floats(1e-4, 0.49),
        beta=st.floats(1e-4, 0.49),
        p0=st.floats(1e-3, 0.099),
        p1=st.floats(0.101, 0.99),
        min_chunk=st.integers(1, 256),
        max_chunk=st.integers(256, 4096),
        backend=st.sampled_from(("numpy", "scalar")),
    ),
}


def assert_round_trips(job):
    wire = json.loads(json.dumps(runner.any_job_to_wire(job)))
    decoded = runner.any_job_from_wire(wire)
    assert type(decoded) is type(job)
    assert decoded == job
    assert KEYER.key_for(decoded) == KEYER.key_for(job)


def check_kind(kind, **overrides):
    @settings(deadline=None, **overrides)
    @given(STRATEGIES[kind])
    def round_trips(job):
        assert_round_trips(job)

    round_trips()


def test_every_registered_kind_has_a_strategy():
    assert set(STRATEGIES) == set(JOB_KINDS)


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
def test_wire_round_trip_is_lossless(kind):
    check_kind(kind, max_examples=150)


def test_property_catches_an_encoder_that_drops_a_field(monkeypatch):
    encode = runner.any_job_to_wire

    def without_backend(job):
        wire = encode(job)
        if isinstance(job, Job):
            del wire["backend"]
        return wire

    monkeypatch.setattr(runner, "any_job_to_wire", without_backend)
    with pytest.raises(AssertionError):
        check_kind("sim", derandomize=True, database=None)
