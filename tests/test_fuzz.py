"""Property-based fuzzing of the full memory system.

Hypothesis generates arbitrary request streams (addresses anywhere in
memory, random write mix, random burstiness) and we assert the system-level
invariants that no unit test pins down individually:

* every read completes and every core finishes (no lost wakeups/deadlocks);
* the command stream passes the independent timing audit;
* simulation is bit-identical when repeated;
* conservation: requests in == row hits + activations (reads+writes);
* the batch backend reproduces the scalar oracle's stats and command log
  (kernel lanes and fallback lanes alike)."""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.system import simulate
from repro.mc.setup import MitigationSetup
from repro.sim.batch import SimLane, simulate_batch
from repro.sim.cmdlog import CommandLog
from repro.sim.config import SystemConfig
from repro.workloads.trace import Trace

FUZZ_CONFIG = SystemConfig(
    num_cores=2,
    num_subchannels=2,
    banks_per_subchannel=4,
    rows_per_bank=4096,
    subarrays_per_bank=16,
)

request_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),  # gap
        st.integers(min_value=0, max_value=FUZZ_CONFIG.total_lines - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)

setups = st.sampled_from(
    [
        MitigationSetup("none"),
        MitigationSetup("rfm", threshold=4),
        MitigationSetup("autorfm", threshold=4, policy="fractal"),
        MitigationSetup("autorfm", threshold=2, policy="recursive"),
        MitigationSetup("autorfm", threshold=4, policy="rowswap"),
        MitigationSetup("smd", threshold=3),
        MitigationSetup("prac", prac_trh_d=60),
    ]
)


def traces_from(requests, second_offset):
    first = Trace(
        gaps=[g for g, _, _ in requests],
        addrs=[a for _, a, _ in requests],
        writes=[w for _, _, w in requests],
    )
    second = Trace(
        gaps=[g for g, _, _ in requests],
        addrs=[(a + second_offset) % FUZZ_CONFIG.total_lines
               for _, a, _ in requests],
        writes=[not w for _, _, w in requests],
    )
    return [first, second]


class TestFuzzMemorySystem:
    @given(requests=request_lists, setup=setups,
           mapping=st.sampled_from(["zen", "rubix"]))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_invariants_hold_for_arbitrary_streams(self, requests, setup, mapping):
        log = CommandLog()
        traces = traces_from(requests, second_offset=977)
        result = simulate(
            traces, setup, FUZZ_CONFIG, mapping, seed=3, command_log=log,
            max_events=2_000_000,
        )
        stats = result.stats

        # Completion: all requests serviced, both cores finished.
        assert stats.total_memory_requests == 2 * len(requests)
        total_serviced = sum(b.reads + b.writes for b in stats.banks)
        assert total_serviced == 2 * len(requests)
        # Conservation: each serviced request was a hit or caused an ACT.
        assert stats.total_row_hits + stats.total_activations >= total_serviced
        # Timing audit (t_M follows the policy: a row swap locks 16x tRC).
        tm = 0
        if setup.policy == "rowswap":
            tm = 16 * FUZZ_CONFIG.timing.trc
        violations = log.verify(FUZZ_CONFIG, tm_cycles=tm)
        assert violations == [], violations[:3]

        # Scalar vs batch on the same generated case. No event budget on
        # the batch lane: a budget would route it to the scalar oracle.
        batch_log = CommandLog()
        batch = simulate_batch([SimLane(
            traces, setup, FUZZ_CONFIG, mapping, seed=3,
            command_log=batch_log,
        )])[0]
        assert batch.stats == stats
        assert batch_log.records == log.records

    @given(requests=request_lists)
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_reruns(self, requests):
        traces = traces_from(requests, second_offset=501)
        setup = MitigationSetup("autorfm", threshold=4)

        def run():
            result = simulate(traces, setup, FUZZ_CONFIG, "rubix", seed=9)
            return (
                result.stats.cycles,
                result.stats.total_activations,
                result.stats.total_alerts,
                result.stats.total_mitigations,
                [c.finish_cycle for c in result.stats.cores],
            )

        assert run() == run()

    @given(
        requests=request_lists,
        page_policy=st.sampled_from(["closed", "open"]),
        refresh_mode=st.sampled_from(["all_bank", "same_bank"]),
        write_drain=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_config_matrix_never_deadlocks(
        self, requests, page_policy, refresh_mode, write_drain
    ):
        config = dataclasses.replace(
            FUZZ_CONFIG,
            page_policy=page_policy,
            refresh_mode=refresh_mode,
            write_drain=write_drain,
        )
        traces = traces_from(requests, second_offset=123)
        result = simulate(
            traces,
            MitigationSetup("autorfm", threshold=4),
            config,
            "zen",
            max_events=2_000_000,
        )
        assert result.stats.total_memory_requests == 2 * len(requests)