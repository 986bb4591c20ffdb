"""Tests for the trace-driven core model (frontend, ROB, MSHRs, retire)."""

import pytest

from repro.cpu.core import Core
from repro.mapping import ZenMapping
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import CoreStats
from repro.workloads.trace import Trace


class FixedLatencyMemory:
    """Completes every read after a fixed delay; records submissions."""

    def __init__(self, engine, latency):
        self.engine = engine
        self.latency = latency
        self.submissions = []

    def submit(self, request):
        self.submissions.append((self.engine.now, request.line_addr, request.is_write))
        if request.on_complete is not None:
            self.engine.schedule(self.engine.now + self.latency, request.on_complete)


def make_core(trace, config, engine, memory, stats):
    rows, flat_banks = ZenMapping(config).locate_array(trace.addrs)
    return Core(0, trace, config, engine, memory.submit, stats,
                rows, flat_banks)


def run_core(trace, config=None, latency=100):
    config = config or SystemConfig(num_cores=1)
    engine = Engine()
    memory = FixedLatencyMemory(engine, latency)
    stats = CoreStats()
    core = make_core(trace, config, engine, memory, stats)
    core.start()
    engine.run()
    assert core.finished
    return stats, memory


class TestCoreBasics:
    def test_empty_trace_finishes_immediately(self):
        stats, _ = run_core(Trace())
        assert stats.finish_cycle >= 1
        assert stats.memory_requests == 0

    def test_pure_compute_tail(self):
        # 4000 instructions at width 4 -> 1000 cycles.
        stats, _ = run_core(Trace(tail_instructions=4000))
        assert stats.finish_cycle == 1000
        assert stats.instructions == 4000

    def test_single_read_latency_bounds_finish(self):
        trace = Trace(gaps=[0], addrs=[5], writes=[False])
        stats, _ = run_core(trace, latency=500)
        assert stats.finish_cycle >= 500
        assert stats.reads_completed == 1

    def test_instruction_accounting(self):
        trace = Trace(gaps=[9, 9], addrs=[1, 2], writes=[False, False],
                      tail_instructions=10)
        stats, _ = run_core(trace)
        assert stats.instructions == 9 + 1 + 9 + 1 + 10

    def test_writes_do_not_block(self):
        # A long chain of writes finishes at frontend speed even with slow
        # memory (fire-and-forget).
        n = 64
        trace = Trace(gaps=[3] * n, addrs=list(range(n)), writes=[True] * n)
        stats, _ = run_core(trace, latency=100_000)
        assert stats.finish_cycle < 2000

    def test_reads_block_on_latency(self):
        n = 8
        config = SystemConfig(num_cores=1, mshrs_per_core=1)
        trace = Trace(gaps=[0] * n, addrs=list(range(n)), writes=[False] * n)
        stats, _ = run_core(trace, config=config, latency=100)
        # One MSHR serializes all reads: >= n * latency.
        assert stats.finish_cycle >= n * 100


class TestCoreLimits:
    def test_mshr_limits_outstanding(self):
        config = SystemConfig(num_cores=1, mshrs_per_core=2, rob_size=10_000)
        n = 6
        trace = Trace(gaps=[0] * n, addrs=list(range(n)), writes=[False] * n)
        engine = Engine()
        memory = FixedLatencyMemory(engine, 1000)
        core = make_core(trace, config, engine, memory, CoreStats())
        core.start()
        engine.run(until=999)
        # Only 2 reads may be outstanding before the first completion.
        assert len(memory.submissions) == 2

    def test_rob_limits_runahead(self):
        config = SystemConfig(num_cores=1, mshrs_per_core=64, rob_size=100)
        # Requests 100 instructions apart: at most ~1 extra can dispatch
        # while the first is outstanding.
        n = 8
        trace = Trace(gaps=[99] * n, addrs=list(range(n)), writes=[False] * n)
        engine = Engine()
        memory = FixedLatencyMemory(engine, 10_000)
        core = make_core(trace, config, engine, memory, CoreStats())
        core.start()
        engine.run(until=9_999)
        assert len(memory.submissions) <= 2

    def test_frontend_width_paces_dispatch(self):
        config = SystemConfig(num_cores=1, core_width=4)
        trace = Trace(gaps=[399], addrs=[1], writes=[False])
        engine = Engine()
        memory = FixedLatencyMemory(engine, 10)
        core = make_core(trace, config, engine, memory, CoreStats())
        core.start()
        engine.run()
        # 400 instructions at width 4 -> dispatched at cycle 100.
        assert memory.submissions[0][0] == 100

    def test_higher_latency_lowers_ipc(self):
        n = 64
        trace = Trace(gaps=[10] * n, addrs=list(range(n)), writes=[False] * n)
        fast, _ = run_core(trace, latency=50)
        slow, _ = run_core(trace, latency=500)
        assert slow.finish_cycle > fast.finish_cycle
        assert slow.ipc < fast.ipc

    def test_avg_read_latency_tracks_memory(self):
        n = 16
        config = SystemConfig(num_cores=1, mshrs_per_core=1)
        trace = Trace(gaps=[50] * n, addrs=list(range(n)), writes=[False] * n)
        stats, _ = run_core(trace, config=config, latency=123)
        assert stats.avg_read_latency == pytest.approx(123)


class TestTraceValidation:
    def test_misaligned_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace(gaps=[1], addrs=[], writes=[])

    def test_trace_helpers(self):
        trace = Trace(gaps=[9, 19], addrs=[1, 2], writes=[False, True],
                      tail_instructions=70)
        assert len(trace) == 2
        assert trace.total_instructions == 100
        assert trace.mpki == pytest.approx(20.0)
        sliced = trace.sliced(1)
        assert len(sliced) == 1
        assert sliced.addrs == [1]
