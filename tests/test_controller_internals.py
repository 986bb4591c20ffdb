"""Deeper memory-controller behaviours: bus serialization, wakeup dedup,
FIFO fairness, REF staggering."""

from repro.mapping import ZenMapping
from repro.mc.controller import MemoryController
from repro.mc.request import Request
from repro.mc.setup import MitigationSetup
from repro.sim.cmdlog import REF, CommandLog
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.stats import SimStats


def build(small_config, setup=None, log=None):
    engine = Engine()
    stats = SimStats.with_shape(small_config.num_banks, small_config.num_cores)
    running = [True]
    mc = MemoryController(
        config=small_config,
        mapping=ZenMapping(small_config),
        engine=engine,
        setup=setup or MitigationSetup("none"),
        streams=RngStreams(0),
        stats=stats,
        keep_running=lambda: running[0],
        command_log=log,
    )
    return engine, mc, stats, running


def read(engine, mc, line, done):
    location = mc.mapping.locate(line)
    mc.submit(
        Request(
            core_id=0,
            line_addr=line,
            is_write=False,
            arrival=engine.now,
            row=location.row,
            flat_bank=location.flat_bank(mc.config.banks_per_subchannel),
            on_complete=lambda t, l=line: done.append((l, t)),
        )
    )


class TestBusSerialization:
    def test_same_subchannel_bursts_serialize(self, small_config):
        engine, mc, stats, running = build(small_config)
        done = []

        def go(t):
            # Two different banks of subchannel 0: ACTs overlap, data
            # transfers share the bus.
            read(engine, mc, 0, done)
            read(engine, mc, 2, done)

        engine.schedule(0, go)
        running[0] = False
        engine.run()
        times = sorted(t for _, t in done)
        assert times[1] - times[0] >= small_config.timing.burst

    def test_different_subchannels_overlap(self, small_config):
        engine, mc, stats, running = build(small_config)
        done = []
        # Line 64 is page 1 -> other subchannel under the Zen layout.
        zen = ZenMapping(small_config)
        assert zen.locate(0).subchannel != zen.locate(64).subchannel

        def go(t):
            read(engine, mc, 0, done)
            read(engine, mc, 64, done)

        engine.schedule(0, go)
        running[0] = False
        engine.run()
        times = sorted(t for _, t in done)
        assert times[1] - times[0] < small_config.timing.burst


class TestQueueFairness:
    def test_same_bank_same_row_requests_complete_in_order(self, small_config):
        engine, mc, stats, running = build(small_config)
        done = []
        row_stride = (
            small_config.banks_per_subchannel
            * small_config.num_subchannels
            * small_config.lines_per_row
        )

        def go(t):
            for i in range(4):
                read(engine, mc, i * row_stride, done)  # bank 0, rows 0..3

        engine.schedule(0, go)
        running[0] = False
        engine.run()
        completion_order = [line for line, _ in done]
        assert completion_order == sorted(completion_order)

    def test_row_hit_can_bypass_older_conflicting_request(self, small_config):
        """FR-FCFS: a younger request hitting the open row is served before
        an older request that needs a new ACT."""
        engine, mc, stats, running = build(small_config)
        done = []
        row_stride = (
            small_config.banks_per_subchannel
            * small_config.num_subchannels
            * small_config.lines_per_row
        )

        def first(t):
            read(engine, mc, 0, done)  # opens bank 0 row 0

        def second(t):
            read(engine, mc, row_stride, done)  # bank 0, row 1 (older)
            read(engine, mc, 1, done)  # bank 0, row 0 (younger, hits)

        engine.schedule(0, first)
        engine.schedule(10, second)
        running[0] = False
        engine.run()
        order = [line for line, _ in done]
        assert order.index(1) < order.index(row_stride)
        assert stats.total_row_hits >= 1


class TestRefStagger:
    def test_subchannels_refresh_at_different_times(self, small_config):
        log = CommandLog()
        engine, mc, stats, running = build(small_config, log=log)
        engine.schedule(
            2 * small_config.timing.trefi + 5,
            lambda t: running.__setitem__(0, False),
        )
        engine.run()
        refs = log.of_kind(REF)
        banks_per_sc = small_config.banks_per_subchannel
        sc0 = {r.time for r in refs if r.bank < banks_per_sc}
        sc1 = {r.time for r in refs if r.bank >= banks_per_sc}
        assert sc0 and sc1
        assert sc0.isdisjoint(sc1)  # staggered, never simultaneous


class TestWakeupDedup:
    def test_many_arrivals_do_not_multiply_events(self, small_config):
        """Submitting many requests to one blocked bank must not schedule a
        wakeup per request (the dedup keeps the event count linear)."""
        engine, mc, stats, running = build(small_config)
        done = []
        row_stride = (
            small_config.banks_per_subchannel
            * small_config.num_subchannels
            * small_config.lines_per_row
        )

        def go(t):
            for i in range(12):
                read(engine, mc, (i % 6) * row_stride, done)

        engine.schedule(0, go)
        running[0] = False
        engine.run(max_events=5_000)  # a storm would trip this bound
        assert len(done) == 12

    def test_pending_requests_accessor(self, small_config):
        engine, mc, stats, running = build(small_config)
        engine.schedule(0, lambda t: read(engine, mc, 0, []))
        assert mc.pending_requests() == 0
        running[0] = False
        engine.run()
        assert mc.pending_requests() == 0


class TestDescribeAllMechanisms:
    def test_describe_is_unique_per_mechanism(self):
        setups = [
            MitigationSetup("none"),
            MitigationSetup("rfm", threshold=4),
            MitigationSetup("autorfm", threshold=4),
            MitigationSetup("prac"),
            MitigationSetup("smd", threshold=5),
            MitigationSetup("blockhammer"),
        ]
        descriptions = [s.describe() for s in setups]
        assert len(set(descriptions)) == len(descriptions)
        assert any("BlockHammer" in d for d in descriptions)
