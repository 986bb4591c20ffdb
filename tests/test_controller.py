"""Integration tests for the memory controller's scheduling paths."""

from repro.mc.controller import MemoryController
from repro.mc.request import Request
from repro.mc.setup import MitigationSetup
from repro.mapping import ZenMapping
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.stats import SimStats


def make_mc(small_config, setup=None, keep_running_until=None):
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
    )
    return engine, mc, stats, running


def decoded(mc, line):
    """``row``/``flat_bank`` of ``line``, as the cores' pre-decode gives them."""
    location = mc.mapping.locate(line)
    return dict(row=location.row,
                flat_bank=location.flat_bank(mc.config.banks_per_subchannel))


def submit_read(engine, mc, line, done):
    request = Request(
        core_id=0,
        line_addr=line,
        is_write=False,
        arrival=engine.now,
        on_complete=lambda t: done.append((line, t)),
        **decoded(mc, line),
    )
    mc.submit(request)
    return request


class TestBasicService:
    def test_read_completes(self, small_config):
        engine, mc, stats, running = make_mc(small_config)
        done = []
        engine.schedule(0, lambda t: submit_read(engine, mc, 0, done))
        running[0] = False
        engine.run()
        assert len(done) == 1
        assert done[0][1] > 0
        assert stats.total_activations == 1

    def test_pair_line_is_a_row_hit(self, small_config):
        engine, mc, stats, running = make_mc(small_config)
        done = []

        def go(t):
            submit_read(engine, mc, 0, done)
            submit_read(engine, mc, 1, done)  # pair mate: same bank row

        engine.schedule(0, go)
        running[0] = False
        engine.run()
        assert stats.total_activations == 1
        assert stats.total_row_hits == 1

    def test_conflicting_rows_serialize_on_trc(self, small_config):
        engine, mc, stats, running = make_mc(small_config)
        done = []
        # Same bank, different rows: +8 KB sibling pages share bank+row, so
        # use a large stride that changes the row (page group).
        far = 64 * small_config.lines_per_row  # 64 pages -> next row group
        zen = ZenMapping(small_config)
        a, b = 0, far
        assert zen.locate(a).flat_bank(4) == zen.locate(b).flat_bank(4)
        assert zen.locate(a).row != zen.locate(b).row

        def go(t):
            submit_read(engine, mc, a, done)
            submit_read(engine, mc, b, done)

        engine.schedule(0, go)
        running[0] = False
        engine.run()
        assert stats.total_activations == 2
        # Second ACT waited at least tRC.
        assert done[1][1] - done[0][1] >= small_config.timing.trc - 1

    def test_different_banks_overlap(self, small_config):
        engine, mc, stats, running = make_mc(small_config)
        done = []

        def go(t):
            submit_read(engine, mc, 0, done)  # bank 0
            submit_read(engine, mc, 2, done)  # bank 1

        engine.schedule(0, go)
        running[0] = False
        engine.run()
        spread = abs(done[1][1] - done[0][1])
        assert spread < small_config.timing.trc  # not serialized

    def test_writes_counted_but_not_completed(self, small_config):
        engine, mc, stats, running = make_mc(small_config)
        engine.schedule(
            0,
            lambda t: mc.submit(
                Request(core_id=0, line_addr=0, is_write=True, arrival=0,
                        **decoded(mc, 0))
            ),
        )
        running[0] = False
        engine.run()
        assert sum(b.writes for b in stats.banks) == 1


class TestRefresh:
    def test_refresh_happens_every_trefi(self, small_config):
        engine, mc, stats, running = make_mc(small_config)

        def stop(t):
            running[0] = False

        engine.schedule(4 * small_config.timing.trefi + 10, stop)
        engine.run()
        # Both subchannels refresh ~4 times, all banks counted.
        total = stats.total_refreshes
        assert total >= 3 * small_config.num_banks

    def test_request_during_refresh_waits(self, small_config):
        engine, mc, stats, running = make_mc(small_config)
        done = []
        trefi = small_config.timing.trefi
        # Subchannel 0 refreshes at trefi; submit just after it starts.
        engine.schedule(trefi + 1, lambda t: submit_read(engine, mc, 0, done))
        engine.schedule(trefi + 2, lambda t: running.__setitem__(0, False))
        engine.run()
        assert done[0][1] >= trefi + small_config.timing.trfc


class TestRfmMode:
    def test_rfm_issued_at_hard_cap(self, small_config):
        setup = MitigationSetup("rfm", threshold=2)
        engine, mc, stats, running = make_mc(small_config, setup)
        done = []
        stride = 64 * small_config.lines_per_row  # same bank, new row

        def go(t):
            for i in range(8):
                submit_read(engine, mc, i * stride, done)

        engine.schedule(0, go)
        engine.schedule(1, lambda t: running.__setitem__(0, False))
        engine.run()
        assert len(done) == 8
        assert stats.total_rfm_commands >= 2
        assert stats.total_mitigations >= 1

    def test_no_rfm_in_baseline(self, small_config):
        engine, mc, stats, running = make_mc(small_config)
        done = []
        engine.schedule(0, lambda t: submit_read(engine, mc, 0, done))
        running[0] = False
        engine.run()
        assert stats.total_rfm_commands == 0


class TestAutoRfmMode:
    def _hammer_same_subarray(self, small_config, per_request_retry=False):
        setup = MitigationSetup(
            "autorfm", threshold=2, policy="fractal",
            per_request_retry=per_request_retry,
        )
        engine, mc, stats, running = make_mc(small_config, setup)
        done = []
        stride = 64 * small_config.lines_per_row

        def go(t):
            # Rows 0..7 of bank 0 — all in subarray 0, beyond the row-hit
            # window, so every request re-ACTs into the mitigated subarray.
            for i in range(8):
                submit_read(engine, mc, i * stride, done)

        engine.schedule(0, go)
        engine.schedule(1, lambda t: running.__setitem__(0, False))
        engine.run()
        return stats, done

    def test_alerts_fire_on_saum_conflicts(self, small_config):
        stats, done = self._hammer_same_subarray(small_config)
        assert len(done) == 8  # every request eventually completes
        assert stats.total_mitigations >= 1
        assert stats.total_alerts >= 1

    def test_per_request_retry_also_completes(self, small_config):
        stats, done = self._hammer_same_subarray(
            small_config, per_request_retry=True
        )
        assert len(done) == 8
        assert stats.total_alerts >= 1

    def test_no_alerts_without_subarray_conflict(self, small_config):
        setup = MitigationSetup("autorfm", threshold=2, policy="fractal")
        engine, mc, stats, running = make_mc(small_config, setup)
        done = []
        # One request per subarray: mitigation never collides with demand.
        row_stride = (
            small_config.banks_per_subchannel
            * small_config.num_subchannels
            * small_config.lines_per_row
        )
        sub_stride = small_config.rows_per_subarray * row_stride

        def go(t):
            for i in range(8):
                submit_read(engine, mc, i * sub_stride, done)

        engine.schedule(0, go)
        engine.schedule(1, lambda t: running.__setitem__(0, False))
        engine.run()
        assert len(done) == 8
        assert stats.total_alerts == 0


class TestPracMode:
    def test_prac_timing_inflates_trc(self, small_config):
        setup = MitigationSetup("prac", prac_trh_d=100)
        engine, mc, stats, running = make_mc(small_config, setup)
        assert mc.timing.trc > small_config.timing.trc

    def test_abo_alert_on_hot_row(self, small_config):
        setup = MitigationSetup("prac", prac_trh_d=30)  # abo threshold 5
        engine, mc, stats, running = make_mc(small_config, setup)
        done = []
        # Re-activate the same row beyond the hit window, 8 times.
        delay = 0

        def go(t):
            submit_read(engine, mc, 0, done)

        for i in range(8):
            delay += 400
            engine.schedule(delay, go)
        engine.schedule(delay + 1, lambda t: running.__setitem__(0, False))
        engine.run()
        assert mc.prac.alerts >= 1
        assert len(done) == 8
