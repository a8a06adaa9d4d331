"""Telemetry cost tiers (``Telemetry(mode=...)``): the
off/sampled/full Telemetry wiring, root-span trace sampling — the one
sampling decision, read through ``Tracer.recording`` — and the sampled
device and engine paths, whose histograms hold the traced commands."""

import gc
import weakref

import pytest

from repro.obs import (COUNTER, SAMPLE_EVERY, MemorySink,
                       NULL_TELEMETRY, OBS_MODES, Telemetry)
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import (sampled_telemetry, small_linkbench_stack,
                      small_ssd_config)


class TestModeResolution:
    """The tier comes from the constructor's arguments and nothing else:
    the retired REPRO_OBS / REPRO_OBS_SAMPLE variables change nothing."""

    def test_default_is_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "8")
        assert Telemetry().mode == "full"
        assert (Telemetry(mode="sampled").sample_every
                == SAMPLE_EVERY)

    def test_bad_mode_raises(self):
        # An argument is taken as given: no case folding or stripping
        # (that was shell-string parsing), and the error lists the tiers.
        for mode in ("verbose", " off ", "FULL"):
            with pytest.raises(ValueError) as excinfo:
                Telemetry(mode=mode)
            assert all(tier in str(excinfo.value) for tier in OBS_MODES)


class TestTelemetryModes:
    def test_full_mode_samples_everything(self):
        telemetry = Telemetry(mode="full")
        assert telemetry.enabled
        assert telemetry.sample_every == 1
        tracer = telemetry.tracer
        for __ in range(5):
            with tracer.span("root"):
                assert tracer.recording

    def test_off_mode_uses_null_registry(self):
        telemetry = Telemetry(mode="off")
        assert telemetry.enabled is False
        assert telemetry.tracer.enabled is False
        assert telemetry.tracer.recording is False
        # Nothing registers: a collector is dropped, a histogram handle
        # is None (its record site sits behind ``enabled``).
        owner = {"x": 1}
        telemetry.collect("t", (("x", COUNTER, lambda d: d["x"]),), owner)
        assert telemetry.histogram("h") is None
        assert telemetry.metrics.snapshot() == {}

    def test_off_mode_resume_stays_off(self):
        telemetry = Telemetry(mode="off")
        telemetry.pause()
        telemetry.resume()
        assert telemetry.enabled is False
        assert telemetry.tracer.enabled is False

    def test_sampled_mode_resume_reenables(self):
        telemetry = sampled_telemetry(4)
        telemetry.pause()
        assert not telemetry.enabled
        telemetry.resume()
        assert telemetry.enabled and telemetry.tracer.enabled

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            Telemetry(mode="loud")

    def test_null_telemetry_carries_tier_attrs(self):
        assert type(NULL_TELEMETRY) is Telemetry
        assert NULL_TELEMETRY.mode == "off"
        assert NULL_TELEMETRY.sample_every == 0


class TestNullTelemetryStaysStateless:
    """``NULL_TELEMETRY`` is one off ``Telemetry`` shared by every stack
    built without one: it must hold nothing of any of them."""

    def test_dropped_device_is_collectable(self):
        ssd = Ssd(SimClock(), small_ssd_config())
        assert ssd.telemetry is NULL_TELEMETRY
        for lpn in range(20):
            ssd.write(lpn, lpn)
        ssd.share(30, 0)
        ssd.read(30)
        gone = weakref.ref(ssd)
        del ssd
        gc.collect()
        assert gone() is None
        assert NULL_TELEMETRY.metrics.snapshot() == {}

    def test_stays_off_through_the_lifecycle(self):
        for step in (NULL_TELEMETRY.pause, NULL_TELEMETRY.resume,
                     NULL_TELEMETRY.reset_measurement):
            step()
            assert NULL_TELEMETRY.enabled is False
            assert NULL_TELEMETRY.tracer.recording is False
            assert not NULL_TELEMETRY.maybe_snapshot(10**12)
        assert NULL_TELEMETRY.snapshot()["metrics"] == {}


class TestRootSpanSampling:
    def test_one_in_n_roots_with_whole_subtrees(self):
        sink = MemorySink()
        telemetry = sampled_telemetry(3, sink=sink)
        tracer = telemetry.tracer
        for i in range(9):
            with tracer.span(f"root{i}"):
                with tracer.span(f"child{i}"):
                    pass
        names = {r["name"] for r in sink.spans()}
        # Roots 0, 3, 6 kept — each with its child; others fully dropped.
        assert names == {"root0", "child0", "root3", "child3",
                         "root6", "child6"}

    def test_kept_trees_preserve_parent_chain(self):
        sink = MemorySink()
        telemetry = sampled_telemetry(2, sink=sink)
        tracer = telemetry.tracer
        with tracer.span("keep"):
            with tracer.span("inner"):
                pass
        spans = {r["name"]: r for r in sink.spans()}
        assert spans["inner"]["parent_id"] == spans["keep"]["span_id"]

    def test_recording_flag_follows_the_root_decision(self):
        telemetry = sampled_telemetry(2, MemorySink())
        tracer = telemetry.tracer
        seen = []
        for __ in range(4):
            assert tracer.recording     # between roots: ready to decide
            with tracer.span("root"):
                seen.append(tracer.recording)
        assert seen == [True, False, True, False]
        with tracer.span("root"):      # kept
            telemetry.pause()
            assert not tracer.recording
            telemetry.resume()
            assert tracer.recording
        with tracer.span("root"):      # suppressed: resume cannot undo it
            telemetry.pause()
            telemetry.resume()
            assert not tracer.recording
        assert tracer.recording

    def test_enabled_switch_sets_recording(self):
        tracer = Telemetry(MemorySink(), mode="full").tracer
        tracer.enabled = False
        assert not tracer.recording
        tracer.enabled = True
        assert tracer.recording

    def test_full_mode_traces_every_root(self):
        sink = MemorySink()
        tracer = Telemetry(sink=sink, mode="full").tracer
        for i in range(4):
            with tracer.span(f"r{i}"):
                pass
        assert len(sink.spans()) == 4


class TestSampledDevicePath:
    def test_counters_exact_histograms_sampled(self):
        writes = 200
        telemetry = sampled_telemetry(10)
        ssd = Ssd(SimClock(), small_ssd_config(),
                  telemetry=telemetry, name="dut")
        for i in range(writes):
            ssd.write(i % ssd.logical_pages, i)
        snap = telemetry.metrics.snapshot()
        assert snap["device.dut.write_commands"] == writes
        latency = snap["device.dut.latency_us.write"]
        # 1 in 10 latencies land in the histogram; counters stay exact.
        assert latency["count"] == writes // 10

    def test_full_mode_histograms_record_every_op(self):
        writes = 50
        telemetry = Telemetry(mode="full")
        ssd = Ssd(SimClock(), small_ssd_config(),
                  telemetry=telemetry, name="dut")
        for i in range(writes):
            ssd.write(i % ssd.logical_pages, i)
        snap = telemetry.metrics.snapshot()
        assert snap["device.dut.latency_us.write"]["count"] \
            == snap["device.dut.write_commands"] == writes

    def test_off_mode_records_nothing_but_device_works(self):
        telemetry = Telemetry(mode="off")
        ssd = Ssd(SimClock(), small_ssd_config(),
                  telemetry=telemetry, name="dut")
        for i in range(50):
            ssd.write(i % ssd.logical_pages, i)
        assert ssd.stats.host_write_pages == 50
        assert telemetry.metrics.snapshot() == {}

    @staticmethod
    def sampled_shares():
        """(telemetry, snapshot) after 40 one-pair SHARE commands,
        sampled 1 in 2, on a device loaded with telemetry paused."""
        telemetry = sampled_telemetry(2, MemorySink())
        ssd = Ssd(SimClock(), small_ssd_config(), telemetry=telemetry,
                  name="dut")
        telemetry.pause()
        for lpn in range(40):
            ssd.write(lpn, lpn)
        telemetry.resume()
        telemetry.reset_measurement()
        for index in range(40):
            ssd.share(100 + index, index)
        return telemetry, telemetry.metrics.snapshot()

    def test_share_probe_records_the_traced_commands(self):
        """One decision per root: at N=2 half of 40 SHARE commands are
        traced, and exactly those leave a latency and a batch shape (two
        gates draining one countdown gave 0 latencies and 40 shapes)."""
        telemetry, snap = self.sampled_shares()
        assert snap["device.dut.share_commands"] == 40
        assert snap["device.dut.latency_us.share"]["count"] == 20
        assert snap["ftl.share.batch_pairs"]["count"] == 20
        assert len(telemetry.sink.spans("device.share")) == 20

    def test_map_log_commits_are_sampled_with_their_command(self):
        """Each SHARE commits its deltas with one map-log program inside
        the command's span, so the records-per-commit histogram holds the
        traced commands' commits, not all 40."""
        __, snap = self.sampled_shares()
        assert snap["ftl.maplog.records_per_commit"]["count"] \
            == snap["ftl.share.batch_pairs"]["count"] == 20


class TestSampledEngineStack:
    def test_trace_is_whole_trees_and_histograms_hold_its_commands(self):
        """Sampled LinkBench on an InnoDB SHARE stack (16 clients, queue
        depth 4): every emitted span's parent was emitted too, and each
        kind's latency histogram, summed over both devices, counts
        exactly the ``device.<kind>`` spans of the trace."""
        sink = MemorySink()
        telemetry = sampled_telemetry(4, sink)
        stack, driver = small_linkbench_stack(seed=25, telemetry=telemetry)
        driver.load()
        driver.run(600, concurrency=16)
        stack.data_ssd.drain()
        stack.log_ssd.drain()
        spans = sink.spans()
        ids = {span["span_id"] for span in spans}
        assert not [span for span in spans
                    if span["parent_id"] is not None
                    and span["parent_id"] not in ids]
        snap = telemetry.metrics.snapshot()
        traced = 0
        for kind in ("read", "write", "trim", "share", "flush"):
            recorded = sum(
                snap.get(f"device.{name}.latency_us.{kind}",
                         {"count": 0})["count"]
                for name in ("data", "log"))
            emitted = len(sink.spans(f"device.{kind}"))
            assert recorded == emitted, kind
            traced += emitted
        commands = sum(snap[f"device.{name}.{kind}_commands"]
                       for name in ("data", "log")
                       for kind in ("read", "write", "share", "flush"))
        assert 0 < traced < commands
