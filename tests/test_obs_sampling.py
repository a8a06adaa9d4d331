"""Telemetry cost tiers (REPRO_OBS): the deterministic sampler, mode
resolution, the off/sampled/full Telemetry wiring, root-span trace
sampling, and the sampled device hot path."""

import pytest

from repro.obs import (COUNTER, DEFAULT_SAMPLE_EVERY, MemorySink,
                       NEVER_SAMPLER, NULL_TELEMETRY, OBS_MODES, Sampler,
                       Telemetry, obs_mode, obs_sample_every)
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import small_ssd_config


class TestSampler:
    def test_first_event_always_hits(self):
        assert Sampler(10).hit() is True

    def test_one_in_n_deterministic(self):
        sampler = Sampler(4)
        hits = [sampler.hit() for __ in range(12)]
        assert hits == [True, False, False, False] * 3

    def test_every_one_always_hits(self):
        sampler = Sampler(1)
        assert all(sampler.hit() for __ in range(10))

    def test_reset_rearms_first_hit(self):
        sampler = Sampler(3)
        sampler.hit()
        sampler.hit()
        sampler.reset()
        assert sampler.hit() is True

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            Sampler(0)

    def test_never_sampler(self):
        assert NEVER_SAMPLER.every == 0
        assert not any(NEVER_SAMPLER.hit() for __ in range(5))
        NEVER_SAMPLER.reset()  # no-op


class TestModeResolution:
    def test_default_is_full(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert obs_mode() == "full"

    def test_env_selects_mode(self, monkeypatch):
        for mode in OBS_MODES:
            monkeypatch.setenv("REPRO_OBS", f"  {mode.upper()} ")
            assert obs_mode() == mode

    def test_bad_mode_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "verbose")
        with pytest.raises(ValueError, match="REPRO_OBS"):
            obs_mode()

    def test_sample_every_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_SAMPLE", raising=False)
        assert obs_sample_every() == DEFAULT_SAMPLE_EVERY
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "16")
        assert obs_sample_every() == 16
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "0")
        with pytest.raises(ValueError):
            obs_sample_every()

    def test_sample_every_malformed_value_names_the_variable(self,
                                                             monkeypatch):
        # A typo'd rate must fail with an error that says which variable
        # is wrong and what it accepts — not a bare int() traceback.
        for raw in ("sixty-four", "64x", "1.5", ""):
            monkeypatch.setenv("REPRO_OBS_SAMPLE", raw)
            if not raw.strip():
                assert obs_sample_every() == DEFAULT_SAMPLE_EVERY
                continue
            with pytest.raises(ValueError,
                               match="REPRO_OBS_SAMPLE") as excinfo:
                obs_sample_every()
            assert raw in str(excinfo.value)
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "-3")
        with pytest.raises(ValueError, match="REPRO_OBS_SAMPLE"):
            obs_sample_every()

    def test_telemetry_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "sampled")
        monkeypatch.setenv("REPRO_OBS_SAMPLE", "8")
        telemetry = Telemetry()
        assert telemetry.mode == "sampled"
        assert telemetry.sample_every == 8


class TestTelemetryModes:
    def test_full_mode_samples_everything(self):
        telemetry = Telemetry(mode="full")
        assert telemetry.enabled
        assert telemetry.sampler.every == 1
        assert all(telemetry.sampler.hit() for __ in range(5))

    def test_off_mode_uses_null_registry(self):
        telemetry = Telemetry(mode="off")
        assert telemetry.enabled is False
        assert telemetry.tracer.enabled is False
        assert telemetry.sampler is NEVER_SAMPLER
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
        telemetry = Telemetry(mode="sampled", sample_every=4)
        telemetry.pause()
        assert not telemetry.enabled
        telemetry.resume()
        assert telemetry.enabled and telemetry.tracer.enabled

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            Telemetry(mode="loud")

    def test_null_telemetry_carries_tier_attrs(self):
        assert NULL_TELEMETRY.mode == "off"
        assert NULL_TELEMETRY.sampler is NEVER_SAMPLER
        assert NULL_TELEMETRY.sample_every == 0


class TestRootSpanSampling:
    def test_one_in_n_roots_with_whole_subtrees(self):
        sink = MemorySink()
        telemetry = Telemetry(sink=sink, mode="sampled", sample_every=3)
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
        telemetry = Telemetry(sink=sink, mode="sampled", sample_every=2)
        tracer = telemetry.tracer
        with tracer.span("keep"):
            with tracer.span("inner"):
                pass
        spans = {r["name"]: r for r in sink.spans()}
        assert spans["inner"]["parent_id"] == spans["keep"]["span_id"]

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
        telemetry = Telemetry(mode="sampled", sample_every=10)
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
