"""Tests for the host-side SHARE resilience layer: retry policy,
circuit breaker, the guard's error contract, and — the part the paper
never had to worry about — every engine completing its workload with a
permanently failed SHARE command, served entirely by its classic
two-phase fallback."""

import dataclasses

import pytest

from repro.couchstore.compaction import compact
from repro.couchstore.engine import CommitMode, CouchConfig, CouchStore
from repro.errors import (CircuitOpenError, CommandUnsupportedError,
                          DeviceBusyError, PowerFailure,
                          RetriesExhaustedError)
from repro.host.datajournal import CheckpointMode, DataJournalingFs
from repro.host.filesystem import FsConfig, HostFs
from repro.host import resilience
from repro.host.resilience import (BREAKER_CLOSED, BREAKER_HALF_OPEN,
                                   BREAKER_OPEN, CircuitBreaker,
                                   ShareGuard, backoff_us)
from repro.innodb.engine import FlushMode, InnoDBConfig, InnoDBEngine
from repro.sim.clock import SimClock
from repro.sim.faults import (DeviceBusy, FaultPlan, PowerFailAfter,
                              ShareOutage)
from repro.sim.rng import make_rng
from repro.sqlitelike import JournalMode, SqliteLikeDb
from repro.ssd.device import Ssd

from conftest import small_ssd_config


# --------------------------------------------------------- retry schedule


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self, monkeypatch):
        # Jitter off, so the exponential schedule itself is visible.
        monkeypatch.setattr(resilience, "JITTER_FRACTION", 0.0)
        rng = make_rng(1)
        assert [backoff_us(n, rng) for n in range(1, 10)] == [
            200, 400, 800, 1600, 3200, 6400, 12800, 20000, 20000]

    def test_jitter_is_deterministic_per_seed(self):
        a = [backoff_us(n, make_rng(7)) for n in range(1, 5)]
        b = [backoff_us(n, make_rng(7)) for n in range(1, 5)]
        assert a == b

    def test_jitter_stays_bounded(self):
        rng = make_rng(3)
        for __ in range(50):
            assert 200 <= backoff_us(1, rng) <= 250


# --------------------------------------------------------- CircuitBreaker


class TestCircuitBreaker:
    def make(self):
        clock = SimClock()
        seen = []
        return clock, CircuitBreaker(clock, seen.append), seen

    def test_trips_after_threshold(self):
        __, breaker, ___ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        __, breaker, ___ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def trip(self, breaker):
        for __ in range(resilience.FAILURE_THRESHOLD):
            breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_half_open_probe_recovers(self):
        clock, breaker, __ = self.make()
        self.trip(breaker)
        assert not breaker.allow()
        clock.advance(resilience.RECOVERY_TIMEOUT_US - 1)
        assert not breaker.allow()
        clock.advance(1)
        assert breaker.allow()                  # the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()              # probe budget spent
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock, breaker, __ = self.make()
        self.trip(breaker)
        clock.advance(resilience.RECOVERY_TIMEOUT_US)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2
        assert not breaker.allow()              # timeout restarted

    def test_force_open_latches_through_time(self):
        clock, breaker, __ = self.make()
        breaker.force_open()
        clock.advance(10 ** 9)
        assert not breaker.allow()
        breaker.reset()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_transition_callback_fires(self):
        __, breaker, seen = self.make()
        self.trip(breaker)
        breaker.reset()
        assert seen == [BREAKER_OPEN, BREAKER_CLOSED]


# ------------------------------------------------------------- ShareGuard


def make_guard(clock=None):
    clock = clock or SimClock()
    ssd = Ssd(clock, small_ssd_config())
    return ShareGuard(ssd, engine="test")


class Flaky:
    """Callable failing ``failures`` times before succeeding."""

    def __init__(self, failures, exc=DeviceBusyError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"injected failure {self.calls}")
        return "ok"


class TestShareGuard:
    def test_retries_transient_and_succeeds(self):
        clock = SimClock()
        guard = make_guard(clock)
        fn = Flaky(2)
        assert guard.call("t", fn) == "ok"
        assert fn.calls == 3
        assert guard.stats.retries == 2
        assert guard.stats.attempts == 3
        assert clock.now_us > 0              # backoff advanced the clock
        assert guard.breaker.state == BREAKER_CLOSED

    def test_attempt_budget_exhausts(self, monkeypatch):
        # The breaker (3 failures) ends the loop before the budget (4
        # attempts) can; raise its threshold to reach the budget.
        monkeypatch.setattr(resilience, "FAILURE_THRESHOLD", 99)
        guard = make_guard()
        fn = Flaky(99)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            guard.call("t", fn)
        assert fn.calls == resilience.MAX_ATTEMPTS
        assert excinfo.value.attempts == resilience.MAX_ATTEMPTS

    def test_breaker_opening_ends_the_retry_loop(self):
        guard = make_guard()   # threshold 3 < default 4 attempts
        with pytest.raises(RetriesExhaustedError):
            guard.call("t", Flaky(99))
        assert guard.breaker.state == BREAKER_OPEN
        with pytest.raises(CircuitOpenError):
            guard.call("t", Flaky(0))
        assert guard.stats.fast_fails == 1

    def test_non_retryable_fails_immediately(self):
        guard = make_guard()
        fn = Flaky(99, exc=CommandUnsupportedError)
        with pytest.raises(RetriesExhaustedError):
            guard.call("t", fn)
        assert fn.calls == 1
        assert guard.stats.retries == 0

    def test_deadline_bounds_total_time(self):
        """A command that spends the deadline failing is not retried."""
        clock = SimClock()
        guard = make_guard(clock)

        def slow_busy():
            clock.advance(resilience.DEADLINE_US)
            raise DeviceBusyError("busy after a long wait")

        with pytest.raises(RetriesExhaustedError) as excinfo:
            guard.call("t", slow_busy)
        assert excinfo.value.attempts == 1
        assert guard.stats.deadline_exceeded == 1
        assert guard.stats.retries == 0

    def test_power_failure_is_never_swallowed(self):
        guard = make_guard()

        def die():
            raise PowerFailure("crash")

        with pytest.raises(PowerFailure):
            guard.call("t", die)
        # No failure recorded: a crash is not a device failure.
        assert guard.stats.failures == 0

    def test_record_fallback_counts(self):
        guard = make_guard()
        guard.record_fallback()
        guard.record_fallback()
        assert guard.stats.fallbacks == 2


# ----------------------------------------- engines on a SHARE-dead device
#
# Each engine runs a real workload with a sticky SHARE outage from the
# first command, must finish with the correct final state, and must show
# on its guard that the fallback path (not luck) served it.


def test_innodb_completes_on_share_outage():
    faults = FaultPlan()
    faults.commands.arm(ShareOutage(nth=1))
    clock = SimClock()
    data = Ssd(clock, small_ssd_config(), faults=faults)
    log = Ssd(clock, small_ssd_config(), faults=faults)
    engine = InnoDBEngine(FlushMode.SHARE, data, log,
                          InnoDBConfig(buffer_pool_pages=24,
                                       flush_batch_pages=8),
                          faults=faults)
    engine.create_table("t")
    for i in range(300):
        with engine.transaction() as txn:
            txn.put("t", i % 60, ("row", i))
    engine.checkpoint()
    for key in range(60):
        newest = max(i for i in range(300) if i % 60 == key)
        assert engine.table("t").get(key) == ("row", newest)
    guard = engine.dwb.resilience
    assert guard.stats.fallbacks > 0
    assert guard.stats.failures > 0
    assert data.stats.share_pairs == 0      # no SHARE ever landed


def test_couch_commit_and_compaction_complete_on_share_outage(clock):
    faults = FaultPlan()
    faults.commands.arm(ShareOutage(nth=1, error="timeout"))
    ssd = Ssd(clock, small_ssd_config(), faults=faults)
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    store = CouchStore(fs, "/db", CommitMode.SHARE,
                       CouchConfig(leaf_capacity=4, internal_fanout=8,
                                   prealloc_blocks=64))
    for round_number in range(3):
        for key in range(40):
            store.set(key, (f"v{round_number}", key))
        store.commit()
    new_store, result = compact(store, clock)
    assert result.mode == "copy"            # SHARE compaction degraded
    for key in range(40):
        assert new_store.get(key) == ("v2", key)
    guard = new_store.resilience
    assert guard is store.resilience        # guard survives compaction
    assert guard.stats.fallbacks > 0
    assert ssd.stats.share_pairs == 0


def test_couch_compaction_falls_back_on_a_device_without_share(clock):
    """The ioctl refuses a SHARE-less device with IoctlError (a
    filesystem error the guard does not translate); the compaction must
    still degrade to the copy path, not abort with the new file half
    built."""
    ssd = Ssd(clock, dataclasses.replace(small_ssd_config(),
                                         share_enabled=False))
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    store = CouchStore(fs, "/db", CommitMode.SHARE,
                       CouchConfig(leaf_capacity=4, internal_fanout=8,
                                   prealloc_blocks=64))
    for key in range(40):           # inserts only: no SHARE at commit
        store.set(key, ("v0", key))
    store.commit()
    files_before = set(fs._files)
    new_store, result = compact(store, clock)
    assert result.mode == "copy"
    assert set(fs._files) == files_before   # abandoned file unlinked
    for key in range(40):
        assert new_store.get(key) == ("v0", key)
    assert new_store.resilience.stats.fallbacks == 1
    assert ssd.stats.share_commands == 0


def test_sqlite_completes_on_share_outage():
    faults = FaultPlan()
    faults.commands.arm(ShareOutage(nth=1))
    clock = SimClock()
    ssd = Ssd(clock, small_ssd_config(), faults=faults)
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    db = SqliteLikeDb(fs, "/app.db", JournalMode.SHARE, page_count=600,
                      faults=faults)
    for i in range(120):
        db.put(i % 30, ("row", i))
    for key in range(30):
        newest = max(i for i in range(120) if i % 30 == key)
        assert db.get(key) == ("row", newest)
    guard = db.pager.resilience
    assert guard.stats.fallbacks > 0
    assert db.pager.stats.share_pairs == 0
    assert db.pager.stats.journal_page_writes > 0   # rollback mode ran


def test_sqlite_crash_mid_fallback_recovers():
    """Power dies inside a degraded (rollback-journal) commit; reopening
    in SHARE mode must replay the journal like ROLLBACK mode would."""
    faults = FaultPlan()
    faults.commands.arm(ShareOutage(nth=1))
    clock = SimClock()
    ssd = Ssd(clock, small_ssd_config(), faults=faults)
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    db = SqliteLikeDb(fs, "/app.db", JournalMode.SHARE, page_count=600,
                      faults=faults)
    db.put(1, "committed")
    # Die between the journal write and the home writes of the next
    # degraded commit: the journal is live, the home pages are dirty.
    faults.arm(PowerFailAfter("sqlite.after_journal"))
    with pytest.raises(PowerFailure):
        db.put(1, "doomed")
    ssd.power_cycle()
    faults.disarm()
    faults.commands.disarm()
    reopened = SqliteLikeDb.open(fs, "/app.db", JournalMode.SHARE,
                                 page_count=600)
    assert reopened.get(1) == "committed"
    reopened.put(1, "after")
    assert reopened.get(1) == "after"


def test_datajournal_completes_on_share_outage(clock):
    faults = FaultPlan()
    faults.commands.arm(ShareOutage(nth=1))
    ssd = Ssd(clock, small_ssd_config(), faults=faults)
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    journal = DataJournalingFs(fs, CheckpointMode.SHARE, journal_blocks=16)
    file = fs.create("/data")
    file.fallocate(48)
    for step in range(8):
        journal.begin()
        journal.journaled_write(file, step % 12, ("blk", step))
        journal.commit()
    journal.checkpoint()
    for block in range(12):
        steps = [s for s in range(8) if s % 12 == block]
        if steps:
            assert journal.read(file, block) == ("blk", max(steps))
            assert file.pread_block(block) == ("blk", max(steps))
    guard = journal.resilience
    assert guard.stats.fallbacks > 0
    assert journal.stats.checkpoint_share_pairs == 0
    assert journal.stats.checkpoint_writes > 0      # classic copies ran


def test_transient_busy_heals_without_fallback(clock):
    """A busy burst under the retry budget must be absorbed: no
    fallback, SHARE still lands."""
    faults = FaultPlan()
    faults.commands.arm(DeviceBusy("share", nth=1, clears_after=2))
    ssd = Ssd(clock, small_ssd_config(), faults=faults)
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    db = SqliteLikeDb(fs, "/app.db", JournalMode.SHARE, page_count=600,
                      faults=faults)
    for i in range(40):
        db.put(i % 10, ("row", i))
    guard = db.pager.resilience
    assert guard.stats.retries >= 2
    assert guard.stats.fallbacks == 0
    assert db.pager.stats.share_pairs > 0


# ------------------------------------------------- reset + open episodes


class TestBreakerReset:
    def test_reset_always_announces_closed(self):
        """Even an already-closed breaker re-announces CLOSED on reset —
        a promoted shard must re-emit its state gauge, never leave a
        stale value standing."""
        seen = []
        clock = SimClock()
        breaker = CircuitBreaker(clock, seen.append)
        breaker.reset()
        assert seen == [BREAKER_CLOSED]
        breaker.force_open()
        breaker.reset()
        assert seen == [BREAKER_CLOSED, BREAKER_OPEN, BREAKER_CLOSED]

    def test_reset_unlatches_force_open(self):
        clock = SimClock()
        breaker = CircuitBreaker(clock, lambda state: None)
        breaker.force_open()
        assert not breaker.allow()
        breaker.reset()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_reset_clears_probe_accounting(self):
        clock = SimClock()
        breaker = CircuitBreaker(clock, lambda state: None)
        trip = TestCircuitBreaker().trip
        trip(breaker)
        clock.advance(resilience.RECOVERY_TIMEOUT_US)
        assert breaker.allow()             # half-open, probe consumed
        breaker.reset()
        assert breaker._probes_left == 0
        assert breaker._opened_at is None
        # The next trip starts a clean episode: refused until a full
        # fresh recovery timeout elapses, then probes again.
        trip(breaker)
        assert not breaker.allow()
        clock.advance(resilience.RECOVERY_TIMEOUT_US)
        assert breaker.allow()

    def test_guard_gauge_reemitted_on_reset(self, clock):
        from repro.obs import Telemetry
        from repro.obs.sinks import MemorySink
        telemetry = Telemetry(sink=MemorySink(), mode="sampled")
        device = Ssd(clock, small_ssd_config(), telemetry=telemetry)
        guard = ShareGuard(device, engine="shardX")
        gauge = "resilience.breaker_state.shardX"
        assert telemetry.metrics.snapshot()[gauge] == 0
        guard.breaker.force_open()
        assert telemetry.metrics.snapshot()[gauge] == 2
        guard.breaker.reset()
        assert telemetry.metrics.snapshot()[gauge] == 0


class TestGuardOpenEpisodes:
    def make_guard(self):
        clock = SimClock()
        device = Ssd(clock, small_ssd_config())
        return clock, ShareGuard(device)

    def test_episode_duration_accumulates(self):
        clock, guard = self.make_guard()
        assert guard.stats.last_open_us is None
        guard.breaker.force_open()
        assert guard.stats.last_open_us == clock.now_us
        clock.advance(1234)
        guard.breaker.reset()
        assert guard.stats.open_duration_us == 1234
        clock.advance(10)
        guard.breaker.force_open()
        second_open = clock.now_us
        clock.advance(6)
        guard.breaker.reset()
        assert guard.stats.last_open_us == second_open
        assert guard.stats.open_duration_us == 1240

    def test_half_open_flap_does_not_restart_episode(self):
        clock, guard = self.make_guard()
        TestCircuitBreaker().trip(guard.breaker)
        opened_at = clock.now_us
        clock.advance(resilience.RECOVERY_TIMEOUT_US)
        assert guard.breaker.allow()       # half-open probe
        guard.breaker.record_failure()     # flaps back open
        assert guard.stats.last_open_us == opened_at
        clock.advance(resilience.RECOVERY_TIMEOUT_US)
        assert guard.breaker.allow()
        guard.breaker.record_success()     # closes, ending the episode
        assert guard.stats.open_duration_us == clock.now_us - opened_at
