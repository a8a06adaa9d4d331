"""A guard's retry schedule — jittered backoffs, the virtual timeline
they produce, and where the deadline cuts the attempt chain — is exactly
reproducible: the jitter stream is seeded with ``RETRY_SEED``.  Two
identical runs must agree microsecond-for-microsecond; the crashcheck
sweeps and the failover benchmark depend on this to be re-runnable."""

from repro.errors import DeviceBusyError, RetriesExhaustedError
from repro.host import resilience
from repro.host.resilience import ShareGuard
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import small_ssd_config


class Flaky:
    """Fails the first ``failures`` calls with a retryable busy error."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise DeviceBusyError("transient busy")
        return "ok"


def run_schedule(failures=2, calls=6):
    """One guarded run; returns everything an identical re-run must
    reproduce: the stats counters, the virtual timeline after each call,
    and each call's outcome."""
    clock = SimClock()
    ssd = Ssd(clock, small_ssd_config())
    guard = ShareGuard(ssd, engine="det")
    timeline = []
    outcomes = []
    for __ in range(calls):
        flaky = Flaky(failures)
        try:
            outcomes.append(guard.call("op", flaky))
        except RetriesExhaustedError as exc:
            outcomes.append(("exhausted", exc.attempts))
        timeline.append(clock.now_us)
    return guard.stats, timeline, outcomes


def test_identical_runs_produce_identical_schedules():
    stats_a, timeline_a, outcomes_a = run_schedule()
    stats_b, timeline_b, outcomes_b = run_schedule()
    assert timeline_a == timeline_b
    assert outcomes_a == outcomes_b
    assert stats_a.backoff_us == stats_b.backoff_us
    assert stats_a.retries == stats_b.retries == 12    # 2 per call
    assert stats_a.attempts == stats_b.attempts
    # Jitter actually ran: the timeline is not the jitter-free one.
    assert stats_a.backoff_us > 12 * 200


def test_different_seeds_diverge(monkeypatch):
    monkeypatch.setattr(resilience, "RETRY_SEED", 1)
    __, timeline_a, ___ = run_schedule()
    monkeypatch.setattr(resilience, "RETRY_SEED", 2)
    __, timeline_b, ___ = run_schedule()
    assert timeline_a != timeline_b


def test_deadline_cut_is_deterministic(monkeypatch):
    """With backoffs 200/400/800 (+jitter) a 1000us deadline must fire
    by the third retry — at exactly the same attempt both runs.  The
    constants are patched because at their real values the breaker (3
    failures) ends every chain long before the 2 s deadline could."""
    monkeypatch.setattr(resilience, "DEADLINE_US", 1_000)
    monkeypatch.setattr(resilience, "MAX_ATTEMPTS", 10)
    monkeypatch.setattr(resilience, "FAILURE_THRESHOLD", 100)
    monkeypatch.setattr(resilience, "RETRY_SEED", 7)
    results = [run_schedule(failures=10, calls=4) for __ in range(2)]
    (stats_a, timeline_a, outcomes_a), (stats_b, timeline_b,
                                        outcomes_b) = results
    assert stats_a.deadline_exceeded == stats_b.deadline_exceeded == 4
    assert timeline_a == timeline_b
    assert outcomes_a == outcomes_b
    for outcome in outcomes_a:
        assert outcome[0] == "exhausted"
        assert outcome[1] <= 3    # the deadline cut before the budget
