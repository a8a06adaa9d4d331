"""The closed-loop queueing model, and the device held to it.

The analytic model lives here, beside its only user: it is the serial
oracle of the event-driven device, not part of the simulator.

The paper's LinkBench experiments ran 16 concurrent client threads
against one OpenSSD.  Executing operations serially on a virtual clock
yields the right *throughput* (the device is the bottleneck either way)
but understates *latency*: a real client's response time includes the
queueing delay behind the other clients' in-flight operations — the
paper explicitly credits part of SHARE's read-latency win to "read
requests blocked by preceding writes".

:class:`ClosedLoopQueue` replays a serially-measured service-time stream
through a closed FIFO single-server queue with N clients and zero think
time.  Operations keep their measured service times; what changes is the
*response* time each client observes (wait + service).  This is exact
for a FIFO device serving one command at a time, which is how the
simulated SSD behaves at one channel and queue depth 1.
"""

from dataclasses import dataclass
from typing import List

import pytest


@dataclass(frozen=True)
class QueuedCompletion:
    """One operation's timing after queueing."""

    client: int
    arrival_us: float
    start_us: float
    completion_us: float

    @property
    def response_us(self) -> float:
        return self.completion_us - self.arrival_us

    @property
    def wait_us(self) -> float:
        return self.start_us - self.arrival_us


class ClosedLoopQueue:
    """N closed-loop clients sharing one FIFO server.

    Each client issues its next operation the moment its previous one
    completes; the server (the device) processes one operation at a time
    in submission order.
    """

    def __init__(self, clients: int) -> None:
        if clients < 1:
            raise ValueError(f"need at least one client: {clients}")
        self.clients = clients
        self._client_free: List[float] = [0.0] * clients
        self._server_free = 0.0
        self._next_client = 0
        self.completions = 0

    def submit(self, service_us: float) -> QueuedCompletion:
        """Submit the next operation (round-robin over clients) with the
        serially-measured ``service_us``; returns its queued timing."""
        if service_us < 0:
            raise ValueError(f"negative service time: {service_us}")
        client = self._next_client
        self._next_client = (self._next_client + 1) % self.clients
        arrival = self._client_free[client]
        start = max(arrival, self._server_free)
        completion = start + service_us
        self._server_free = completion
        self._client_free[client] = completion
        self.completions += 1
        return QueuedCompletion(client, arrival, start, completion)

    @property
    def makespan_us(self) -> float:
        """Total virtual time to drain everything submitted so far."""
        return self._server_free


def test_single_client_has_no_wait():
    queue = ClosedLoopQueue(1)
    first = queue.submit(10.0)
    second = queue.submit(5.0)
    assert first.wait_us == 0.0
    assert second.wait_us == 0.0
    assert second.response_us == 5.0
    assert queue.makespan_us == 15.0


def test_two_clients_queue_behind_each_other():
    queue = ClosedLoopQueue(2)
    a = queue.submit(10.0)   # client 0: starts at 0, done at 10
    b = queue.submit(10.0)   # client 1: arrives 0, waits 10, done 20
    assert a.response_us == 10.0
    assert b.wait_us == 10.0
    assert b.response_us == 20.0


def test_steady_state_response_is_n_times_service():
    clients = 8
    queue = ClosedLoopQueue(clients)
    last = None
    for __ in range(200):
        last = queue.submit(1.0)
    # With uniform service, every client waits behind the other N-1.
    assert last.response_us == pytest.approx(clients * 1.0)


def test_makespan_equals_total_service():
    """Zero think time: the server never idles after startup, so the
    makespan equals the sum of services — throughput is unchanged by
    the client count."""
    queue = ClosedLoopQueue(5)
    total = 0.0
    for service in (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0):
        queue.submit(service)
        total += service
    assert queue.makespan_us == pytest.approx(total)


def test_burst_inflates_followers_latency():
    """A long (GC-stalled) operation delays every queued client — the
    mechanism behind the paper's Table 1 read tails."""
    queue = ClosedLoopQueue(4)
    for __ in range(8):
        queue.submit(1.0)
    queue.submit(100.0)          # the GC burst
    follower = queue.submit(1.0)
    assert follower.response_us > 100.0


def test_round_robin_client_assignment():
    queue = ClosedLoopQueue(3)
    completions = [queue.submit(1.0) for __ in range(6)]
    assert [c.client for c in completions] == [0, 1, 2, 0, 1, 2]


def test_validation():
    with pytest.raises(ValueError):
        ClosedLoopQueue(0)
    with pytest.raises(ValueError):
        ClosedLoopQueue(2).submit(-1.0)


# ---------------------------------------------------------------------------
# Oracle equivalence: the analytic closed-loop queue is kept as an
# independent model of the event-driven device.  At one channel, queue
# depth 1 and FIFO admission the device must reproduce the oracle's
# response times *exactly* on the same service stream — the proof that
# the event-driven refactor is a strict generalization of the serial
# model, not a reimplementation that happens to be close.
# ---------------------------------------------------------------------------


def _build_device():
    from repro.flash.geometry import FlashGeometry
    from repro.flash.timing import FAST_TIMING
    from repro.ftl.config import FtlConfig
    from repro.sim.clock import SimClock
    from repro.ssd.device import Ssd, SsdConfig

    clock = SimClock()
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=16,
                               block_count=48),
        timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4)))
    return clock, ssd


def _op_stream(count=240, seed=11):
    import random

    rng = random.Random(seed)
    ops = []
    for step in range(count):
        roll = rng.random()
        if roll < 0.75:
            ops.append(("write", rng.randrange(64), ("v", step)))
        elif roll < 0.9:
            ops.append(("read", rng.randrange(64), None))
        else:
            ops.append(("flush", 0, None))
    return ops


def _run_op(ssd, op):
    kind, lpn, value = op
    if kind == "write":
        ssd.write(lpn, value)
    elif kind == "read":
        try:
            ssd.read(lpn)
        except Exception:
            ssd.write(lpn, ("seed", lpn))   # unmapped: write instead
    else:
        ssd.flush()


def test_event_device_qd1_reproduces_closed_loop_oracle():
    clients = 4
    ops = _op_stream()

    # Serial measurement feeding the analytic oracle.
    clock, ssd = _build_device()
    queue = ClosedLoopQueue(clients)
    oracle = []
    for op in ops:
        start = clock.now_us
        _run_op(ssd, op)
        oracle.append(queue.submit(clock.now_us - start))

    # The same stream through real sessions on an identical device.
    from repro.ssd.ncq import DeviceSession, issuing

    clock2, ssd2 = _build_device()
    sessions = [DeviceSession(client, 0) for client in range(clients)]
    responses = []
    for index, op in enumerate(ops):
        session = sessions[index % clients]
        arrival = session.now_us
        with issuing(session, ssd2):
            _run_op(ssd2, op)
        responses.append(session.now_us - arrival)
        ssd2.poll(session.now_us)
    ssd2.drain()

    assert responses == [completion.response_us for completion in oracle]
    assert clock2.now_us == queue.makespan_us
    assert clock2.now_us == clock.now_us


def test_oracle_equivalence_holds_for_any_client_count():
    for clients in (1, 2, 3, 8, 16):
        ops = _op_stream(count=120, seed=100 + clients)
        clock, ssd = _build_device()
        queue = ClosedLoopQueue(clients)
        oracle = []
        for op in ops:
            start = clock.now_us
            _run_op(ssd, op)
            oracle.append(queue.submit(clock.now_us - start))

        from repro.ssd.ncq import DeviceSession, issuing

        clock2, ssd2 = _build_device()
        sessions = [DeviceSession(client, 0) for client in range(clients)]
        responses = []
        for index, op in enumerate(ops):
            session = sessions[index % clients]
            arrival = session.now_us
            with issuing(session, ssd2):
                _run_op(ssd2, op)
            responses.append(session.now_us - arrival)
            ssd2.poll(session.now_us)
        ssd2.drain()
        assert responses == [c.response_us for c in oracle], clients
