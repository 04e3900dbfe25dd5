"""Invariants of the event engine that its speed-ups must keep.

Events nobody observes are not scheduled (``Resource.release`` returns
``None``; a delivered packet needs no process), ``run()``'s inlined
dispatch is the same as repeated ``step()`` calls, and packets that
leave their wires at the same instant land in the order they left.
"""

import re

from repro import telemetry
from repro.bench import BenchSpec, run_benchmark
from repro.net import MELUXINA, Fabric, Nic, Packet, PacketKind
from repro.sim import Environment, NullTracer, Resource


def _queued(env):
    return len(env._queue)


def test_release_returns_none_and_schedules_nothing():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    waiter = res.request()
    env.run()
    assert held.processed and waiter.triggered is False
    assert _queued(env) == 0
    assert res.release(held) is None
    # Only the grant to the waiter is scheduled; the release itself adds
    # no event.
    assert _queued(env) == 1
    env.run()
    assert waiter.processed
    assert res.release(waiter) is None
    assert _queued(env) == 0


def test_yielding_processed_event_continues_synchronously():
    env = Environment()
    done = env.event()
    done.succeed("ready")
    seen = []

    def proc(env):
        yield env.timeout(1.0)
        assert done.processed
        before = _queued(env)
        value = yield done  # already processed: no sleep, no new event
        seen.append((value, env.now, _queued(env) - before))
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert seen == [("ready", 1.0, 0)]
    assert env.now == 2.0


def _three_nics():
    env = Environment()
    tracer = NullTracer()
    fabric = Fabric(env, MELUXINA, tracer)
    nics = [Nic(env, r, MELUXINA, tracer) for r in range(3)]
    for nic in nics:
        fabric.register(nic)
        nic.set_handler(lambda pkt: None)
    return env, fabric


def _delivery_order(monkeypatch, sources):
    """Send one equal-sized packet from each rank in ``sources`` to rank
    2 at t=0 (launch order = ``sources``); return the sources in
    ``Nic.deliver`` call order and the set of delivery times."""
    env, fabric = _three_nics()
    calls = []
    original = Nic.deliver

    def spy(self, pkt):
        calls.append((pkt.src, env.now))
        original(self, pkt)

    monkeypatch.setattr(Nic, "deliver", spy)
    for src in sources:
        pkt = Packet(kind=PacketKind.EAGER, src=src, dst=2, nbytes=512)
        env.process(fabric.transmit(pkt))
    env.run()
    return [src for src, _ in calls], {t for _, t in calls}


def test_same_instant_wire_ends_deliver_in_wire_order(monkeypatch):
    arrival = MELUXINA.wire_time(512) + MELUXINA.latency
    order, times = _delivery_order(monkeypatch, [0, 1])
    assert order == [0, 1]
    assert times == {arrival}
    order, times = _delivery_order(monkeypatch, [1, 0])
    assert order == [1, 0]
    assert times == {arrival}


def test_delivery_takes_the_queue_slots_of_a_process(monkeypatch):
    """The delivery timeout is armed when an URGENT start event is
    processed, exactly as a delivery process would arm it, so it ties
    with other same-instant timeouts in the order a process gave it."""
    env, fabric = _three_nics()
    order = []
    original = Nic.deliver
    monkeypatch.setattr(
        Nic, "deliver", lambda self, pkt: (order.append("deliver"), original(self, pkt))
    )
    delay = Fabric.SELF_LATENCY

    def urgent(env):
        yield env.timeout(delay)
        order.append("urgent")

    def sender(env):
        yield env.timeout(1.0)
        # A NORMAL event and an URGENT process start, both queued at
        # this instant before the packet leaves; each arms a timeout
        # due when the loopback packet lands.
        env.timeout(0.0).callbacks.append(
            lambda _: env.timeout(delay).callbacks.append(
                lambda _: order.append("normal")
            )
        )
        env.process(urgent(env))
        yield from fabric.transmit(Packet(kind=PacketKind.CTRL, src=0, dst=0))

    env.process(sender(env))
    env.run()
    assert order == ["urgent", "deliver", "normal"]


def test_deliver_called_once_per_packet_including_self_sends(monkeypatch):
    env, fabric = _three_nics()
    calls = []
    original = Nic.deliver
    monkeypatch.setattr(
        Nic, "deliver", lambda self, pkt: (calls.append(pkt.uid), original(self, pkt))
    )
    pkts = [
        Packet(kind=PacketKind.CTRL, src=0, dst=0),
        Packet(kind=PacketKind.EAGER, src=0, dst=1, nbytes=64),
        Packet(kind=PacketKind.EAGER, src=1, dst=2, nbytes=64),
    ]
    for pkt in pkts:
        env.process(fabric.transmit(pkt))
    env.run()
    assert sorted(calls) == sorted(p.uid for p in pkts)
    # The loopback packet skips the wire and lands first.
    assert calls[0] == pkts[0].uid


def _traced_run(spec):
    records = []
    previous = telemetry.set_trace_sink(records.append)
    try:
        result = run_benchmark(spec)
    finally:
        telemetry.set_trace_sink(previous)
    base = min(int(re.search(r"#(\d+)", r.fields["pkt"]).group(1)) for r in records)
    lines = [
        re.sub(
            r"#(\d+)",
            lambda m: f"#{int(m.group(1)) - base}",
            f"{r.time!r} {r}",
        )
        for r in records
    ]
    return result.mean, lines


def test_step_loop_matches_run(monkeypatch):
    """``run()`` inlines ``step()``; driving the same simulation one
    ``step()`` at a time must produce the same trace and result."""
    spec = BenchSpec(
        approach="pt2pt_part", total_bytes=64 << 10, n_threads=4, iterations=2
    )
    mean, lines = _traced_run(spec)

    def stepped_run(self, until=None):
        assert until is None
        while self.peek() != float("inf"):
            self.step()

    monkeypatch.setattr(Environment, "run", stepped_run)
    stepped_mean, stepped_lines = _traced_run(spec)
    assert stepped_mean == mean
    assert stepped_lines == lines
    assert len(lines) > 100
