"""Unit tests for RNG streams and the tracer."""

from repro.sim import Environment, NullTracer, RngRegistry, StreamingTracer


def test_rng_streams_are_reproducible():
    a = RngRegistry(seed=42).stream("x").random(5)
    b = RngRegistry(seed=42).stream("x").random(5)
    assert (a == b).all()


def test_rng_streams_differ_by_name():
    reg = RngRegistry(seed=42)
    a = reg.stream("x").random(5)
    b = reg.stream("y").random(5)
    assert not (a == b).all()


def test_rng_streams_differ_by_seed():
    a = RngRegistry(seed=1).stream("x").random(5)
    b = RngRegistry(seed=2).stream("x").random(5)
    assert not (a == b).all()


def test_rng_stream_is_cached():
    reg = RngRegistry(seed=0)
    assert reg.stream("s") is reg.stream("s")


def test_rng_order_independence():
    """Creating streams in different orders yields the same sequences."""
    r1 = RngRegistry(seed=9)
    r1.stream("a")
    seq_b1 = r1.stream("b").random(3)
    r2 = RngRegistry(seed=9)
    seq_b2 = r2.stream("b").random(3)
    assert (seq_b1 == seq_b2).all()


def test_rng_reset_rederives():
    reg = RngRegistry(seed=3)
    first = reg.stream("s").random(4)
    reg.reset()
    second = reg.stream("s").random(4)
    assert (first == second).all()


def test_tracer_records_time_and_fields():
    env = Environment()
    records = []
    tracer = StreamingTracer(env, records.append)

    def proc(env):
        yield env.timeout(1.5)
        tracer.log("net", "send", nbytes=100)

    env.process(proc(env))
    env.run()
    assert tracer.enabled
    assert len(records) == 1
    rec = records[0]
    assert rec.time == 1.5
    assert rec.category == "net"
    assert rec.event == "send"
    assert rec.fields == {"nbytes": 100}


def test_null_tracer_drops_everything():
    tracer = NullTracer()
    assert not tracer.enabled
    assert tracer.log("net", "send") is None


def test_trace_record_str():
    env = Environment()
    records = []
    StreamingTracer(env, records.append).log("net", "send", nbytes=8)
    s = str(records[0])
    assert "net:send" in s and "nbytes=8" in s
