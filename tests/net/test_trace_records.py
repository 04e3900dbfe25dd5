"""Trace records of the network layer, pinned.

The NIC and the fabric format their trace records only when the tracer
is enabled.  This pins, for fixed benchmark runs with an enabled
(streaming) tracer, how many ``nic:post``, ``nic:recv`` and
``fabric:wire`` records are written and which packets they name, in
order, so a guard that skips formatting can never drop a record.
"""

import hashlib
import re
from collections import Counter

import pytest

from repro import telemetry
from repro.bench import BenchSpec, run_benchmark

#: approach, total bytes -> (records per kind, sha256 of the ordered
#: ``category:event pkt`` lines).  Packet uids are process-global, so
#: they are renumbered from the run's first packet.
GOLDEN_TRACES = {
    ("pt2pt_part", 64 << 10): (
        44,
        "361a13c34fec78b65f492dca19ebaa202ae08562b79a17b646af228328fab51b",
    ),
    ("rma_many_passive", 4 << 10): (
        64,
        "82c27ced295eee3198075acf14a8fcf6a07c437ecc8c0d1d912c06dc7e0a7648",
    ),
}


def _traced_records(approach, nbytes):
    records = []
    previous = telemetry.set_trace_sink(records.append)
    try:
        run_benchmark(
            BenchSpec(
                approach=approach, total_bytes=nbytes, n_threads=4, iterations=2
            )
        )
    finally:
        telemetry.set_trace_sink(previous)
    return records


def _pkt_lines(records):
    uid = re.compile(r"#(\d+) ")
    base = min(int(uid.search(r.fields["pkt"]).group(1)) for r in records)
    return [
        f"{r.category}:{r.event} "
        + uid.sub(lambda m: f"#{int(m.group(1)) - base} ", r.fields["pkt"])
        for r in records
    ]


@pytest.mark.parametrize("approach,nbytes", sorted(GOLDEN_TRACES))
def test_enabled_tracer_records_every_hop(approach, nbytes):
    records = _traced_records(approach, nbytes)
    per_kind, digest = GOLDEN_TRACES[approach, nbytes]
    kinds = Counter(f"{r.category}:{r.event}" for r in records)
    assert kinds == {"nic:post": per_kind, "fabric:wire": per_kind,
                     "nic:recv": per_kind}
    # Every packet is posted, carried and received exactly once.
    by_kind = {
        kind: sorted(r.fields["pkt"] for r in records
                     if f"{r.category}:{r.event}" == kind)
        for kind in kinds
    }
    assert by_kind["nic:post"] == by_kind["fabric:wire"] == by_kind["nic:recv"]
    lines = "\n".join(_pkt_lines(records)).encode()
    assert hashlib.sha256(lines).hexdigest() == digest

