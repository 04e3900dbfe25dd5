"""The fabric: directional wires connecting the simulated NICs.

Each ordered rank pair shares one full-duplex link, modelled as a pair of
directional wire resources.  A packet occupies its direction's wire for
``wire_gap + (payload + header) / bandwidth`` (serialization), then lands
at the destination NIC one ``latency`` later (propagation pipelines with
subsequent packets).  This shared-wire serialization is what bounds the
multi-VCI case of Fig. 6: with per-thread VCIs the lock contention is
gone but 32 messages still cross one link.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..sim import URGENT, Environment, Event, Resource, Timeout, Tracer
from .nic import Nic
from .packets import Packet
from .params import SystemParams

__all__ = ["Fabric"]


class Fabric:
    """Connects ranks; owns the wires; delivers packets."""

    #: Time for a loopback (self-send) delivery, bypassing the wire.
    SELF_LATENCY = 0.1e-6

    def __init__(self, env: Environment, params: SystemParams, tracer: Tracer):
        self.env = env
        self.params = params
        self.tracer = tracer
        self._nics: Dict[int, Nic] = {}
        self._wires: Dict[Tuple[int, int], Resource] = {}
        self.packets_sent = 0
        self.bytes_sent = 0

    def register(self, nic: Nic) -> None:
        """Attach a NIC; its VCIs will inject through this fabric."""
        if nic.rank in self._nics:
            raise ValueError(f"rank {nic.rank} already registered")
        self._nics[nic.rank] = nic
        nic.attach_fabric(self.transmit)

    def nic(self, rank: int) -> Nic:
        return self._nics[rank]

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(sorted(self._nics))

    def _wire(self, src: int, dst: int) -> Resource:
        key = (src, dst)
        wire = self._wires.get(key)
        if wire is None:
            wire = Resource(self.env, capacity=1, name=f"wire{src}->{dst}")
            self._wires[key] = wire
        return wire

    def wire_stats(self, src: int, dst: int):
        """Queueing stats of the (src → dst) wire."""
        return self._wire(src, dst).stats

    # ------------------------------------------------------------------
    def transmit(self, pkt: Packet):
        """Generator: carry ``pkt`` across the wire (called by VCI TX loops)."""
        if pkt.dst not in self._nics:
            raise ValueError(f"packet to unregistered rank {pkt.dst}")
        self.packets_sent += 1
        self.bytes_sent += pkt.nbytes
        if pkt.src == pkt.dst:
            self._deliver_later(pkt, self.SELF_LATENCY)
            return
        wire = self._wire(pkt.src, pkt.dst)
        req = wire.request()
        yield req
        yield self.env.timeout(self.params.wire_time(pkt.nbytes))
        wire.release(req)
        if self.tracer.enabled:
            self.tracer.log("fabric", "wire", pkt=pkt.describe())
        self._deliver_later(pkt, self.params.latency)

    def _deliver_later(self, pkt: Packet, delay: float) -> None:
        """Hand ``pkt`` to its destination NIC ``delay`` from now.

        A callback chain in the queue slots a delivery process would
        take: an URGENT start event now which, when processed, arms the
        ``delay`` timeout.  Deliveries due at the same instant therefore
        keep the order a process per packet gave them (arming the
        timeout right here would not).
        """
        env = self.env

        def arm(_: Event) -> None:
            Timeout(env, delay).callbacks.append(
                lambda _: self._nics[pkt.dst].deliver(pkt)
            )

        start = Event(env)
        start._value = None
        start.callbacks.append(arm)
        env.schedule(start, URGENT)
