"""Grandmaster/slave clock synchronization over the data fabric.

One grandmaster periodically runs a two-way exchange with every other
node: Sync (master to slave, carrying the hardware departure timestamp),
Delay-Req (slave to master) and Delay-Resp (master to slave, carrying the
request's arrival timestamp).  The slave computes the classic offset
estimate ((t2-t1) - (t4-t3)) / 2 and feeds its servo.  The grandmaster keeps
no per-exchange state: it sends each Delay-Resp to the node the Delay-Req
frame names as its source (``Frame.src``), and each slave matches the
exchange id against its one pending exchange.

Sync frames ride the regular data links (EtherType 0x88F7) but are queued
on each port's dedicated management queue, so they never occupy a
time-scheduled slot and are not charged against the host injection budget.
Other-slave exchanges are staggered inside the sync interval to keep them
from queueing behind each other.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, NamedTuple

from .clock import apply_servo, ptp_offset_estimate
from .engine import TICKS_PER_MS
from .fabric import NodeId
from .frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from .node import Network, Node

MSG_SYNC = 0
MSG_DELAY_REQ = 1
MSG_DELAY_RESP = 2
PTP_PCP = 7  # the priority sync frames carry; the management queue holds them whatever it is

_WIRE = struct.Struct(">BQI")  # msg_type u8, origin_timestamp u64, exchange_id u32


class PtpMessage(NamedTuple):
    msg_type: int
    origin_timestamp: int
    exchange_id: int

    def pack(self) -> bytes:
        return _WIRE.pack(self.msg_type, self.origin_timestamp, self.exchange_id)

    @staticmethod
    def unpack(payload: bytes) -> "PtpMessage":
        return PtpMessage(*_WIRE.unpack(payload[:_WIRE.size]))


class SlaveSync:
    """A slave's servo state and its one pending exchange: ``pending_id`` and
    the exchange's t1-t3, which each Sync resets."""

    __slots__ = ("last_apply_local_ns", "pending_id", "t1", "t2", "t3", "estimates",
                 "rounds_completed")

    def __init__(self) -> None:
        self.last_apply_local_ns: int | None = None  # the servo's last corrected reading
        self.pending_id: int | None = None
        self.t1: int | None = None
        self.t2: int | None = None
        self.t3: int | None = None
        self.estimates: list[tuple[int, int]] = []  # (true_ns, est_ns)
        self.rounds_completed = 0


class PtpService:
    """Drives the periodic exchanges and owns per-slave servo state."""

    def __init__(self, network: "Network", grandmaster: NodeId, interval_ms: int):
        self.network = network
        self.grandmaster = grandmaster
        self.interval_ns = interval_ms * TICKS_PER_MS
        self.slaves: dict[NodeId, SlaveSync] = {
            n: SlaveSync() for n in network.topology.nodes if n != grandmaster
        }
        self._next_exchange_id = 1

    def start(self) -> None:
        ordered = sorted(self.slaves)
        stagger = min(2 * TICKS_PER_MS, self.interval_ns // (len(ordered) + 1) or 1)
        for k, slave in enumerate(ordered):
            first = (k + 1) * stagger
            self.network.sim.at(first, self._round_fn(slave), label=f"ptp:sync:{slave}")

    def _round_fn(self, slave: NodeId):
        def fire() -> None:
            self._send_sync(slave)
            sim = self.network.sim
            sim.at(sim.now + self.interval_ns, fire, label=f"ptp:sync:{slave}")
        return fire

    # -- frame construction ----------------------------------------------

    def _send(self, src: NodeId, dst: NodeId, msg: PtpMessage) -> None:
        self.network.send_protocol_frame(src, dst, msg.pack())

    def _send_sync(self, slave: NodeId) -> None:
        eid = self._next_exchange_id
        self._next_exchange_id += 1
        state = self.slaves[slave]
        state.pending_id = eid
        state.t1 = state.t2 = state.t3 = None
        # origin timestamp is patched in hardware as the frame leaves the wire
        self._send(self.grandmaster, slave, PtpMessage(MSG_SYNC, 0, eid))

    # -- hardware timestamp hook ------------------------------------------

    def on_tx_start(self, node_id: NodeId, frame: Frame, tx_local: int) -> None:
        """One-step timestamping: patch origin time at the originating port."""
        if frame.hops != 1:
            return  # transit hop (hops counts link traversals, origin = 1)
        msg = PtpMessage.unpack(frame.payload)
        if msg.msg_type not in (MSG_SYNC, MSG_DELAY_REQ):
            return
        # the stamped message takes the place of the old one: the length stays
        frame.payload = (PtpMessage(msg.msg_type, tx_local, msg.exchange_id).pack()
                         + frame.payload[_WIRE.size:])
        if msg.msg_type == MSG_DELAY_REQ:
            state = self.slaves.get(node_id)
            if state is not None and state.pending_id == msg.exchange_id:
                state.t3 = tx_local

    # -- protocol handlers --------------------------------------------------

    def on_frame(self, node: "Node", frame: Frame, rx_local: int) -> None:
        """Handle a sync frame delivered to ``node``, received at local time ``rx_local``."""
        msg = PtpMessage.unpack(frame.payload)
        if msg.msg_type == MSG_SYNC and node.node_id in self.slaves:
            state = self.slaves[node.node_id]
            if state.pending_id != msg.exchange_id:
                return
            state.t1 = msg.origin_timestamp
            state.t2 = rx_local
            self._send(node.node_id, self.grandmaster, PtpMessage(MSG_DELAY_REQ, 0, msg.exchange_id))
        elif msg.msg_type == MSG_DELAY_REQ and node.node_id == self.grandmaster:
            self._send(self.grandmaster, frame.src,
                       PtpMessage(MSG_DELAY_RESP, rx_local, msg.exchange_id))
        elif msg.msg_type == MSG_DELAY_RESP and node.node_id in self.slaves:
            state = self.slaves[node.node_id]
            if state.pending_id != msg.exchange_id or None in (state.t1, state.t2, state.t3):
                return
            est = ptp_offset_estimate(state.t1, state.t2, state.t3, msg.origin_timestamp)
            now = self.network.sim.now
            state.last_apply_local_ns = apply_servo(node.clock, est, now,
                                                    state.last_apply_local_ns)
            state.estimates.append((now, est))
            state.rounds_completed += 1
            state.pending_id = None

    def true_offset_ns(self, slave: NodeId, true_now: int) -> float:
        """Exact slave-minus-grandmaster clock divergence (test oracle)."""
        gm_clock = self.network.nodes[self.grandmaster].clock
        slave_clock = self.network.nodes[slave].clock
        return slave_clock.local_exact(true_now) - gm_clock.local_exact(true_now)
