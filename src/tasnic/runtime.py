"""Node-level messaging and configuration primitives.

``send_msg`` splits application data into tagged Ethernet frames (EtherType
0x88B5), each starting with an 18-byte fragment header.  A completed
message goes one way: to ``Network.flows[flow_id]`` when it carries a flow
id and the run has flows, else to the node's ``inbox``, which keeps it until
a ``recv_msg`` takes it.  ``recv_msg`` blocks the calling application
context until a matching message is in the inbox, realized by driving the
event engine rather than busy-waiting; it scans each entry once and leaves
the ones it does not match in place.
Bad arguments raise first: ``send_msg`` wants a size in 1..``MAX_MESSAGE_BYTES``
(the 65,535 fragments a u16 ``frag_count`` can count), a pcp in 0..7 and,
on a network whose run has flows, a flow id that is None or indexes
``Network.flows``, before it takes a msg_id; ``recv_msg`` wants a size in
the same range and a timeout that is not negative before it runs the engine
(``MessageError``); either raises ``AddressError`` for a peer that is no
populated node.
A message that fits one frame is delivered as its frame arrives, with no
reassembly state and no deadline.  The fragments of a multi-frame message
are reassembled in a buffer of ``total_len`` bytes; a partial message that
is still incomplete ``REASSEMBLY_DEADLINE_NS`` (1 s) after its first
fragment arrived is dropped and counted in ``expired_partials``.
``set_conf`` checks a ``ScheduleConfig`` with ``nic.validate_schedule``,
raising ``ConfigError`` before any register write, then writes it into a
port's register file as the image ``nic.schedule_registers`` lays out and
commits it; ``get_conf`` reads the committed table back as the same value.

Fragment header layout (big-endian): msg_id u16, frag_index u16,
frag_count u16, total_len u32, src_id u32, dst_id u32.  Each fragment
carries up to ``MAX_CHUNK`` (1482) data bytes, the maximum payload minus the header.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, NamedTuple

from .engine import TICKS_PER_S, EventHandle, SimTime
from .fabric import AddressError, NodeId, PortKind, decode_id, encode_id
from .frame import MAX_PAYLOAD, Frame
from .nic import REG_COMMIT, default_guardband_ns, schedule_registers, validate_schedule

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

_HEADER = struct.Struct(">HHHIII")
FRAGMENT_HEADER_BYTES = _HEADER.size  # 18
MAX_CHUNK = MAX_PAYLOAD - FRAGMENT_HEADER_BYTES  # 1482 usable bytes per frame
MAX_MESSAGE_BYTES = 0xFFFF * MAX_CHUNK  # 97,122,870: frag_count is a u16
REASSEMBLY_DEADLINE_NS = TICKS_PER_S


class MessageError(Exception):
    """Bad send_msg or recv_msg arguments."""


class ReceiveTimeout(Exception):
    """recv_msg deadline elapsed without a matching message."""


class ReceiveStalled(Exception):
    """recv_msg can never complete: the event queue drained."""


class ConfigError(Exception):
    """Schedule configuration rejected by the register commit."""


class FragmentHeader(NamedTuple):
    msg_id: int
    frag_index: int
    frag_count: int
    total_len: int
    src_id: int
    dst_id: int

    def pack(self) -> bytes:
        return _HEADER.pack(self.msg_id, self.frag_index, self.frag_count,
                            self.total_len, self.src_id, self.dst_id)

    @staticmethod
    def unpack(payload: bytes) -> "FragmentHeader":
        return FragmentHeader(*_HEADER.unpack(payload[:_HEADER.size]))


class Message:
    __slots__ = ("src_id", "data", "send_local_ts", "send_true_ns", "deliver_local_ts",
                 "deliver_true_ns", "flow_id", "hops")

    def __init__(self, src_id: int, data: bytes, send_local_ts: int | None,
                 send_true_ns: int | None, deliver_local_ts: int, deliver_true_ns: int,
                 flow_id: int | None, hops: int):
        self.src_id = src_id
        self.data = data
        self.send_local_ts = send_local_ts
        self.send_true_ns = send_true_ns
        self.deliver_local_ts = deliver_local_ts
        self.deliver_true_ns = deliver_true_ns
        self.flow_id = flow_id
        self.hops = hops


class ScheduleConfig(NamedTuple):
    """A port's schedule, from the scenario file through ``set_conf`` to
    ``get_conf``."""

    port: PortKind
    window_us: int
    entries: tuple[tuple[int, int], ...]  # (queue_idx, slot_us)
    guardband_ns: int | None = None       # None picks the port default


class _Reassembly:
    __slots__ = ("frag_count", "total_len", "buffer", "received", "max_hops",
                 "deadline_handle")

    def __init__(self, frag_count: int, total_len: int):
        self.frag_count = frag_count
        self.total_len = total_len
        self.buffer = bytearray(total_len)
        self.received: set[int] = set()
        self.max_hops = 0
        self.deadline_handle: EventHandle | None = None


class _Destination:
    """A checked peer of ``send_msg`` or ``recv_msg`` and the msg_id the next
    message sent to it takes."""

    __slots__ = ("node_id", "next_msg_id")

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        self.next_msg_id = 0


class NodeRuntime:
    """Messaging endpoint for one node's single application context."""

    def __init__(self, node: "Node"):
        self.node = node
        self._src_id = encode_id(node.node_id)
        self._destinations: dict[int, _Destination] = {}  # by encoded id
        self._partials: dict[tuple[int, int], _Reassembly] = {}
        self.inbox: list[Message] = []  # delivered messages no flow of the run takes
        self.expired_partials = 0
        self.messages_delivered = 0

    # -- sending ----------------------------------------------------------

    def send_msg(self, data: bytes, dst: int, pcp: int = 0,
                 flow_id: int | None = None) -> int:
        """Transfer ``data`` to the node with encoded id ``dst``; returns msg_id."""
        size = len(data)
        frag_count = -(-size // MAX_CHUNK)
        if not 1 <= frag_count <= 0xFFFF:
            raise MessageError(f"size {size} is not in 1..{MAX_MESSAGE_BYTES}")
        if not 0 <= pcp <= 7:
            raise MessageError(f"pcp {pcp} is not in 0..7")
        node = self.node
        network = node.network
        flows = network.flows  # indexed by flow id, so the last holds the largest
        if flow_id is not None and flows and not 0 <= flow_id <= flows[-1].flow_id:
            raise MessageError(f"flow id {flow_id} names no flow of the run")
        dest = self._destinations.get(dst)
        if dest is None:
            dest = self._destination(dst)
        dst_node = dest.node_id
        msg_id = dest.next_msg_id
        dest.next_msg_id = (msg_id + 1) & 0xFFFF
        now = node.sim.now
        send_local = node.clock.read_ns(now)
        src_id = self._src_id
        for idx in range(frag_count):
            start = idx * MAX_CHUNK
            header = _HEADER.pack(msg_id, idx, frag_count, size, src_id, dst)
            frame = network.build_runtime_frame(
                node, dst_node, header + data[start:start + MAX_CHUNK], pcp)
            frame.flow_id = flow_id
            frame.send_local_ts = send_local
            frame.send_true_ns = now
            network.count_offered(frame)
            node.send_frame(frame)
        return msg_id

    def _destination(self, peer: int) -> _Destination:
        """Decode and check the encoded id ``peer`` and cache it as a destination."""
        node_id = decode_id(peer)
        if not self.node.network.topology.has_node(node_id):
            raise AddressError(f"node {node_id} is not a populated node")
        dest = self._destinations[peer] = _Destination(node_id)
        return dest

    # -- receiving ---------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        """Host side of the RX path, called after the processing delay."""
        payload = frame.payload
        msg_id, frag_index, frag_count, total_len, src_id, _ = _HEADER.unpack_from(payload)
        key = (src_id, msg_id)
        part = self._partials.get(key)
        if part is None:
            if frag_count == 1 and frag_index == 0:
                # the whole message is in this frame: nothing to reassemble
                data = payload[FRAGMENT_HEADER_BYTES:FRAGMENT_HEADER_BYTES + total_len]
                if len(data) < total_len:
                    data += bytes(total_len - len(data))
                self._deliver(frame, src_id, data, frame.hops)
                return
            part = _Reassembly(frag_count, total_len)
            sim = self.node.sim
            part.deadline_handle = sim.at(
                sim.now + REASSEMBLY_DEADLINE_NS, lambda: self._expire(key),
                label=self.node.reasm_deadline_label)
            self._partials[key] = part
        if frag_count != part.frag_count or total_len != part.total_len:
            return  # inconsistent fragment; ignore
        if frag_index in part.received or frag_index >= frag_count:
            return
        start = frag_index * MAX_CHUNK
        length = min(MAX_CHUNK, total_len - start)
        chunk = payload[FRAGMENT_HEADER_BYTES:FRAGMENT_HEADER_BYTES + length]
        part.buffer[start:start + len(chunk)] = chunk  # a short chunk leaves zeros
        part.received.add(frag_index)
        part.max_hops = max(part.max_hops, frame.hops)
        if len(part.received) == part.frag_count:
            part.deadline_handle.cancel()
            del self._partials[key]
            self._deliver(frame, src_id, bytes(part.buffer), part.max_hops)

    def _expire(self, key: tuple[int, int]) -> None:
        if key in self._partials:
            del self._partials[key]
            self.expired_partials += 1

    def _deliver(self, frame: Frame, src_id: int, data: bytes, hops: int) -> None:
        """Hand a complete message, stamped with this node's clock now, to its
        flow if the run has flows, else to the inbox."""
        self.messages_delivered += 1
        node = self.node
        now = node.sim.now
        flow_id = frame.flow_id
        msg = Message(src_id, data, frame.send_local_ts, frame.send_true_ns,
                      node.clock.read_ns(now), now, flow_id, hops)
        flows = node.network.flows
        if flow_id is not None and flows:
            flows[flow_id].on_message(msg)
        else:
            self.inbox.append(msg)

    def recv_msg(self, size: int, src: int, timeout: SimTime | None = None) -> bytes:
        """Block until ``size`` bytes from ``src`` have arrived; returns them.

        Blocking is realized by advancing the simulation from the caller's
        application context; it must not be invoked from inside an event.
        """
        if not 1 <= size <= MAX_MESSAGE_BYTES:
            raise MessageError(f"size {size} is not in 1..{MAX_MESSAGE_BYTES}")
        if timeout is not None and timeout < 0:
            raise MessageError(f"timeout {timeout} is negative")
        if src not in self._destinations:
            self._destination(src)
        inbox = self.inbox
        sim = self.node.sim
        deadline = sim.now + timeout if timeout is not None else None
        scanned = 0
        while True:
            for i in range(scanned, len(inbox)):
                msg = inbox[i]
                if msg.src_id == src and len(msg.data) == size:
                    return inbox.pop(i).data
            scanned = len(inbox)
            while len(inbox) == scanned:
                if not sim.step(deadline):
                    if deadline is not None:
                        sim.run_until(deadline)
                        raise ReceiveTimeout(
                            f"no {size}-byte message from {decode_id(src)} within {timeout} ns")
                    raise ReceiveStalled(
                        "event queue drained with the receive still incomplete")

    # -- schedule configuration ---------------------------------------------

    def set_conf(self, cfg: ScheduleConfig) -> None:
        """Program and commit a transmission schedule on a local port."""
        port = self.node.ports.get(cfg.port)
        if port is None:
            raise ConfigError(f"node {self.node.node_id} has no connected {cfg.port.value} port")
        guard = cfg.guardband_ns
        if guard is None:
            guard = default_guardband_ns(port.rate_bps)
        # checked before any write: an SCR keeps 16 bits of a queue index,
        # and the register map has room for MAX_SCHEDULE_ENTRIES entries
        errors = validate_schedule(cfg.window_us, cfg.entries, guard, port.num_tx_queues)
        if errors:
            raise ConfigError("; ".join(errors))
        for offset, value in schedule_registers(cfg.window_us, cfg.entries, guard).items():
            port.regs.write(offset, value)
        port.regs.write(REG_COMMIT, 1)
        if not port.regs.read(REG_COMMIT) & 1:
            raise ConfigError("; ".join(port.regs.last_commit_errors))

    def get_conf(self, port_kind: PortKind) -> ScheduleConfig:
        """Read back the most recently committed schedule of a local port."""
        port = self.node.ports.get(port_kind)
        if port is None:
            raise ConfigError(f"node {self.node.node_id} has no connected {port_kind.value} port")
        table = port.committed_table
        return ScheduleConfig(port_kind, table.window_us, table.entries, table.guardband_ns)
