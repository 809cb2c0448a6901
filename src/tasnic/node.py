"""Living simulation composition: nodes with NIC ports over a fabric.

A Node glues together its local clock, the per-port NIC egress machinery,
the messaging runtime and the RX pipeline (FCS check of frames that carry
one, local delivery with a fixed host processing delay, or software
forwarding); a frame a node sends to itself enters that pipeline with no
wire in between.  Routing reads ``Frame.final_dst``, the node id a frame's
destination MAC is derived from, for the whole path.
Each Node keeps a route table: the egress port per ``(final_dst, ingress)``,
filled from ``next_hop`` on a miss and emptied by ``Link.set_state`` when a
link of its topology changes state (``Topology.route_tables``).
The Network is built from a parsed Scenario, which has already been
validated, and owns the shared pieces: the event engine, the topology and
its link state, the sync service, frame delivery across links, and global
offered/delivered/drop accounting.  Frames are observed in one way: a frame
that carries a flow id is counted at its flow, ``Network.flows[flow_id]``
(empty unless a run fills it), whose ``offered_frames``, ``drops`` (by
cause) and ``delivered_frames`` the Network bumps, and whose
``on_dequeued`` it calls at the start of the frame's first transmission, at
its origin; the destination's ``NodeRuntime`` hands the flow each of its
messages as it completes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .clock import LocalClock
from .engine import Simulator
from .fabric import (
    DATA_PORT_KINDS,
    Link,
    NodeId,
    PortKind,
)
from .frame import ETHERTYPE_PTP, ETHERTYPE_RUNTIME, MAX_WIRE_BYTES, Frame
from .nic import NicPort, TokenBucket
from .ptp import PTP_PCP, PtpService
from .qdisc import PriorityMap, classify
from .routing import DEFAULT_TTL, next_hop
from .runtime import FragmentHeader, NodeRuntime

if TYPE_CHECKING:
    from .harness import _Flow
    from .scenario import Scenario

ROUTE_TRACE_CAP = 10_000  # route records a traced run keeps for routes.jsonl


class NodeCounters:
    __slots__ = ("rx_frames", "delivered_local", "forwarded", "drops")

    def __init__(self) -> None:
        self.rx_frames = 0
        self.delivered_local = 0
        self.forwarded = 0
        self.drops: dict[str, int] = {}


class Node:
    def __init__(self, network: "Network", node_id: NodeId, clock: LocalClock,
                 priority_map: PriorityMap):
        self.network = network
        self.sim = network.sim
        self.node_id = node_id
        self.clock = clock
        # TX queue of each pcp (a Frame's pcp is 0..7), classified once
        self.queue_of_pcp = tuple(classify(pcp, priority_map) for pcp in range(8))
        self.counters = NodeCounters()
        cap = network.host.injection_cap_bps  # the host budget its ports share
        self.bucket = TokenBucket(cap, MAX_WIRE_BYTES * 8) if cap else None
        self.ports: dict[PortKind, NicPort] = {}
        self.hostrx_label = f"hostrx:{node_id}"
        self.reasm_deadline_label = f"reasm-deadline:{node_id}"
        self.runtime = NodeRuntime(self)
        self._topology = network.topology
        self._routes: dict[tuple[NodeId, PortKind | None], NicPort | None] = {}
        self._topology.route_tables.append(self._routes)

    # -- egress ------------------------------------------------------------

    def send_frame(self, frame: Frame) -> None:
        """Route and enqueue a locally-originated frame."""
        if frame.final_dst == self.node_id:
            self.handle_rx(frame, None)  # no wire: straight to the host step
            return
        self._forward(frame, None)

    def egress_port(self, dst: NodeId, ingress: PortKind | None) -> NicPort | None:
        """The port ``next_hop`` picks toward ``dst`` under the current link
        states, from the node's route table (``Link.set_state`` empties it)."""
        key = (dst, ingress)
        try:
            return self._routes[key]
        except KeyError:
            kind = next_hop(self._topology, self.node_id, dst, ingress)
            port = self._routes[key] = None if kind is None else self.ports[kind]
            return port

    def _forward(self, frame: Frame, ingress: PortKind | None) -> None:
        """Route a frame that came in on ``ingress`` (None: originated here), count
        the link it takes and enqueue it on the egress port."""
        try:  # egress_port, inline on a hit
            port = self._routes[(frame.final_dst, ingress)]
        except KeyError:
            port = self.egress_port(frame.final_dst, ingress)
        if port is None:
            self._drop(frame, "no_route")
            return
        if ingress is not None:
            self.counters.forwarded += 1
        if frame.hops >= DEFAULT_TTL:
            self._drop(frame, "ttl_expired")
            return
        frame.hops += 1
        if frame.route is not None:
            frame.route.append((self.node_id, port.kind.value))
        if frame.ethertype == ETHERTYPE_PTP:
            port.enqueue(NicPort.MGMT_IDX, frame)
        else:
            port.enqueue(self.queue_of_pcp[frame.pcp], frame)

    def _drop(self, frame: Frame, cause: str) -> None:
        drops = self.counters.drops
        drops[cause] = drops.get(cause, 0) + 1
        self.network.count_drop(frame, cause)

    # -- ingress -------------------------------------------------------------

    def handle_rx(self, frame: Frame, ingress: PortKind | None) -> None:
        self.counters.rx_frames += 1
        if frame.fcs is not None and not frame.fcs_ok():
            self._drop(frame, "crc")
            return
        if frame.final_dst == self.node_id:
            self.counters.delivered_local += 1
            if frame.route is not None:
                self.network.record_route(frame)
            if frame.ethertype == ETHERTYPE_PTP:
                # hardware fast path: the sync agent sees the frame directly
                if self.network.ptp is not None:
                    self.network.ptp.on_frame(self, frame, self.clock.read_ns(self.sim.now))
                return
            self.network.count_frame_delivered(frame)
            self.sim.at(self.sim.now + self.network.host.processing_delay_ns,
                        lambda: self.runtime.on_frame(frame), label=self.hostrx_label)
            return
        self._forward(frame, ingress)


class Network:
    """One simulation instance: engine + fabric + nodes + sync service."""

    def __init__(self, scenario: Scenario):
        self.topology = topology = scenario.build_fabric()
        self.sim = Simulator()
        self.host = scenario.host
        self.trace = scenario.trace  # record each port's transmissions and each frame's route
        nic = scenario.nic
        drift_by_node = scenario.resolve_drift(topology)
        self.nodes: dict[NodeId, Node] = {}
        for node_id in topology.nodes:
            clock = LocalClock(drift_ppm=drift_by_node[node_id],
                               quantum_ns=scenario.ptp.quantization_ns)
            node = Node(self, node_id, clock, scenario.priority_map)
            for kind in DATA_PORT_KINDS:
                link = topology.ports[node_id][kind]
                if link is not None:
                    node.ports[kind] = NicPort(node, kind, link, nic.num_tx_queues,
                                               nic.queue_depth)
            self.nodes[node_id] = node
        for node in self.nodes.values():
            for port in node.ports.values():
                peer_id, peer_kind = port.link.other_end(node.node_id)
                port.attach_peer(self.nodes[peer_id], peer_kind)

        self.ptp: PtpService | None = None
        if scenario.ptp.enabled:
            gm = scenario.ptp.grandmaster
            if gm is None:
                gm = min(topology.nodes)
            self.ptp = PtpService(self, gm, scenario.ptp.interval_ms)

        self.flows: list[_Flow] = []  # the run's flows by flow id (module docstring)
        self.frames_offered = 0
        self.frames_delivered = 0
        self.drops_by_cause: dict[str, int] = {}
        self.route_traces: list[dict] = []

    def start(self) -> None:
        if self.ptp is not None:
            self.ptp.start()

    # -- frame construction ---------------------------------------------------

    def build_runtime_frame(self, src: Node, dst: NodeId, payload: bytes, pcp: int) -> Frame:
        """A runtime frame; it counts against the host budget."""
        return Frame(src.node_id, dst, pcp, ETHERTYPE_RUNTIME, payload, True,
                     [] if self.trace else None)

    def send_protocol_frame(self, src_id: NodeId, dst: NodeId, payload: bytes) -> None:
        """Send a PTP message, the one protocol frame the fabric carries; it is
        not host-fed."""
        self.nodes[src_id].send_frame(Frame(src_id, dst, PTP_PCP, ETHERTYPE_PTP, payload,
                                            False, [] if self.trace else None))

    # -- wire-level delivery ---------------------------------------------------

    def schedule_delivery(self, port: NicPort, frame: Frame,
                          tx_start: int, tx_end: int) -> None:
        """Deliver a frame that ``port`` sends from ``tx_start`` to ``tx_end`` to the
        link's far end, one propagation delay later (``NicPort.arrive``).

        The port's frames arrive in the order they were sent: each starts after
        the last one ended, and the link's propagation delay is fixed."""
        port.in_flight.append((frame, tx_start))
        self.sim.at(tx_end + port.prop_delay_ns, port.arrive_action, port.arrive_label)

    # -- accounting -------------------------------------------------------------

    def count_offered(self, frame: Frame) -> None:
        self.frames_offered += 1
        flow_id = frame.flow_id
        if flow_id is not None and self.flows:
            self.flows[flow_id].offered_frames += 1

    def frame_dequeued(self, frame: Frame) -> None:
        flow_id = frame.flow_id
        if flow_id is not None and self.flows:
            self.flows[flow_id].on_dequeued()

    def count_drop(self, frame: Frame, cause: str) -> None:
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1
        flow_id = frame.flow_id
        if flow_id is not None and self.flows:
            drops = self.flows[flow_id].drops
            drops[cause] = drops.get(cause, 0) + 1

    def count_frame_delivered(self, frame: Frame) -> None:
        self.frames_delivered += 1
        flow_id = frame.flow_id
        if flow_id is not None and self.flows:
            self.flows[flow_id].delivered_frames += 1

    def record_route(self, frame: Frame) -> None:
        if len(self.route_traces) >= ROUTE_TRACE_CAP:
            return
        msg_id = frag_index = None  # a sync frame has neither
        if frame.ethertype == ETHERTYPE_RUNTIME:
            header = FragmentHeader.unpack(frame.payload)
            msg_id, frag_index = header.msg_id, header.frag_index
        self.route_traces.append({
            "flow": frame.flow_id,
            "msg_id": msg_id,
            "frag_index": frag_index,
            "route": [[str(n), p] for n, p in frame.route],
            "delivered_to": str(frame.final_dst),
        })

    # -- fault injection -----------------------------------------------------

    def schedule_link_state(self, link: Link, up: bool, at: int) -> None:
        """Set ``link``'s state at ``at``; when it goes down, both end ports
        drop their queued frames (``NicPort.drop_queued``)."""
        def change() -> None:
            if link.set_state(up, at) and not up:
                for node_id, kind in (link.a, link.b):
                    self.nodes[node_id].ports[kind].drop_queued()
        self.sim.at(at, change, label=f"link:{'up' if up else 'down'}")
