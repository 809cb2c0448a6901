"""Traced run: spans around public calls into each layer, and their metrics.

``Tracer.install`` replaces public functions and methods where the program
looks them up (``next_hop`` and ``classify`` are bound by name in
``tasnic.node``, ``build_network`` in ``tasnic.harness``), so the model runs
unchanged while every call records a span: name, start, end and the span
that was open when it began.  Spans stay in four flat arrays until the run
ends; ``write`` saves them and ``summary`` turns them into per-name calls,
total and self time (a span's duration minus its children's).

All figures here are inflated by the tracing itself; the traced run reports
``harness.trace_overhead`` so they can be read against the untraced run.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# Event kinds are the label prefix before the first ':'.
EVENT_KINDS = ("arrive", "txdone", "wake", "hostrx", "flowgen", "flowstart", "ptp",
               "ptp-sample", "commit", "link", "loopback", "reasm-deadline")
OTHER_KIND = "other"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = [-1]
        # counts taken at the same boundaries as the spans
        self.scheduled: Counter[str] = Counter()
        self.cancelled_before_firing = 0
        self.routing_keys: set = set()
        self.fcs_bytes = 0
        self.token_blocked = 0
        self.fragments_sent = 0
        self.reassembled_bytes = 0
        self.dropped_frame_hops = 0
        self.protocol_frames = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span."""
        return self._span_id(self._id(name), fn)

    def _span_id(self, nid: int, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        current = self._current
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parents[idx]

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, tas) -> None:
        """Wrap the public entry points of a freshly imported ``tasnic``."""
        span = self.span
        engine, clock, fabric, frame = tas.engine, tas.clock, tas.fabric, tas.frame
        nic, node, runtime, harness = tas.nic, tas.node, tas.runtime, tas.harness

        self._install_engine(engine)
        self._wrap_method(clock.LocalClock, "read_ns", "clock.read_ns")
        self._wrap_method(clock.LocalClock, "true_at_local", "clock.true_at_local")
        self._wrap_method(fabric.Link, "up_throughout", "fabric.up_throughout")
        self._wrap_method(fabric.Topology, "wrap_link", "fabric.wrap_link")

        traced_next_hop = span("routing.next_hop", node.next_hop)
        keys = self.routing_keys

        def next_hop(topo, cur, dst, ingress=None):
            keys.add((cur, dst, ingress))
            return traced_next_hop(topo, cur, dst, ingress)
        node.next_hop = next_hop
        node.classify = span("qdisc.classify", node.classify)

        tracer = self
        stamp = span("frame.stamp_fcs", frame.Frame.stamp_fcs)
        check = span("frame.fcs_ok", frame.Frame.fcs_ok)

        def stamp_fcs(f):
            tracer.fcs_bytes += f.wire_bytes - frame.FCS_BYTES
            return stamp(f)

        def fcs_ok(f):
            tracer.fcs_bytes += f.wire_bytes - frame.FCS_BYTES
            return check(f)
        frame.Frame.stamp_fcs = stamp_fcs
        frame.Frame.fcs_ok = fcs_ok

        self._wrap_method(nic.NicPort, "enqueue", "nic.enqueue")
        self._wrap_method(nic.NicPort, "kick", "nic.kick")
        ready_time = span("nic.token_ready", nic.TokenBucket.ready_time)

        def token_ready(bucket, bits, now):
            when = ready_time(bucket, bits, now)
            if when > now:
                tracer.token_blocked += 1
            return when
        nic.TokenBucket.ready_time = token_ready

        self._wrap_method(tas.ptp.PtpService, "on_frame", "ptp.on_frame")

        send = span("runtime.send_msg", runtime.NodeRuntime.send_msg)

        def send_msg(rt, data, dst, pcp=0, flow_id=None):
            tracer.fragments_sent += -(-len(data) // runtime.MAX_CHUNK)
            return send(rt, data, dst, pcp, flow_id)
        runtime.NodeRuntime.send_msg = send_msg
        on_frame = span("runtime.on_frame", runtime.NodeRuntime.on_frame)

        def rt_on_frame(rt, f):
            done = rt.messages_delivered
            on_frame(rt, f)
            if rt.messages_delivered != done:
                tracer.reassembled_bytes += runtime.FragmentHeader.unpack(f.payload).total_len
        runtime.NodeRuntime.on_frame = rt_on_frame
        self._wrap_method(runtime.NodeRuntime, "recv_msg", "runtime.recv_msg")

        self._wrap_method(node.Node, "handle_rx", "node.handle_rx")
        self._wrap_method(node.Network, "schedule_delivery", "node.schedule_delivery")
        count_drop = node.Network.count_drop

        def counted_drop(net, f, cause):
            tracer.dropped_frame_hops += f.meta.hops
            return count_drop(net, f, cause)
        node.Network.count_drop = counted_drop
        send_protocol = node.Network.send_protocol_frame

        def send_protocol_frame(net, *args, **kwargs):
            tracer.protocol_frames += 1
            return send_protocol(net, *args, **kwargs)
        node.Network.send_protocol_frame = send_protocol_frame

        self._wrap_method(tas.metrics.FlowRecorder, "on_message", "metrics.on_message")
        self._wrap_method(tas.scenario.Scenario, "digest", "scenario.digest")
        harness.build_network = span("harness.build_network", harness.build_network)
        tas.build_network = harness.build_network
        tas.parse_scenario = span("scenario.load", tas.parse_scenario)
        tas.run_scenario = span("harness.run_scenario", tas.run_scenario)
        tas.emit_report = span("harness.emit_report", tas.emit_report)

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.span(name, getattr(cls, attr)))

    def _install_engine(self, engine) -> None:
        """Spans on push (``at``), pop (``step``) and each event's action."""
        sim_cls = engine.Simulator
        self._wrap_method(sim_cls, "run_until", "engine.run_until")
        self._wrap_method(sim_cls, "step", "engine.step")
        at = self.span("engine.at", sim_cls.at)
        kind_ids = {k: self._id("engine.action." + k) for k in (*EVENT_KINDS, OTHER_KIND)}
        span_id = self._span_id
        scheduled = self.scheduled
        fired: set[int] = set()

        def traced_at(sim, when, action, label=""):
            kind = label.partition(":")[0]
            if kind not in kind_ids:
                kind = OTHER_KIND
            scheduled[kind] += 1
            traced_action = span_id(kind_ids[kind], action)
            seq = []

            def fire():
                fired.add(seq[0])
                traced_action()

            handle = at(sim, when, fire, label)
            seq.append(handle.seq)
            return handle
        sim_cls.at = traced_at

        cancel = engine.EventHandle.cancel
        tracer = self

        def traced_cancel(handle):
            if not handle.cancelled and handle.seq not in fired:
                tracer.cancelled_before_firing += 1
            cancel(handle)
        engine.EventHandle.cancel = traced_cancel

    # -- output ---------------------------------------------------------------

    def write(self, stem: Path) -> list[Path]:
        """Save the spans: ``<stem>.spans`` (four packed arrays) and a JSON index."""
        data = stem.with_suffix(".spans")
        with open(data, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = stem.with_suffix(".spans.json")
        index.write_text(json.dumps({
            "count": len(self.start),
            "layout": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"],
            "names": self.names,
        }, indent=1) + "\n")
        return [data, index]

    def summary(self) -> tuple[dict[str, dict], int]:
        """Per span name: calls, total_s and self_s; plus the count of
        ``clock.read_ns`` spans opened directly inside ``clock.true_at_local``."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        for i in range(n):
            d = end[i] - start[i]
            k = name[i]
            calls[k] += 1
            total[k] += d
            self_t[k] += d - child[i]
        read_id = self._ids.get("clock.read_ns")
        tal_id = self._ids.get("clock.true_at_local")
        nested_reads = sum(1 for i in range(n)
                           if name[i] == read_id and parent[i] >= 0 and name[parent[i]] == tal_id)
        out = {nm: {"calls": calls[k], "total_s": total[k], "self_s": self_t[k]}
               for k, nm in enumerate(self.names)}
        return out, nested_reads


def _noop() -> None:
    pass


def span_overhead_us(calls: int = 50_000) -> float:
    """Host time a span adds to one call, from a traced and a bare no-op loop."""
    traced = Tracer().span("noop", _noop)
    t0 = perf_counter()
    for _ in range(calls):
        _noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced, untraced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced episode, keyed by name: (value, unit).

    ``traced`` and ``untraced`` are the traced episode and the untraced
    reference episode run in the same process on the same inputs.
    """
    spans, nested_reads = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    net = traced.network
    recorders = traced.recorders
    report = traced.report
    events = report["totals"]["events_processed"]
    hops = traced.hops
    frames_sent = report["totals"]["frames_offered"] + tracer.protocol_frames
    ttl_expired = report["totals"]["drops_by_cause"].get("ttl_expired", 0)
    ports = [p for n in net.nodes.values() for p in n.ports.values()]
    tx_frames = sum(p.tx_frames for p in ports)
    step_self = self_s("engine.step")
    fcs_calls = calls("frame.stamp_fcs") + calls("frame.fcs_ok")
    fcs_s = self_s("frame.stamp_fcs") + self_s("frame.fcs_ok")
    engine_self = step_self + self_s("engine.run_until")

    m: dict[str, tuple[float, str]] = {
        "engine.events": (events, "count"),
        "engine.events_per_hop": (_ratio(events, hops), "ratio"),
        "engine.events_per_s": (_ratio(untraced.events, untraced.run_s), "1/s"),
        "engine.scheduled": (sum(tracer.scheduled.values()), "count"),
        "engine.cancelled_share": (_ratio(tracer.cancelled_before_firing,
                                          sum(tracer.scheduled.values())), "ratio"),
        "engine.at_s": (self_s("engine.at"), "s"),
        "engine.self_s": (engine_self, "s"),
        "engine.push_pop_us": (_ratio(self_s("engine.at") + step_self, events) * 1e6, "us"),
    }
    for kind in (*EVENT_KINDS, OTHER_KIND):
        m[f"engine.events.{kind}"] = (calls("engine.action." + kind), "count")
        m[f"engine.action_s.{kind}"] = (self_s("engine.action." + kind), "s")
    m.update({
        "clock.read_calls": (calls("clock.read_ns"), "count"),
        "clock.read_s": (self_s("clock.read_ns"), "s"),
        "clock.read_us": (_ratio(self_s("clock.read_ns"), calls("clock.read_ns")) * 1e6, "us"),
        "clock.true_at_local_calls": (calls("clock.true_at_local"), "count"),
        "clock.true_at_local_s": (self_s("clock.true_at_local"), "s"),
        "clock.reads_per_true_at_local": (_ratio(nested_reads, calls("clock.true_at_local")),
                                          "ratio"),
        "fabric.up_throughout_calls": (calls("fabric.up_throughout"), "count"),
        "fabric.up_throughout_s": (self_s("fabric.up_throughout"), "s"),
        "fabric.wrap_link_calls": (calls("fabric.wrap_link"), "count"),
        "fabric.wrap_link_s": (self_s("fabric.wrap_link"), "s"),
        "routing.next_hop_calls": (calls("routing.next_hop"), "count"),
        "routing.next_hop_s": (self_s("routing.next_hop"), "s"),
        "routing.next_hop_us": (_ratio(self_s("routing.next_hop") + self_s("fabric.wrap_link"),
                                       calls("routing.next_hop")) * 1e6, "us"),
        "routing.distinct_keys": (len(tracer.routing_keys), "count"),
        "routing.ttl_expired_share": (_ratio(ttl_expired, frames_sent), "ratio"),
        "routing.wasted_hop_share": (_ratio(tracer.dropped_frame_hops, hops), "ratio"),
        "frame.fcs_calls": (fcs_calls, "count"),
        "frame.fcs_s": (fcs_s, "s"),
        "frame.fcs_bytes": (tracer.fcs_bytes, "B"),
        "frame.stamp_fcs_us": (_ratio(self_s("frame.stamp_fcs"),
                                      calls("frame.stamp_fcs")) * 1e6, "us"),
        "frame.fcs_ok_us": (_ratio(self_s("frame.fcs_ok"), calls("frame.fcs_ok")) * 1e6, "us"),
        "nic.enqueue_calls": (calls("nic.enqueue"), "count"),
        "nic.enqueue_s": (self_s("nic.enqueue"), "s"),
        "nic.kick_calls": (calls("nic.kick"), "count"),
        "nic.kick_self_s": (self_s("nic.kick"), "s"),
        "nic.tx_per_kick": (_ratio(tx_frames, calls("nic.kick")), "ratio"),
        "nic.token_ready_calls": (calls("nic.token_ready"), "count"),
        "nic.token_blocked_share": (_ratio(tracer.token_blocked, calls("nic.token_ready")),
                                    "ratio"),
        "nic.queue_drops": (sum(q.drops for p in ports for q in (*p.queues, p.mgmt_queue)),
                            "count"),
        "qdisc.classify_calls": (calls("qdisc.classify"), "count"),
        "qdisc.classify_s": (self_s("qdisc.classify"), "s"),
        "ptp.frames": (calls("ptp.on_frame"), "count"),
        "ptp.rounds": (sum(s.rounds_completed for s in net.ptp.slaves.values())
                       if net.ptp is not None else 0, "count"),
        "ptp.on_frame_s": (self_s("ptp.on_frame"), "s"),
        "runtime.send_msg_calls": (calls("runtime.send_msg"), "count"),
        "runtime.send_msg_s": (self_s("runtime.send_msg"), "s"),
        "runtime.fragments_sent": (tracer.fragments_sent, "count"),
        "runtime.send_us_per_fragment": (_ratio(self_s("runtime.send_msg"),
                                                tracer.fragments_sent) * 1e6, "us"),
        "runtime.on_frame_calls": (calls("runtime.on_frame"), "count"),
        "runtime.on_frame_s": (self_s("runtime.on_frame"), "s"),
        "runtime.on_frame_us": (_ratio(self_s("runtime.on_frame"),
                                       calls("runtime.on_frame")) * 1e6, "us"),
        "runtime.recv_msg_self_s": (self_s("runtime.recv_msg"), "s"),
        "runtime.reassembled_bytes": (tracer.reassembled_bytes, "B"),
        "runtime.expired_partials": (sum(n.runtime.expired_partials for n in net.nodes.values()),
                                     "count"),
        "node.handle_rx_calls": (calls("node.handle_rx"), "count"),
        "node.handle_rx_self_s": (self_s("node.handle_rx"), "s"),
        "node.schedule_delivery_s": (self_s("node.schedule_delivery"), "s"),
        "node.forwarded": (sum(n.counters.forwarded for n in net.nodes.values()), "count"),
        "metrics.on_message_calls": (calls("metrics.on_message"), "count"),
        "metrics.on_message_s": (self_s("metrics.on_message"), "s"),
        "metrics.messages_held": (sum(len(r.messages) for r in recorders), "count"),
        "scenario.load_s": (total_s("scenario.load"), "s"),
        "scenario.digest_s": (total_s("scenario.digest"), "s"),
        "harness.build_network_s": (total_s("harness.build_network"), "s"),
        "harness.run_s": (traced.run_s, "s"),
        "harness.trace_overhead": (_ratio(traced.run_s, untraced.run_s), "ratio"),
        "harness.span_overhead_us": (span_overhead_us(), "us"),
    })
    return m
