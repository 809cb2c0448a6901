"""Traffic harness: open-loop generators, scenario execution, reports.

Flows send single-frame messages through the node runtime.  A backlogged
flow keeps a fixed number of frames outstanding in its egress queue
(refilled synchronously as the scheduler drains them), which is how
scheduler shares are measured; a rate-driven flow emits frames on an exact
integer schedule.  Reports are deterministic: the same scenario and seed
produce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import TICKS_PER_MS
from .fabric import NodeId, encode_id
from .frame import wire_bytes
from .metrics import CSV_HEADER, FlowRecorder, csv_row
from .node import Network
from .runtime import FRAGMENT_HEADER_BYTES
from .scenario import FlowSpec, Scenario

BACKLOG_OUTSTANDING = 16
_PATTERN = bytes(range(256)) * 8  # shared payload content for generated traffic


class _Flow(FlowRecorder):
    """One flow of a run: the source of its traffic and the recorder of its
    frames, which ``Network`` tells of each frame event.

    Each message is one frame (``frame_payload_bytes <= MAX_CHUNK``), so
    ``offered_frames`` counts the messages sent."""

    __slots__ = ("sim", "runtime", "dst_encoded", "payload", "backlogged", "rate_bps",
                 "wire_bits", "flowgen_label")

    def __init__(self, network: Network, flow_id: int, spec: FlowSpec, stop_ns: int):
        super().__init__(flow_id, str(spec.src), str(spec.dst), spec.pcp, spec.start, stop_ns)
        self.sim = network.sim
        self.runtime = network.nodes[spec.src].runtime
        self.dst_encoded = encode_id(spec.dst)
        size = spec.frame_payload_bytes
        self.payload = (_PATTERN * -(-size // len(_PATTERN)))[:size]
        self.backlogged = spec.backlogged
        self.rate_bps = spec.offered_rate_bps
        self.wire_bits = wire_bytes(FRAGMENT_HEADER_BYTES + len(self.payload)) * 8
        self.flowgen_label = f"flowgen:{flow_id}"

    def begin(self) -> None:
        if self.backlogged:
            for _ in range(BACKLOG_OUTSTANDING):
                self._send_one()
        else:
            self._emit_paced()

    def _send_one(self) -> None:
        if self.sim.now < self.stop_ns:
            self.runtime.send_msg(self.payload, self.dst_encoded, self.pcp, flow_id=self.flow_id)

    def on_dequeued(self) -> None:
        """A frame of the flow left its origin: a backlogged flow sends the next."""
        if self.backlogged:
            self._send_one()

    def _emit_paced(self) -> None:
        self._send_one()
        next_t = (self.start_ns
                  + (self.offered_frames * self.wire_bits * 1_000_000_000) // self.rate_bps)
        if next_t < self.stop_ns:
            self.sim.at(next_t, self._emit_paced, label=self.flowgen_label)


class PtpSlaveReport:
    __slots__ = ("samples", "max_abs_offset_ns")

    def __init__(self) -> None:
        self.samples = 0
        self.max_abs_offset_ns = 0.0


class RunResult:
    __slots__ = ("scenario", "network", "recorders", "ptp_offsets", "events_processed")

    def __init__(self, scenario: Scenario, network: Network, recorders: list[FlowRecorder],
                 ptp_offsets: dict[NodeId, PtpSlaveReport], events_processed: int):
        self.scenario = scenario
        self.network = network
        self.recorders = recorders
        self.ptp_offsets = ptp_offsets
        self.events_processed = events_processed

    def report(self) -> dict:
        net = self.network
        nodes = {}
        for node_id in sorted(net.nodes):
            node = net.nodes[node_id]
            nodes[str(node_id)] = {
                "rx_frames": node.counters.rx_frames,
                "delivered_local": node.counters.delivered_local,
                "forwarded": node.counters.forwarded,
                "drops": dict(sorted(node.counters.drops.items())),
                "tx_frames": {k.value: p.tx_frames for k, p in sorted(
                    node.ports.items(), key=lambda kv: kv[0].value)},
            }
        links = []
        for link in net.topology.links:
            links.append({
                "a": f"{link.a[0]}:{link.a[1].value}",
                "b": f"{link.b[0]}:{link.b[1].value}",
                "tx_frames": sum(net.nodes[n].ports[k].tx_frames for n, k in (link.a, link.b)),
                "drops": link.drops,
            })
        ptp = {"enabled": net.ptp is not None}
        if net.ptp is not None:
            ptp["grandmaster"] = str(net.ptp.grandmaster)
            ptp["slaves"] = {
                str(slave): {
                    "rounds_completed": state.rounds_completed,
                    "post_convergence_samples": self.ptp_offsets[slave].samples,
                    "max_abs_offset_ns": round(self.ptp_offsets[slave].max_abs_offset_ns, 3),
                }
                for slave, state in sorted(net.ptp.slaves.items())
            }
        return {
            "scenario_digest": self.scenario.digest(),
            "seed": self.scenario.seed,
            "duration_ns": self.scenario.duration_ns,
            "flows": [r.summary() for r in self.recorders],
            "nodes": nodes,
            "links": links,
            "ptp": ptp,
            "totals": {
                "events_processed": self.events_processed,
                "frames_offered": net.frames_offered,
                "frames_delivered": net.frames_delivered,
                "drops_by_cause": dict(sorted(net.drops_by_cause.items())),
            },
        }


def build_network(scenario: Scenario) -> Network:
    return Network(scenario)


def run_scenario(scenario: Scenario) -> RunResult:
    net = build_network(scenario)
    sim = net.sim

    net.flows = [_Flow(net, i, f, f.stop if f.stop is not None else scenario.duration_ns)
                 for i, f in enumerate(scenario.flows)]
    for flow in net.flows:
        sim.at(flow.start_ns, flow.begin, label=f"flowstart:{flow.flow_id}")

    for node_id, cfg in scenario.schedules:
        net.nodes[node_id].runtime.set_conf(cfg)

    for fault in scenario.faults:
        link = net.topology.link_between(fault.a, fault.b)
        net.schedule_link_state(link, fault.state == "up", fault.time_ns)

    ptp_offsets: dict[NodeId, PtpSlaveReport] = {}
    if net.ptp is not None:
        for slave in net.ptp.slaves:
            ptp_offsets[slave] = PtpSlaveReport()
        horizon = (scenario.ptp.convergence_rounds + 1) * scenario.ptp.interval_ms * TICKS_PER_MS
        if horizon < scenario.duration_ns:
            def sample() -> None:
                now = sim.now
                for slave, rep in ptp_offsets.items():
                    off = net.ptp.true_offset_ns(slave, now)
                    rep.samples += 1
                    if abs(off) > rep.max_abs_offset_ns:
                        rep.max_abs_offset_ns = abs(off)
                if now + TICKS_PER_MS <= scenario.duration_ns:
                    sim.at(now + TICKS_PER_MS, sample, label="ptp-sample")
            sim.at(horizon, sample, label="ptp-sample")

    net.start()
    stats = sim.run_until(scenario.duration_ns)
    return RunResult(scenario, net, net.flows, ptp_offsets, stats.events_processed)


def emit_report(result: RunResult, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write report files with stable content; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = result.report()
    written: list[Path] = []
    if fmt == "json":
        path = out / "report.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        written.append(path)
    elif fmt == "csv":
        path = out / "flows.csv"
        rows = [CSV_HEADER] + [csv_row(s) for s in report["flows"]]
        path.write_text("\n".join(rows) + "\n")
        written.append(path)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if result.scenario.trace:
        trace_path = out / "traces.jsonl"
        lines = []
        for node_id in sorted(result.network.nodes):
            node = result.network.nodes[node_id]
            for kind in sorted(node.ports, key=lambda k: k.value):
                for rec in node.ports[kind].trace:
                    lines.append(json.dumps({
                        "node": str(node_id), "port": kind.value,
                        "true_start": rec.true_start, "local_start": rec.local_start,
                        "queue": rec.queue_idx, "wire_bytes": rec.wire_bytes,
                        "ser_ns": rec.ser_ns, "flow": rec.flow_id,
                    }, sort_keys=True))
        trace_path.write_text("\n".join(lines) + ("\n" if lines else ""))
        written.append(trace_path)
        routes_path = out / "routes.jsonl"
        route_lines = [json.dumps(r, sort_keys=True) for r in result.network.route_traces]
        routes_path.write_text("\n".join(route_lines) + ("\n" if route_lines else ""))
        written.append(routes_path)
    return written
