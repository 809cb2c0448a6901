"""Property tests over whole runs: the model keeps its symmetry under a shift
by whole tiles and under a relabel of its TX queues, and a scheduled port
keeps its slot rules, across a schedule committed mid-run as well."""

import json
from bisect import bisect_right
from functools import cache
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnic import harness
from tasnic.fabric import DATA_PORT_KINDS, NodeId, PortKind, all_node_ids, build_topology
from tasnic.harness import build_network, run_scenario
from tasnic.nic import MGMT_IDX
from tasnic.runtime import ScheduleConfig
from tasnic.scenario import parse_scenario

# -- translation by whole tiles -------------------------------------------------


@st.composite
def _translation_cases(draw):
    """A full torus, its flows and an optional fault (as node pairs), and a
    shift in tiles."""
    g_r, g_c = draw(st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (3, 3)]))
    nodes = all_node_ids(g_r, g_c)
    flows = []
    for _ in range(draw(st.integers(1, 6))):
        src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        # 20 Gb/s outruns the host cap and fills the source queue
        flows.append((src, dst, draw(st.integers(0, 2)), draw(st.integers(0, 50_000)),
                      draw(st.sampled_from([10_000_000, 1_000_000_000, 20_000_000_000]))))
    fault = None
    if draw(st.booleans()):  # on a port of the first flow's source, which carries traffic
        src = flows[0][0]
        link = draw(st.sampled_from([build_topology(g_r, g_c).ports[src][kind]
                                     for kind in DATA_PORT_KINDS]))
        down = draw(st.integers(0, 200_000))
        fault = (link.a[0], link.b[0], down, down + draw(st.integers(1, 100_000)))
    shift = draw(st.sampled_from([(d_r, d_c) for d_r in range(g_r) for d_c in range(g_c)
                                  if d_r or d_c]))
    return g_r, g_c, flows, fault, shift


def _translation_doc(g_r, g_c, flows, fault, shift):
    d_r, d_c = shift

    def at(node):
        return str(NodeId((node.grc + d_r) % g_r, (node.gcc + d_c) % g_c, node.lrc, node.lcc))

    doc = {
        "grid": {"G_r": g_r, "G_c": g_c},
        # the default seeded drift is keyed by node id: a shift would move
        # local-clock latencies, so the clocks keep true time
        "ptp": {"enabled": False, "drift_ppm": 0},
        "flows": [{"src": at(src), "dst": at(dst), "pcp": pcp, "start": start,
                   "offered_rate_bps": rate, "frame_payload_bytes": 64}
                  for src, dst, pcp, start, rate in flows],
        "duration_ns": 300_000,
    }
    if fault is not None:
        a, b, down, up = fault
        doc["faults"] = [{"a": at(a), "b": at(b), "time_ns": down, "state": "down"},
                         {"a": at(a), "b": at(b), "time_ns": up, "state": "up"}]
    return doc


@given(_translation_cases())
@settings(derandomize=True, max_examples=20, deadline=None)
def test_a_shift_by_whole_tiles_changes_no_flow_summary(case):
    g_r, g_c, flows, fault, shift = case

    def outcome(shift):
        report = run_scenario(parse_scenario(_translation_doc(g_r, g_c, flows, fault, shift))
                              ).report()
        summaries = [{k: v for k, v in s.items() if k not in ("src", "dst")}
                     for s in report["flows"]]
        return summaries, report["totals"]["events_processed"]

    assert outcome(shift) == outcome((0, 0))


# -- queue relabel ------------------------------------------------------------------

PARTITION = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                        / "bandwidth_partition.json").read_text())


@cache
def _relabelled_run(offset, num_tx_queues):
    """Criterion 1's scenario, cut to 5 ms and traced, with every TX queue index
    moved up by ``offset``: each port's transmit trace with the offset taken off
    again, and the flow summaries."""
    pmap, nic = PARTITION["priority_map"], parse_scenario(PARTITION).nic
    doc = {**PARTITION, "duration_ns": 5_000_000, "trace": True,
           "nic": {"num_tx_queues": num_tx_queues,
                   "time_aware_queues": [q + offset for q in nic.time_aware_queues]},
           "priority_map": {**pmap, "tc_to_queue": [q + offset for q in pmap["tc_to_queue"]]},
           "schedules": [{**s, "entries": [[q + offset, slot] for q, slot in s["entries"]]}
                         for s in PARTITION["schedules"]]}
    result = run_scenario(parse_scenario(doc))
    traces = {(node_id, kind): [rec if rec.queue_idx == MGMT_IDX
                                else rec._replace(queue_idx=rec.queue_idx - offset)
                                for rec in port.trace]
              for node_id, node in result.network.nodes.items()
              for kind, port in node.ports.items()}
    return traces, result.report()["flows"]


@pytest.mark.parametrize("offset, num_tx_queues", [(5, 8), (100, 128), (1000, 1024)])
def test_a_relabel_of_the_tx_queues_changes_no_transmission(offset, num_tx_queues):
    traces, flows = _relabelled_run(offset, num_tx_queues)
    base_traces, base_flows = _relabelled_run(0, 8)
    # the scheduled queue, the leftover queue and sync frames all transmit
    queues = {rec.queue_idx for trace in base_traces.values() for rec in trace}
    assert {0, 2, MGMT_IDX} <= queues
    assert traces == base_traces
    assert flows == base_flows


# -- the slot rules ---------------------------------------------------------------

SCHEDULED = NodeId(0, 0, 1, 1)  # the west single node: every frame it sends leaves by
FAR_NODES = ("0.1.0.0", "0.1.1.1", "0.2.0.0")  # its external port


def _table(draw):
    """A window, its slots over one to three of queues 0-2 and a guardband
    (None: the port default)."""
    window_us = draw(st.integers(10, 200))
    queues = draw(st.permutations([0, 1, 2]))[:draw(st.integers(1, 3))]
    entries, left = [], window_us
    for q in queues:
        if left < 1:
            break
        slot = draw(st.integers(1, left))
        entries.append((q, slot))
        left -= slot
    guardband = draw(st.one_of(st.none(), st.just(0), st.integers(1, 3_000)))
    return window_us, tuple(entries), guardband


@st.composite
def _slot_cases(draw):
    """A schedule for the scheduled port, its flows, the run's settings and an
    optional second table (entries or none) with the true instant of its commit."""
    window_us, entries, guardband = _table(draw)
    flows = []
    for _ in range(draw(st.integers(1, 4))):
        flow = {"src": str(SCHEDULED), "dst": draw(st.sampled_from(FAR_NODES)),
                "pcp": draw(st.integers(0, 2)), "start": draw(st.integers(0, 100_000)),
                "frame_payload_bytes": draw(st.sampled_from([64, 700, 1482]))}
        if draw(st.booleans()):
            flow["backlogged"] = True
        else:
            flow["offered_rate_bps"] = draw(st.sampled_from([50_000_000, 1_000_000_000,
                                                             5_000_000_000]))
        flows.append(flow)
    cap = draw(st.sampled_from([None, 2_250_000_000, 9_000_000_000]))
    ptp = {"enabled": draw(st.booleans()), "interval_ms": 1,
           "drift_ppm": draw(st.integers(0, 200))}
    second = None
    if draw(st.integers(0, 2)):  # most runs commit a second table
        w2, e2, g2 = _table(draw)
        if draw(st.integers(0, 3)) == 0:
            e2 = ()
        second = ScheduleConfig(PortKind.EXTERNAL, w2, e2, g2), draw(st.integers(0, 1_000_000))
    return window_us, entries, guardband, flows, cap, ptp, second


def _keeps_slot_rules(rec, table):
    """``rec`` starts in ``table``'s slot for its queue, or in leftover time
    for an unscheduled queue, and ends clear of the guardband."""
    window, guard = table.window_ns, table.guardband_ns
    phase = rec.local_start % window
    end = phase + rec.ser_ns
    for slot_end, queue in table.slots_ns:
        if phase < slot_end:
            assert rec.queue_idx == queue, rec
            assert phase <= slot_end - guard and end <= slot_end, rec
            return
    # leftover time: an unscheduled queue or the management queue (-1)
    assert rec.queue_idx not in {q for q, _ in table.entries}, rec
    assert end <= window - guard, rec


@given(_slot_cases())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_a_scheduled_port_keeps_its_slot_rules_and_each_flow_its_frames(case):
    window_us, entries, guardband, flows, cap, ptp, second = case
    schedule = {"node": str(SCHEDULED), "port": "external", "window_us": window_us,
                "entries": [list(e) for e in entries]}
    if guardband is not None:
        schedule["guardband_ns"] = guardband
    decisions = []  # (true time, reading, the table decided under) of each decision
    commit = {}
    labels = set()

    def build(scenario):
        net = build_network(scenario)
        node = net.nodes[SCHEDULED]
        port, sim = node.ports[PortKind.EXTERNAL], net.sim
        kick = port.kick

        def observed_kick():
            now = sim.now
            deciding = port.busy_until <= now
            kick()
            if deciding:
                decisions.append((now, port.clock.read_ns(now), port.active_table))
        port.kick = port._kick = observed_kick

        def hook(now, seq, label):
            labels.add(label.split(":")[0])
            # a port under a schedule always has a decision coming: its
            # transmission's end or a live wake
            if port.active_table.entries and port.busy_until < now:
                assert port._wake is not None and not port._wake.cancelled, now
                assert port._wake.fire_at >= now, now
        sim.trace_hook = hook

        if second is not None:
            cfg, at = second

            def commit_second():
                commit.update(reading=port.clock.read_ns(sim.now), old=port.active_table,
                              decisions=len(decisions))
                node.runtime.set_conf(cfg)
                commit["new"] = port.committed_table
            sim.at(at, commit_second, label="script")
        return net

    with patch.object(harness, "build_network", build):
        result = run_scenario(parse_scenario({
            "grid": {"preset": "tile_plus_two"}, "host": {"injection_cap_bps": cap},
            "ptp": ptp, "priority_map": {"num_classes": 3, "prio_to_tc": [0, 1, 2],
                                         "tc_to_queue": [0, 1, 2]},
            "schedules": [schedule], "flows": flows, "duration_ns": 1_000_000,
            "trace": True}))
    assert "commit" not in labels
    net = result.network
    port = net.nodes[SCHEDULED].ports[PortKind.EXTERNAL]
    first = decisions[0][2]
    assert first.entries == entries
    swap = len(decisions)
    if commit:
        # the table swaps in at the first decision whose reading is at or past
        # the first window boundary at or after the commit's reading
        assert commit["old"] is first
        w = first.window_ns
        boundary = -(-commit["reading"] // w) * w
        swap = next((i for i in range(commit["decisions"], swap)
                     if decisions[i][1] >= boundary), swap)
    active = [first] * swap + [commit.get("new")] * (len(decisions) - swap)
    assert [table for *_, table in decisions] == active
    # a transmission starts at a decision, the last one at or before it (the
    # port is busy then), or at an enqueue to an idle port with no entries
    times = [t for t, *_ in decisions]
    for rec in port.trace:
        i = bisect_right(times, rec.true_start) - 1
        assert i >= 0, rec
        if active[i].entries:
            _keeps_slot_rules(rec, active[i])
    held = {}  # the frames of each flow still queued or on a wire at the end
    for node in net.nodes.values():
        for p in node.ports.values():
            frames = [f for q in p._queues.values() for f in q.frames]
            frames += [f for f, _ in p.in_flight]
            for frame in frames:
                held[frame.flow_id] = held.get(frame.flow_id, 0) + 1
    for flow in result.report()["flows"]:
        assert flow["in_flight_frames"] == held.get(flow["flow_id"], 0), flow
        assert (flow["offered_frames"] == flow["delivered_frames"] + flow["dropped_frames"]
                + flow["in_flight_frames"])
