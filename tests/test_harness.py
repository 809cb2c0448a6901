import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnic.fabric import NodeId, PortKind, encode_id
from tasnic.harness import emit_report, run_scenario
from tasnic.node import Network
from tasnic.scenario import ScenarioError, parse_scenario


def small_doc(**overrides):
    doc = {
        "grid": {"G_r": 1, "G_c": 1},
        "ptp": {"drift_ppm": {"seeded_max_ppm": 10}},
        "flows": [
            {"src": "0.0.0.0", "dst": "0.0.1.1", "pcp": 2,
             "offered_rate_bps": 500_000_000, "frame_payload_bytes": 1482},
        ],
        "duration_ns": 5_000_000,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


def test_conservation_offered_equals_delivered_plus_dropped_plus_in_flight():
    res = run_scenario(parse_scenario(small_doc()))
    rec = res.recorders[0]
    assert rec.offered_frames > 0
    assert rec.offered_frames == (rec.delivered_frames + rec.dropped_frames
                                  + rec.in_flight_frames)
    assert rec.in_flight_frames >= 0


def test_drained_run_has_no_frames_in_flight():
    doc = small_doc(duration_ns=20_000_000)
    doc["flows"][0]["stop"] = 5_000_000
    res = run_scenario(parse_scenario(doc))
    rec = res.recorders[0]
    assert rec.in_flight_frames == 0
    assert rec.offered_frames == rec.delivered_frames


def test_zero_flows_give_empty_metrics():
    doc = small_doc(flows=[])
    res = run_scenario(parse_scenario(doc))
    rep = res.report()
    assert rep["flows"] == []
    assert rep["totals"]["frames_offered"] == 0
    assert rep["totals"]["frames_delivered"] == 0


def test_latency_is_never_negative_beyond_quantization():
    res = run_scenario(parse_scenario(small_doc()))
    floor = -5 * 8  # five timestamp quanta
    for rec in res.recorders:
        assert all(m.latency_ns >= floor for m in rec.messages)


def test_injection_respects_cap_over_sliding_windows():
    doc = small_doc(flows=[
        {"src": "0.0.0.0", "dst": "0.0.1.1", "pcp": 2, "backlogged": True}],
        duration_ns=50_000_000, trace=True)
    sc = parse_scenario(doc)
    res = run_scenario(sc)
    cap = sc.host.injection_cap_bps
    port = res.network.nodes[NodeId(0, 0, 0, 0)].ports[PortKind.INTRA_H]
    window = 10_000_000  # 10 ms
    events = [(r.true_start, r.wire_bytes * 8) for r in port.trace
              if r.flow_id == 0]
    for start in range(0, 50_000_000 - window + 1, 1_000_000):
        bits = sum(b for t, b in events if start <= t < start + window)
        budget = cap * window / 1e9 + 1522 * 8  # one bucket of burst slack
        assert bits <= budget


def test_report_is_deterministic_across_runs(tmp_path):
    doc = small_doc()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    emit_report(run_scenario(parse_scenario(doc)), "json", out_a)
    emit_report(run_scenario(parse_scenario(doc)), "json", out_b)
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    emit_report(run_scenario(parse_scenario(doc)), "csv", out_a)
    emit_report(run_scenario(parse_scenario(doc)), "csv", out_b)
    assert (out_a / "flows.csv").read_bytes() == (out_b / "flows.csv").read_bytes()


def test_json_report_structure(tmp_path):
    res = run_scenario(parse_scenario(small_doc()))
    paths = emit_report(res, "json", tmp_path)
    doc = json.loads(paths[0].read_text())
    assert doc["scenario_digest"] == res.scenario.digest()
    assert doc["flows"][0]["delivered_messages"] > 0
    assert "0.0.0.0" in doc["nodes"]
    assert doc["totals"]["frames_offered"] >= doc["flows"][0]["offered_frames"]


def test_csv_report_has_fixed_header(tmp_path):
    res = run_scenario(parse_scenario(small_doc()))
    paths = emit_report(res, "csv", tmp_path)
    lines = paths[0].read_text().splitlines()
    assert lines[0].startswith("flow_id,src,dst,pcp,offered_frames")
    assert len(lines) == 2


def test_trace_files_written_when_enabled(tmp_path):
    doc = small_doc(trace=True)
    res = run_scenario(parse_scenario(doc))
    paths = emit_report(res, "json", tmp_path)
    names = {p.name for p in paths}
    assert names == {"report.json", "traces.jsonl", "routes.jsonl"}
    routes = [json.loads(l) for l in (tmp_path / "routes.jsonl").read_text().splitlines()]
    assert routes and routes[0]["route"]


def test_routes_name_a_fragment_by_its_header_and_a_sync_frame_by_null(tmp_path, monkeypatch):
    # a 1-byte and a 3,000-byte message (msg_ids 0 and 1, the second in
    # three fragments) cross the tile while the clocks sync
    src, dst = NodeId(0, 0, 0, 0), NodeId(0, 0, 1, 1)
    start = Network.start

    def start_and_send(net):
        start(net)
        for size in (1, 3000):
            net.nodes[src].runtime.send_msg(bytes(size), encode_id(dst))
    monkeypatch.setattr(Network, "start", start_and_send)
    res = run_scenario(parse_scenario(small_doc(trace=True, flows=[])))
    emit_report(res, "json", tmp_path)
    rows = [json.loads(l) for l in (tmp_path / "routes.jsonl").read_text().splitlines()]
    fragments = [r for r in rows if r["msg_id"] is not None]
    assert sorted((r["msg_id"], r["frag_index"]) for r in fragments) == [(0, 0), (1, 0), (1, 1),
                                                                          (1, 2)]
    assert all(r["delivered_to"] == str(dst) and len(r["route"]) == 2 for r in fragments)
    sync = [r for r in rows if r["msg_id"] is None]
    assert sync and all(r["frag_index"] is None for r in sync)
    # every frame delivered to its destination left one row
    assert len(rows) == sum(node.counters.delivered_local for node in res.network.nodes.values())


def test_fault_schedule_applies_and_counts_drops():
    doc = small_doc(duration_ns=10_000_000,
                    faults=[{"a": "0.0.0.0", "b": "0.0.0.1",
                             "time_ns": 3_000_000, "state": "down"}],
                    flows=[{"src": "0.0.0.0", "dst": "0.0.0.1", "pcp": 0,
                            "offered_rate_bps": 1_000_000_000}])
    res = run_scenario(parse_scenario(doc))
    rec = res.recorders[0]
    # the only direct link is gone; traffic reroutes the long way and still lands
    post = [m for m in rec.messages if m.send_true_ns > 3_000_000]
    assert post
    assert all(m.hops >= 2 for m in post)


def test_a_backlogged_flow_takes_its_detour_when_its_first_hop_fails():
    # the failed port drops the frames it held, and each one's flow sends
    # the next by the detour; held frames would stall the flow for good
    doc = small_doc(ptp={"enabled": False}, duration_ns=3_000_000,
                    host={"injection_cap_bps": None},
                    flows=[{"src": "0.0.0.0", "dst": "0.0.1.1", "pcp": 0, "backlogged": True}],
                    faults=[{"a": "0.0.0.0", "b": "0.0.0.1", "time_ns": 1_000_000,
                             "state": "down"}])
    rec = run_scenario(parse_scenario(doc)).recorders[0]
    before = sum(1 for m in rec.messages if m.send_true_ns < 1_000_000)
    after = sum(1 for m in rec.messages if m.send_true_ns > 1_000_000)
    assert before > 0 and after > before  # two ms after the fault, one before it


# PTP is off, so every frame belongs to a flow and the per-flow counters must
# add up to the network totals.
_DROP_CASES = {
    "link_down": dict(
        host={"injection_cap_bps": None},
        flows=[{"src": "0.0.0.0", "dst": "0.0.1.1", "pcp": 0, "backlogged": True},
               {"src": "0.0.0.1", "dst": "0.0.1.0", "pcp": 2,
                "offered_rate_bps": 500_000_000}],
        faults=[{"a": "0.0.0.0", "b": "0.0.0.1", "time_ns": 1_000_000, "state": "down"},
                {"a": "0.0.0.1", "b": "0.0.1.1", "time_ns": 2_000_000, "state": "down"}]),
    "queue_overflow": dict(
        nic={"queue_depth": 8},  # below the 16 frames a backlogged flow keeps queued
        flows=[{"src": "0.0.0.0", "dst": "0.0.1.1", "pcp": 0, "backlogged": True},
               {"src": "0.0.0.1", "dst": "0.0.1.1", "pcp": 2, "backlogged": True}]),
}


@pytest.mark.parametrize("cause", sorted(_DROP_CASES))
def test_flow_counters_reconcile_with_totals(cause):
    doc = small_doc(ptp={"enabled": False}, duration_ns=3_000_000, **_DROP_CASES[cause])
    report = run_scenario(parse_scenario(doc)).report()
    totals, flows = report["totals"], report["flows"]
    assert totals["drops_by_cause"].get(cause, 0) > 0
    assert sum(f["offered_frames"] for f in flows) == totals["frames_offered"]
    assert sum(f["delivered_frames"] for f in flows) == totals["frames_delivered"]
    drops: dict[str, int] = {}
    for f in flows:
        for c, n in f["drops"].items():
            drops[c] = drops.get(c, 0) + n
    assert drops == totals["drops_by_cause"]


_GRIDS = {  # each grid with its populated node ids
    "preset": ({"preset": "tile_plus_two"},
               ["0.0.1.1", "0.1.0.0", "0.1.0.1", "0.1.1.0", "0.1.1.1", "0.2.0.0"]),
    **{f"{r}x{c}": ({"G_r": r, "G_c": c},
                    [f"{gr}.{gc}.{lr}.{lc}" for gr in range(r) for gc in range(c)
                     for lr in (0, 1) for lc in (0, 1)])
       for r in (1, 2) for c in (1, 2)},
}


@st.composite
def small_documents(draw):
    grid, nodes = _GRIDS[draw(st.sampled_from(sorted(_GRIDS)))]
    node = st.sampled_from(nodes)
    schedule = st.fixed_dictionaries(
        {"node": node, "port": st.sampled_from(["intra_h", "intra_v", "external"]),
         "entries": st.lists(st.tuples(st.integers(0, 7), st.integers(1, 40)).map(list),
                             max_size=2, unique_by=lambda e: e[0])},
        optional={"window_us": st.integers(1, 200),
                  "guardband_ns": st.none() | st.integers(0, 20_000) | st.just(2**33)})
    flow = st.fixed_dictionaries(
        {"src": node, "dst": node, "pcp": st.integers(0, 7)},
        optional={"frame_payload_bytes": st.integers(1, 1482)}).flatmap(
        lambda f: st.just({**f, "backlogged": True})
        | st.integers(10**6, 10**10).map(lambda r: {**f, "offered_rate_bps": r}))
    return {
        "grid": grid,
        "link": {"rate_bps": draw(st.sampled_from([1_000, 3_000, 10**6, 10**10]))},
        "ptp": {"quantization_ns": draw(st.sampled_from([1, 8, 10**6, 10**12]))},
        "schedules": draw(st.lists(schedule, max_size=2)),
        "flows": draw(st.lists(flow, max_size=2)),
        "duration_ns": draw(st.integers(1, 500_000)),
        "seed": draw(st.integers(0, 3)),
    }


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_documents())
def test_a_scenario_that_validates_runs(tmp_path_factory, doc):
    try:
        scenario = parse_scenario(doc)
    except ScenarioError:
        return
    emit_report(run_scenario(scenario), "json", tmp_path_factory.mktemp("report"))
