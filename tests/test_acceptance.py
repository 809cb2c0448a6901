"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

import test_routing as routing_oracle
from tasnic.engine import TICKS_PER_S
from tasnic.fabric import NodeId, PortKind, build_topology, encode_id
from tasnic.frame import crc32
from tasnic.harness import emit_report, run_scenario
from tasnic.routing import next_hop
from tasnic.scenario import parse_scenario
from test_runtime import quiet_net

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
W_EXT = "0.0.1.1"   # single node west of the full tile
E_EXT = "0.2.0.0"   # single node east of it


def partition_doc(duration_ns, seed=1, faults=()):
    """``bandwidth_partition.json`` with the run's duration, seed and faults."""
    doc = json.loads((SCENARIOS / "bandwidth_partition.json").read_text())
    doc.update(duration_ns=duration_ns, seed=seed, faults=list(faults))
    return doc


def shares_doc(seed):
    """``proportional_shares.json`` with case ``seed``'s random slot table, one
    backlogged flow per scheduled queue; returns the document and the slots."""
    doc = json.loads((SCENARIOS / "proportional_shares.json").read_text())
    rng = random.Random(seed)
    count = rng.randint(2, 4)
    queues = rng.sample(range(4), count)
    slots = [rng.randint(30, 55) for _ in range(count)]
    doc["schedules"][0]["entries"] = [[q, s] for q, s in zip(queues, slots)]
    doc["flows"] = [dict(doc["flows"][0], pcp=q) for q in queues]
    doc["seed"] = seed
    return doc, slots


def test_criterion_1_bandwidth_partition():
    started = time.monotonic()
    res = run_scenario(parse_scenario(partition_doc(200_000_000)))
    wall = time.monotonic() - started
    rep = res.report()
    hi, lo = rep["flows"][0], rep["flows"][1]
    combined = hi["goodput_bps"] + lo["goodput_bps"]
    share = hi["goodput_bps"] / combined
    assert 0.88 <= share <= 0.92, f"high-priority share {share:.4f}"
    assert abs(hi["goodput_bps"] - 2.0e9) <= 0.05 * 2.0e9, \
        f"high-priority goodput {hi['goodput_bps']/1e9:.3f} Gbps"
    assert wall < 30.0, f"took {wall:.1f} s of wall time"
    print(f"\nPASS criterion 1: bandwidth partition share={share:.3f} "
          f"hi={hi['goodput_bps']/1e9:.3f} Gbps (wall {wall:.1f} s)")


def test_criterion_2_proportional_shares():
    link_rate = 10_000_000_000
    worst = 0.0
    for seed in range(5):
        doc, slots = shares_doc(seed)
        window = doc["schedules"][0]["window_us"]
        assert doc["duration_ns"] > 100 * window * 1000   # > 100 whole windows
        res = run_scenario(parse_scenario(doc))
        for flow, slot in zip(res.report()["flows"], slots):
            wire_bps = flow["goodput_bps"] * 1522 / 1482
            err = abs(wire_bps / link_rate - slot / window)
            worst = max(worst, err)
            assert err <= 0.02, f"seed {seed}: share off by {err:.4f}"
    print(f"\nPASS criterion 2: proportional shares, worst error {worst:.4f} (<= 0.02)")


def test_criterion_3_stall_on_empty_isolation():
    doc = {
        "grid": {"preset": "tile_plus_two"},
        "host": {"injection_cap_bps": None},
        "ptp": {"enabled": False},
        "schedules": [{"node": W_EXT, "port": "external", "window_us": 100,
                       "entries": [[2, 90]]}],
        "flows": [{"src": W_EXT, "dst": E_EXT, "pcp": 0, "backlogged": True}],
        "duration_ns": 50_000_000,
        "seed": 1,
        "trace": True,
    }
    res = run_scenario(parse_scenario(doc))
    port = res.network.nodes[NodeId.parse(W_EXT)].ports[PortKind.EXTERNAL]
    window_ns, slot_ns, guard = 100_000, 90_000, 1218
    assert port.trace, "no transmissions recorded"
    busy = sum(r.ser_ns for r in port.trace)
    utilization = busy / 50_000_000
    assert utilization <= (window_ns - slot_ns) / window_ns, f"utilization {utilization:.4f}"
    for rec in port.trace:   # exact assertion on the transmit trace
        phase = rec.local_start % window_ns
        assert phase >= slot_ns, f"frame started inside the slot at phase {phase}"
        assert phase + rec.ser_ns <= window_ns - guard
    print(f"\nPASS criterion 3: stall isolation, utilization {utilization:.4f}, "
          f"{len(port.trace)} filler frames all outside the 90% slot")


def test_criterion_4_fault_reroute():
    fault_t = 100_000_000
    duration = 200_000_000
    rate = 200_000_000
    doc = {
        "grid": {"preset": "tile_plus_two"},
        "ptp": {"drift_ppm": {"seeded_max_ppm": 10}},
        "flows": [{"src": W_EXT, "dst": E_EXT, "pcp": 2,
                   "offered_rate_bps": rate}],
        "faults": [{"a": "0.1.0.1", "b": "0.1.1.1",
                    "time_ns": fault_t, "state": "down"}],
        "duration_ns": duration,
        "seed": 7,
    }
    res = run_scenario(parse_scenario(doc))
    rec = res.recorders[0]
    margin = 20_000_000
    pre = [m for m in rec.messages if m.deliver_true_ns < fault_t]
    post = [m for m in rec.messages if m.send_true_ns > fault_t]
    assert pre and post
    pre_mean = sum(m.latency_ns for m in pre) / len(pre)
    post_mean = sum(m.latency_ns for m in post) / len(post)
    assert post_mean > pre_mean, f"{post_mean} !> {pre_mean}"
    assert max(m.hops for m in pre) == 4
    assert min(m.hops for m in post) >= 5  # at least one extra hop
    # 100% delivery on the surviving path: every frame sent after the fault
    # (with time to land) arrives
    wire_bits = (18 + 18 + 1482 + 4) * 8
    period = wire_bits * 1_000_000_000 // rate
    sent_after = [k for k in range(0, duration // period + 2)
                  if fault_t < (k * wire_bits * 1_000_000_000) // rate <= duration - margin]
    landed = [m for m in post if m.send_true_ns <= duration - margin]
    assert len(landed) == len(sent_after), (len(landed), len(sent_after))
    print(f"\nPASS criterion 4: reroute latency {pre_mean/1e3:.1f} -> {post_mean/1e3:.1f} us, "
          f"hops 4 -> {min(m.hops for m in post)}, post-fault delivery "
          f"{len(landed)}/{len(sent_after)}")


def test_criterion_5_routing_oracle_and_single_fault_delivery():
    pairs_checked = 0
    for dims in ((2, 2), (1, 3)):
        topo = build_topology(*dims)
        for src in topo.nodes:
            for dst in topo.nodes:
                assert next_hop(topo, src, dst) == routing_oracle.oracle_port(topo, src, dst)
                pairs_checked += 1
    topo = build_topology(2, 2)
    fault_cases = 0
    for link in topo.links:
        link.set_state(False, 0)
        connected = all(routing_oracle.bfs_distance(topo, topo.nodes[0], n) is not None
                        for n in topo.nodes)
        if connected:
            for src in topo.nodes:
                for dst in topo.nodes:
                    assert routing_oracle.walk(topo, src, dst) is not None, \
                        (link.a, link.b, src, dst)
                    fault_cases += 1
        link.set_state(True, 0)
    print(f"\nPASS criterion 5: oracle agreement on {pairs_checked} ordered pairs, "
          f"{fault_cases} single-fault deliveries")


def test_criterion_6_ptp_residual():
    doc = {
        "grid": {"G_r": 1, "G_c": 1},
        "ptp": {"drift_ppm": {"seeded_max_ppm": 10}},
        "flows": [],
        "duration_ns": 10 * TICKS_PER_S,
        "seed": 11,
    }
    res = run_scenario(parse_scenario(doc))
    rep = res.report()["ptp"]
    assert rep["enabled"]
    worst = 0.0
    for slave, stats in rep["slaves"].items():
        assert stats["post_convergence_samples"] > 5000
        assert stats["max_abs_offset_ns"] <= 40.0, \
            f"{slave}: {stats['max_abs_offset_ns']} ns"
        worst = max(worst, stats["max_abs_offset_ns"])
    print(f"\nPASS criterion 6: sync residual, worst post-convergence offset "
          f"{worst:.1f} ns (<= 40 ns)")


def test_criterion_7_crc_and_fragmentation():
    # CRC-32 against the independent bitwise oracle
    from test_frame_crc import crc32_reference
    assert crc32(b"123456789") == 0xCBF43926
    assert crc32(b"") == 0x00000000
    assert crc32(b"\x00") == 0xD202EF8D
    rng = random.Random(2024)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(0, 96))
        assert crc32(data) == crc32_reference(data)

    # send/recv round-trip identity on the tile-plus-two fabric
    net = quiet_net(grid={"preset": "tile_plus_two"})
    nodes = list(net.topology.nodes)
    cases = 0
    for _ in range(200):
        src, dst = rng.sample(nodes, 2)
        size = int(math.exp(rng.uniform(0, math.log(1_000_000))))
        data = rng.randbytes(size)
        net.nodes[src].runtime.send_msg(data, encode_id(dst), pcp=rng.randrange(3))
        got = net.nodes[dst].runtime.recv_msg(size, encode_id(src), timeout=TICKS_PER_S)
        assert got == data
        cases += 1

    # corrupted frames always drop and bump the counter
    dst_node = net.nodes[NodeId(0, 1, 0, 0)]
    before = dst_node.counters.drops.get("crc", 0)
    for flip in range(10):
        frame = net.build_runtime_frame(net.nodes[NodeId(0, 1, 0, 1)],
                                        NodeId(0, 1, 0, 0), bytes(500), pcp=0)
        frame.stamp_fcs()
        corrupted = bytearray(frame.payload)
        corrupted[flip * 7 % len(corrupted)] ^= 1 << (flip % 8)
        frame.payload = bytes(corrupted)
        dst_node.handle_rx(frame, PortKind.INTRA_H)
    assert dst_node.counters.drops["crc"] == before + 10
    print(f"\nPASS criterion 7: CRC oracle (1003 vectors), {cases} round trips, "
          f"10/10 corruptions dropped")


def test_criterion_8_determinism(tmp_path):
    doc = partition_doc(20_000_000, seed=42, faults=[
        {"a": "0.1.0.1", "b": "0.1.1.1", "time_ns": 10_000_000, "state": "down"}])
    for fmt in ("json", "csv"):
        out_a = tmp_path / f"a_{fmt}"
        out_b = tmp_path / f"b_{fmt}"
        paths_a = emit_report(run_scenario(parse_scenario(doc)), fmt, out_a)
        paths_b = emit_report(run_scenario(parse_scenario(doc)), fmt, out_b)
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes(), f"{fmt} report differs"
    print("\nPASS criterion 8: byte-identical reports for repeated seeded runs")
