"""Call-count guard on the per-hop and per-message paths.

A 1 ms round-robin run on 2x2 tiles, and 1 ms of criterion 1's slot
schedule, run under cProfile, and the tests count calls, never time, so they
are deterministic.  Each assertion names Python-level work that one
frame-hop or one one-frame message once did and no longer does.  One more
test checks the condition under which a port may debit its host budget with
no refill call of its own.
"""

import cProfile
import json
import pstats
from pathlib import Path

import pytest

from tasnic.clock import LocalClock
from tasnic.fabric import NodeId
from tasnic.frame import MAX_WIRE_BYTES, Frame, wire_bytes
from tasnic.harness import build_network, run_scenario
from tasnic.nic import NicPort, TxQueue
from tasnic.runtime import FRAGMENT_HEADER_BYTES, FragmentHeader
from tasnic.scenario import parse_scenario

PAYLOAD = 64
DOC = {
    "grid": {"G_r": 2, "G_c": 2},
    "ptp": {"enabled": False},
    "duration_ns": 1_000_000,
    "flows": [{"src": src, "dst": dst, "pcp": pcp, "offered_rate_bps": 500_000_000,
               "frame_payload_bytes": PAYLOAD}
              for src, dst, pcp in [("0.0.0.0", "1.1.1.1", 0), ("1.1.0.1", "0.0.1.0", 1),
                                    ("0.1.1.1", "1.0.0.0", 2), ("1.0.1.0", "0.1.0.1", 0)]],
}

# the slot scheduler and the host cap: 1 ms of criterion 1's scenario
PARTITION = {**json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                           / "bandwidth_partition.json").read_text()),
             "duration_ns": 1_000_000}


def _profile(doc=DOC):
    scenario = parse_scenario(doc)
    profile = cProfile.Profile()
    profile.enable()
    result = run_scenario(scenario)
    profile.disable()
    return result, pstats.Stats(profile).stats, profile.getstats()


def _calls(stats, name, file_suffix=""):
    return sum(entry[1] for (file, _, func), entry in stats.items()
               if func == name and file.endswith(file_suffix))


def _calls_from(stats, name, caller):
    return sum(count[1] for (_, _, func), entry in stats.items() if func == name
               for (_, _, caller_func), count in entry[4].items() if caller_func == caller)


def _calls_made_by(stats, caller):
    return sum(count[1] for entry in stats.values()
               for (_, _, caller_func), count in entry[4].items() if caller_func == caller)


def _calls_of(entries, code):
    return sum(entry.callcount for entry in entries if entry.code is code)


def _hops(net):
    """Frame-hops: transmissions started by every port of the run."""
    return sum(p.tx_frames for node in net.nodes.values() for p in node.ports.values())


def test_round_robin_hop_does_no_avoidable_python_calls():
    result, stats, _ = _profile()
    net = result.network
    hops = _hops(net)
    assert hops > 500
    # identity: NodeId is a tuple and PortKind hashes by identity, so no
    # Python-level __eq__ or __hash__ (Enum.__hash__ included) runs
    assert _calls(stats, "__eq__") == 0
    assert _calls(stats, "__hash__") == 0
    # serialization time: once per (port, wire size), the default guardband's
    # maximum-size frame included
    ports = [p for node in net.nodes.values() for p in node.ports.values()]
    sizes = {wire_bytes(FRAGMENT_HEADER_BYTES + PAYLOAD), MAX_WIRE_BYTES}
    assert 0 < _calls(stats, "serialization_ticks", "frame.py") <= len(ports) * len(sizes)
    # with PTP off, a round-robin decision reads no clock
    for caller in ("kick", "_decide", "_rr_decide", "_transmit", "enqueue"):
        assert _calls_from(stats, "read_ns", caller) == 0, caller


def test_round_robin_hop_stays_within_its_call_budget():
    result, stats, entries = _profile()
    hops = _hops(result.network)
    # counted per code object: pstats keys functions by (file, line, name)
    # and so merges every NamedTuple __new__ into one entry; 45.0 calls per
    # hop before an idle port sent an arriving frame itself, 29.4 before each
    # frame event reached its flow in one call, 28.0 before a frame was one
    # object, 27.8 before the port debited the host budget and bumped the
    # flow's counters itself, 26.5 before a frame was built with no helper
    # call and a bucket refilled with no divmod
    assert sum(entry.callcount for entry in entries) <= 26 * hops
    # an idle port sends the frame it is given; a busy one leaves it to txdone
    assert _calls_from(stats, "kick", "enqueue") == 0
    # a frame event reaches its flow's counters with no call
    for caller in ("count_offered", "count_frame_delivered"):
        assert _calls_made_by(stats, caller) == 0, caller
    # each arrival pops its port's in-flight FIFO; none needs a bound partial
    assert _calls(stats, "_arrive") == 0
    assert 0 < _calls(stats, "arrive", "nic.py") <= hops


def test_slot_schedule_hop_stays_within_its_call_budget():
    result, _, entries = _profile(PARTITION)
    hops = _hops(result.network)
    assert hops > 500
    # 36.9 calls per hop before a port waiting for host tokens inside a slot
    # stopped inverting the clock, a frame was built with no helper call and
    # a bucket refilled with no divmod
    assert sum(entry.callcount for entry in entries) <= 34 * hops
    # the tokens come before the slot end in most waits: those read the
    # clock once and invert nothing (204 inversions for 204 wakes before)
    inversions = _calls_of(entries, LocalClock.true_at_local.__code__)
    assert 0 < inversions < _calls_of(entries, NicPort._set_wake.__code__)


@pytest.mark.parametrize("doc", [DOC, PARTITION], ids=["round_robin", "slot_schedule"])
def test_the_host_budget_is_refilled_to_the_instant_of_each_debit(doc, monkeypatch):
    """``_send`` debits ``bucket.tokens`` without a refill: each host-charged
    frame must find the bucket refilled to now by the decision's ready_time."""
    send = NicPort._send
    charged, stale = [0], []

    def checked_send(port, q, frame, now):
        if port.bucket is not None and frame.local_origin:
            charged[0] += 1
            if port.bucket._last != port.sim.now:
                stale.append((port.bucket._last, port.sim.now))
        send(port, q, frame, now)
    monkeypatch.setattr(NicPort, "_send", checked_send)
    run_scenario(parse_scenario(doc))
    assert charged[0] > 100
    assert stale == []


def test_one_frame_message_does_no_per_message_setup():
    result, stats, entries = _profile()
    delivered = sum(node.runtime.messages_delivered for node in result.network.nodes.values())
    assert delivered > 100
    # the node's own id is encoded once
    assert _calls_from(stats, "encode_id", "send_msg") == 0
    # each destination is decoded and checked by its first message only
    destinations = {flow["dst"] for flow in DOC["flows"]}
    for name in ("decode_id", "has_node"):
        assert _calls_from(stats, name, "_destination") == len(destinations) == 4, name
    # a frame names its ends by node id: no MAC is derived to build one
    for name in ("mac_of", "abs_coords"):
        assert _calls_from(stats, name, "build_runtime_frame") == 0, name
    # the fragment header is packed and unpacked by the struct alone: no
    # FragmentHeader is built, packed or unpacked on the message path
    for code in (FragmentHeader.__new__.__code__, FragmentHeader.pack.__code__,
                 FragmentHeader.unpack.__code__):
        assert _calls_of(entries, code) == 0, code.co_name
    # no reassembly deadline is scheduled for a message that fits one frame
    assert _calls_from(stats, "at", "on_frame") == 0
    # a flow records a delivered message by appending to its arrays: no
    # record object is built
    assert _calls(stats, "on_message", "metrics.py") > 100
    for name in ("__init__", "__new__"):
        assert _calls_from(stats, name, "on_message") == 0, name
    # the runtime hands each delivered message to its flow itself: no relay
    assert _calls(stats, "on_message") == _calls_from(stats, "on_message", "_deliver") == delivered


def test_building_a_frame_runs_one_python_init():
    net = build_network(parse_scenario(DOC))
    src, dst = NodeId(0, 0, 0, 0), NodeId(1, 1, 1, 1)
    profile = cProfile.Profile()
    profile.enable()
    net.build_runtime_frame(net.nodes[src], dst, bytes(PAYLOAD), pcp=0)
    profile.disable()
    inits = [(entry.code, entry.callcount) for entry in profile.getstats()
             if getattr(entry.code, "co_name", None) == "__init__"]
    assert inits == [(Frame.__init__.__code__, 1)]


def test_tx_queues_are_created_by_their_first_enqueue():
    init = TxQueue.__init__.__code__
    profile = cProfile.Profile()
    profile.enable()
    net = build_network(parse_scenario(DOC))
    profile.disable()
    ports = [p for node in net.nodes.values() for p in node.ports.values()]
    # building a port creates its management queue and no TX queue
    assert _calls_of(profile.getstats(), init) == len(ports)
    # a run adds at most one TX queue per (port, queue) that saw an enqueue
    result, _, entries = _profile()
    used = sum(1 for node in result.network.nodes.values() for p in node.ports.values()
               for q in p.queues if q.enqueued)
    assert used > 0
    assert _calls_of(entries, init) <= len(ports) + used
