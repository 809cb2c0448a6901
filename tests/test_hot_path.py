"""Call-count guard on the per-hop path.

A 1 ms round-robin run on 2x2 tiles runs under cProfile, and the test counts
calls, never time, so it is deterministic.  Each assertion names Python-level
work that one frame-hop once did and no longer does.
"""

import cProfile
import pstats

from tasnic.frame import MAX_WIRE_BYTES, wire_bytes
from tasnic.harness import run_scenario
from tasnic.runtime import FRAGMENT_HEADER_BYTES
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


def _profile():
    scenario = parse_scenario(DOC)
    profile = cProfile.Profile()
    profile.enable()
    result = run_scenario(scenario)
    profile.disable()
    return result, pstats.Stats(profile).stats


def _calls(stats, name, file_suffix=""):
    return sum(entry[1] for (file, _, func), entry in stats.items()
               if func == name and file.endswith(file_suffix))


def _calls_from(stats, name, caller):
    return sum(count[1] for (_, _, func), entry in stats.items() if func == name
               for (_, _, caller_func), count in entry[4].items() if caller_func == caller)


def test_round_robin_hop_does_no_avoidable_python_calls():
    result, stats = _profile()
    net = result.network
    hops = sum(link.tx_frames for link in net.topology.links)
    assert hops > 500
    # identity: NodeId is a tuple and PortKind hashes by identity, so no
    # generated dataclass method and no Enum.__hash__ runs
    assert _calls(stats, "__eq__", "<string>") == 0
    assert _calls(stats, "__hash__", "<string>") == 0
    assert _calls(stats, "__hash__", "enum.py") == 0
    # the engine pops each event once, without a peek_time round trip
    assert _calls_from(stats, "peek_time", "run_until") == 0
    # serialization time: once per (port, wire size), the default guardband's
    # maximum-size frame included
    ports = [p for node in net.nodes.values() for p in node.ports.values()]
    sizes = {wire_bytes(FRAGMENT_HEADER_BYTES + PAYLOAD), MAX_WIRE_BYTES}
    assert 0 < _calls(stats, "serialization_ticks", "frame.py") <= len(ports) * len(sizes)
    # with PTP off, a round-robin decision reads no clock
    for caller in ("kick", "_decide", "_rr_decide", "_transmit", "enqueue"):
        assert _calls_from(stats, "read_ns", caller) == 0, caller
