"""Flow records: the report arithmetic over a flow's message arrays, and
what the arrays cost per delivered message."""

import json
import math
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tasnic import metrics
from tasnic.harness import run_scenario
from tasnic.metrics import FlowRecorder, csv_row
from tasnic.routing import DEFAULT_TTL
from tasnic.runtime import Message
from tasnic.scenario import parse_scenario

QUANTUM_FLOOR_NS = -5 * 8  # five timestamp quanta, as in test_harness

messages = st.lists(st.tuples(
    st.integers(min_value=0, max_value=2**40),                  # send_local_ts
    st.integers(min_value=QUANTUM_FLOOR_NS, max_value=10**9),   # latency
    st.integers(min_value=0, max_value=2**40),                  # send_true_ns
    st.integers(min_value=0, max_value=2**40),                  # deliver_true_ns
    st.integers(min_value=0, max_value=DEFAULT_TTL),            # hops
    st.integers(min_value=0, max_value=1482),                   # data bytes
), max_size=60)


def _nearest_rank(ordered, q):
    if not ordered:
        return 0
    return ordered[min(max(math.ceil(q / 100.0 * len(ordered)), 1), len(ordered)) - 1]


def _reference(msgs, window_ns):
    """The message figures of a summary, from plain per-message lists."""
    lats = [lat for _, lat, _, _, _, _ in msgs]
    hops = [h for _, _, _, _, h, _ in msgs]
    ordered = sorted(lats)
    n = len(lats)
    diffs = [abs(b - a) for a, b in zip(lats, lats[1:])]
    delivered = sum(size for *_, size in msgs)
    return {
        "delivered_messages": n,
        "bytes_delivered": delivered,
        "goodput_bps": round(delivered * 8 * 1e9 / window_ns, 3),
        "latency_ns": {
            "mean": round(sum(ordered) / n, 3) if n else 0.0,
            "p50": _nearest_rank(ordered, 50),
            "p99": _nearest_rank(ordered, 99),
        },
        "jitter_ns": round(sum(diffs) / len(diffs), 3) if diffs else 0.0,
        "hops": {"min": min(hops, default=0), "max": max(hops, default=0)},
    }


@settings(max_examples=200, deadline=None)
@given(messages)
@example([])
@example([(5, -40, 1, 2, 0, 0)])
@example([(5, 3, 1, 2, 1, 64), (9, -7, 4, 8, 64, 64)])
def test_summary_matches_per_message_reference(msgs):
    window_ns = 1_000_000
    rec = FlowRecorder(0, "0.0.0.0", "0.0.1.1", 2, 0, window_ns)
    for send_local, lat, send_true, deliver_true, hops, size in msgs:
        rec.on_message(Message(7, bytes(size), send_local, send_true, send_local + lat,
                               deliver_true, 0, hops))
    got = rec.summary()
    expected = {**got, **_reference(msgs, window_ns)}
    # json also tells an int from a float, which the report's bytes do
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert csv_row(got) == csv_row(expected)
    # the view yields each message's record in arrival order
    assert len(rec.messages) == len(msgs)
    assert [(m.send_true_ns, m.deliver_true_ns, m.latency_ns, m.hops) for m in rec.messages] \
        == [(send_true, deliver_true, lat, hops)
            for _, lat, send_true, deliver_true, hops, _ in msgs]


MEMORY_DOC = {
    "grid": {"G_r": 2, "G_c": 2},
    "ptp": {"enabled": False},
    "duration_ns": 1_000_000,
    "flows": [{"src": src, "dst": dst, "pcp": 0, "offered_rate_bps": 500_000_000,
               "frame_payload_bytes": 64}
              for src, dst in [("0.0.0.0", "1.1.1.1"), ("1.1.0.1", "0.0.1.0"),
                               ("0.1.1.1", "1.0.0.0"), ("1.0.1.0", "0.1.0.1")]],
}


def test_flow_records_take_at_most_32_bytes_per_message():
    scenario = parse_scenario(MEMORY_DOC)
    tracemalloc.start()
    try:
        result = run_scenario(scenario)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.filter_traces(
        [tracemalloc.Filter(True, metrics.__file__)]).statistics("filename"))
    delivered = sum(len(rec.messages) for rec in result.recorders)
    assert delivered >= 2_000
    # four arrays hold 25 B per message; one object per message took about 100 B
    assert held <= 32 * delivered
