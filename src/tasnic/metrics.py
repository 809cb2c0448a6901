"""Per-flow measurement: goodput, one-way latency, jitter, drop accounting.

One-way latency is the receiver's synchronized local clock at delivery
minus the sender's local clock at submission, so sync quality feeds
straight into the numbers.  Jitter is the mean absolute difference of
consecutive latencies in arrival order.  Latency percentiles use the
nearest-rank method on integer nanoseconds.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from itertools import islice

from .runtime import Message


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of pre-sorted values (q in 0..100)."""
    if not sorted_values:
        return 0
    rank = math.ceil(q / 100.0 * len(sorted_values))
    rank = min(max(rank, 1), len(sorted_values))
    return sorted_values[rank - 1]


class DeliveredMessage:
    """One delivered message of a flow, built from the flow's arrays when read."""

    __slots__ = ("send_true_ns", "deliver_true_ns", "latency_ns", "hops")

    def __init__(self, send_true_ns: int, deliver_true_ns: int, latency_ns: int, hops: int):
        self.send_true_ns = send_true_ns
        self.deliver_true_ns = deliver_true_ns
        self.latency_ns = latency_ns
        self.hops = hops


class MessageView:
    """Read-only view of a flow's delivered messages, in arrival order."""

    __slots__ = ("_recorder",)

    def __init__(self, recorder: FlowRecorder):
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._recorder.latency_ns)

    def __iter__(self) -> Iterator[DeliveredMessage]:
        r = self._recorder
        return (DeliveredMessage(s, d, lat, h) for s, d, lat, h in
                zip(r.send_true_ns, r.deliver_true_ns, r.latency_ns, r.hops))


class FlowRecorder:
    """A flow's counters, and its delivered messages as four parallel arrays
    in arrival order: 25 bytes per message (hops fit a byte, since they never
    exceed ``routing.DEFAULT_TTL``)."""

    __slots__ = ("flow_id", "src", "dst", "pcp", "start_ns", "stop_ns", "offered_frames",
                 "delivered_frames", "bytes_delivered", "drops", "send_true_ns",
                 "deliver_true_ns", "latency_ns", "hops")

    def __init__(self, flow_id: int, src: str, dst: str, pcp: int, start_ns: int,
                 stop_ns: int):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.pcp = pcp
        self.start_ns = start_ns
        self.stop_ns = stop_ns
        self.offered_frames = 0
        self.delivered_frames = 0
        self.bytes_delivered = 0
        self.drops: dict[str, int] = {}
        self.send_true_ns = array("q")
        self.deliver_true_ns = array("q")
        self.latency_ns = array("q")
        self.hops = array("B")

    @property
    def messages(self) -> MessageView:
        return MessageView(self)

    def on_message(self, msg: Message) -> None:
        self.send_true_ns.append(msg.send_true_ns)
        self.deliver_true_ns.append(msg.deliver_true_ns)
        self.latency_ns.append(msg.deliver_local_ts - msg.send_local_ts)
        self.hops.append(msg.hops)
        self.bytes_delivered += len(msg.data)

    # -- summaries ------------------------------------------------------

    @property
    def dropped_frames(self) -> int:
        return sum(self.drops.values())

    @property
    def in_flight_frames(self) -> int:
        return self.offered_frames - self.delivered_frames - self.dropped_frames

    def jitter_ns(self) -> float:
        lats = self.latency_ns
        if len(lats) < 2:
            return 0.0
        return sum(abs(b - a) for a, b in zip(lats, islice(lats, 1, None))) / (len(lats) - 1)

    def goodput_bps(self) -> float:
        window = self.stop_ns - self.start_ns
        if window <= 0:
            return 0.0
        return self.bytes_delivered * 8 * 1e9 / window

    def summary(self) -> dict:
        lats = sorted(self.latency_ns)
        n = len(lats)
        return {
            "flow_id": self.flow_id,
            "src": self.src,
            "dst": self.dst,
            "pcp": self.pcp,
            "offered_frames": self.offered_frames,
            "delivered_frames": self.delivered_frames,
            "dropped_frames": self.dropped_frames,
            "in_flight_frames": self.in_flight_frames,
            "delivered_messages": n,
            "bytes_delivered": self.bytes_delivered,
            "goodput_bps": round(self.goodput_bps(), 3),
            "latency_ns": {
                "mean": round(sum(lats) / n, 3) if n else 0.0,
                "p50": percentile(lats, 50),
                "p99": percentile(lats, 99),
            },
            "jitter_ns": round(self.jitter_ns(), 3),
            "hops": {
                "min": min(self.hops, default=0),
                "max": max(self.hops, default=0),
            },
            "drops": dict(sorted(self.drops.items())),
        }


CSV_HEADER = ("flow_id,src,dst,pcp,offered_frames,delivered_frames,dropped_frames,"
              "in_flight_frames,delivered_messages,bytes_delivered,goodput_bps,"
              "latency_mean_ns,latency_p50_ns,latency_p99_ns,jitter_ns,hops_min,hops_max")


def csv_row(summary: dict) -> str:
    lat = summary["latency_ns"]
    hops = summary["hops"]
    fields = [
        summary["flow_id"], summary["src"], summary["dst"], summary["pcp"],
        summary["offered_frames"], summary["delivered_frames"], summary["dropped_frames"],
        summary["in_flight_frames"], summary["delivered_messages"], summary["bytes_delivered"],
        f"{summary['goodput_bps']:.3f}", f"{lat['mean']:.3f}", lat["p50"], lat["p99"],
        f"{summary['jitter_ns']:.3f}", hops["min"], hops["max"],
    ]
    return ",".join(str(f) for f in fields)
