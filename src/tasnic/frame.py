"""L2 frames: 802.1Q-tagged Ethernet with an IEEE CRC-32 FCS.

This module owns frame-size arithmetic: the payload limits and padding, the
wire length and the serialization time.  Other modules take sizes from here.

Wire layout is dst(6) src(6) tpid(2)=0x8100 tci(2) ethertype(2) payload
(46..1500) fcs(4), so the wire length is 18 + payload + 4 and tops out at
1522 bytes.  A ``Frame`` zero-pads a short payload, as the MAC does, and
names its two ends by node id, from which ``fabric.mac_of`` derives the
MACs.  It also carries simulation-only bookkeeping (hops, flow tag,
timestamps) in no wire bytes, as an ``sk_buff`` does; its final destination
stands in for the L3 headers the fabric's software routing reads.
"""

from __future__ import annotations

import zlib

from .fabric import NodeId, abs_coords, mac_of

TPID = 0x8100
ETHERTYPE_RUNTIME = 0x88B5
ETHERTYPE_PTP = 0x88F7

HEADER_BYTES = 18          # dst + src + 802.1Q tag + ethertype
FCS_BYTES = 4
MIN_PAYLOAD = 46
MAX_PAYLOAD = 1500
MAX_WIRE_BYTES = HEADER_BYTES + MAX_PAYLOAD + FCS_BYTES  # 1522


def wire_bytes(payload_len: int) -> int:
    """Wire length of a frame whose payload is ``payload_len`` bytes before padding."""
    return HEADER_BYTES + max(payload_len, MIN_PAYLOAD) + FCS_BYTES


def crc32(data: bytes) -> int:
    """IEEE 802.3 CRC-32 (reflected, init and final xor 0xFFFFFFFF)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def serialization_ticks(wire_bytes: int, rate_bps: int) -> int:
    """Integer-ns serialization time, rounded up (never undercounts the port)."""
    bits = wire_bytes * 8
    return -(-bits * 1_000_000_000 // rate_bps)


class SerializationTicks(dict):
    """Wire bytes -> ``serialization_ticks`` at one rate, each size computed once."""

    __slots__ = ("rate_bps",)

    def __init__(self, rate_bps: int):
        super().__init__()
        self.rate_bps = rate_bps

    def __missing__(self, wire_bytes: int) -> int:
        ticks = self[wire_bytes] = serialization_ticks(wire_bytes, self.rate_bps)
        return ticks


class Frame:
    __slots__ = ("src", "final_dst", "pcp", "ethertype", "payload", "fcs", "wire_bytes",
                 "local_origin", "flow_id", "send_local_ts", "send_true_ns", "hops", "route")

    def __init__(self, src: NodeId, final_dst: NodeId, pcp: int, ethertype: int,
                 payload: bytes, local_origin: bool = False,
                 route: list[tuple[NodeId, str]] | None = None):
        if not 0 <= pcp <= 7:
            raise ValueError(f"pcp {pcp} out of range")
        size = len(payload)
        if size < MIN_PAYLOAD:
            payload = payload + bytes(MIN_PAYLOAD - size)  # a new buffer: the caller's stays
            size = MIN_PAYLOAD
        elif size > MAX_PAYLOAD:
            raise ValueError(f"payload of {size} bytes is above {MAX_PAYLOAD}")
        self.src = src
        self.final_dst = final_dst          # L3-analog destination read by routing
        self.pcp = pcp
        self.ethertype = ethertype
        self.payload = payload
        self.fcs: int | None = None
        # a payload rewritten in flight keeps its length
        self.wire_bytes = HEADER_BYTES + size + FCS_BYTES
        self.local_origin = local_origin    # counts against the host injection cap
        self.flow_id: int | None = None
        self.send_local_ts: int | None = None  # sender clock at send_msg time
        self.send_true_ns: int | None = None
        self.hops = 0  # links taken, the one in flight included: the TTL count
        self.route = route

    @property
    def meta(self) -> Frame:
        """The frame itself, for ``bench/tracing.py``'s ``counted_drop`` alone."""
        return self

    def covered_bytes(self) -> bytes:
        """The bytes the FCS covers: header (MACs of both ends) and payload.
        The 802.1Q tag control is the pcp, with DEI and VLAN id 0."""
        return b"".join((
            mac_of(abs_coords(self.final_dst)),
            mac_of(abs_coords(self.src)),
            TPID.to_bytes(2, "big"),
            (self.pcp << 13).to_bytes(2, "big"),
            self.ethertype.to_bytes(2, "big"),
            self.payload,
        ))

    def stamp_fcs(self) -> None:
        self.fcs = crc32(self.covered_bytes())

    def fcs_ok(self) -> bool:
        return self.fcs is not None and self.fcs == crc32(self.covered_bytes())
