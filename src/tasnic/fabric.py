"""Hierarchical fabric: a 2D-torus of 2x2 compute tiles.

Every node is addressed by the tuple <Grc, Gcc, Lrc, Lcc> (tile row/column,
local row/column within the tile).  The absolute grid position <Rc, Cc>
derives the MAC (02:00:00:00:Rc:Cc) and IP (10.0.Rc.Cc/16).  Within a tile
each node has two intra-tile data ports plus one external port whose
direction follows the node's local position: (0,0) west, (0,1) north,
(1,0) south, (1,1) east.  External links wrap torus-wise between adjacent
tiles.  The management port is out-of-band and carries no simulated
traffic.

Topologies may be built partially populated (a subset of node positions);
links touching an absent node simply do not exist, and the routing layer
treats them as permanently down.  That is how the lab shape "one full tile
plus two single nodes on the horizontal axis" is expressed.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .engine import SimTime


class AddressError(Exception):
    """Coordinate or identifier out of the encodable range."""


class PortKind(Enum):
    INTRA_H = "intra_h"
    INTRA_V = "intra_v"
    EXTERNAL = "external"
    MGMT = "mgmt"

    # members are singletons, so identity hashes them; Enum's own hash is a
    # Python-level call on every dict lookup keyed by a port kind
    __hash__ = object.__hash__


DATA_PORT_KINDS = (PortKind.INTRA_H, PortKind.INTRA_V, PortKind.EXTERNAL)

# external port direction owned by each local position
EXTERNAL_DIRECTION = {(0, 0): "W", (0, 1): "N", (1, 0): "S", (1, 1): "E"}
OWNER_OF_DIRECTION = {d: pos for pos, d in EXTERNAL_DIRECTION.items()}

DEFAULT_LINK_RATE_BPS = 10_000_000_000
DEFAULT_PROP_DELAY_NS = 500


class NodeId(NamedTuple):
    """A node's <Grc, Gcc, Lrc, Lcc>; a tuple, so it hashes and compares in C."""

    grc: int
    gcc: int
    lrc: int
    lcc: int

    def __str__(self) -> str:
        return f"{self.grc}.{self.gcc}.{self.lrc}.{self.lcc}"

    @staticmethod
    def parse(text: str) -> "NodeId":
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"bad node id {text!r}")
        return NodeId(*(int(p) for p in parts))


class GridCoord(NamedTuple):
    rc: int  # absolute row
    cc: int  # absolute column


def encode_id(node_id: NodeId) -> int:
    """Pack the id tuple into 32 bits, one byte per field."""
    for name, value in (("grc", node_id.grc), ("gcc", node_id.gcc),
                        ("lrc", node_id.lrc), ("lcc", node_id.lcc)):
        if not 0 <= value <= 255:
            raise AddressError(f"{name}={value} does not fit one byte")
    return (node_id.grc << 24) | (node_id.gcc << 16) | (node_id.lrc << 8) | node_id.lcc


def decode_id(value: int) -> NodeId:
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"encoded id {value:#x} is not a u32")
    return NodeId((value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF)


MAX_GRID_DIM = 128  # tiles per dimension: the absolute row 2*Grc+Lrc must fit one MAC byte


def abs_coords(node_id: NodeId) -> GridCoord:
    return GridCoord(node_id.grc * 2 + node_id.lrc, node_id.gcc * 2 + node_id.lcc)


def mac_of(coord: GridCoord) -> bytes:
    """Locally-administered MAC 02:00:00:00:Rc:Cc."""
    if not (0 <= coord.rc <= 255 and 0 <= coord.cc <= 255):
        raise AddressError(f"coordinate {coord} exceeds one byte")
    return bytes((0x02, 0x00, 0x00, 0x00, coord.rc, coord.cc))


def ip_of(coord: GridCoord) -> tuple[str, str]:
    """IP 10.0.Rc.Cc with the /16 mask selecting the two low bytes."""
    if not (0 <= coord.rc <= 255 and 0 <= coord.cc <= 255):
        raise AddressError(f"coordinate {coord} exceeds one byte")
    return f"10.0.{coord.rc}.{coord.cc}", "255.255.0.0"


def format_mac(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


class Link:
    """Full-duplex point-to-point segment between two data ports."""

    __slots__ = ("a", "b", "rate_bps", "prop_delay_ns", "up", "up_since", "drops", "topology")

    def __init__(self, a: tuple[NodeId, PortKind], b: tuple[NodeId, PortKind],
                 rate_bps: int, prop_delay_ns: int, topology: "Topology"):
        self.a = a
        self.b = b
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.up = True
        self.up_since: SimTime = 0  # last down-to-up change; consulted for in-flight drops
        self.drops = 0
        self.topology = topology  # whose link_epoch a state change moves

    def other_end(self, node_id: NodeId) -> tuple[NodeId, PortKind]:
        if node_id == self.a[0]:
            return self.b
        if node_id == self.b[0]:
            return self.a
        raise ValueError(f"{node_id} is not an endpoint of this link")

    def set_state(self, up: bool, at: SimTime) -> bool:
        """The only writer of link state; True on a change, which moves the
        topology's link epoch (a redundant up keeps ``up_since``). A running
        network calls it through ``Network.schedule_link_state``."""
        if up == self.up:
            return False
        if up:
            self.up_since = at
        self.up = up
        self.topology.link_epoch += 1
        return True

    def up_throughout(self, start: SimTime) -> bool:
        """True when the link has been continuously up from ``start`` until now."""
        return self.up and self.up_since <= start


class Topology:
    """Immutable wiring (nodes, ports, links); only link state mutates.

    ``ports[node][kind]`` is the link on that port, or None when the port is
    unconnected (an absent peer, or the out-of-band management port).
    ``link_epoch`` counts the state changes of all its links: anything
    derived from link state (a node's route table) is valid for as long as
    the count it was built at is still current.
    """

    def __init__(self, g_r: int, g_c: int, populated: list[NodeId],
                 rate_bps: int, prop_delay_ns: int):
        self.g_r = g_r
        self.g_c = g_c
        self.nodes: list[NodeId] = sorted(populated)
        self._present = set(self.nodes)
        self.ports: dict[NodeId, dict[PortKind, Link | None]] = {}
        self.links: list[Link] = []
        self.link_epoch = 0
        self._link_by_ends: dict[frozenset, Link] = {}
        self._rate = rate_bps
        self._prop = prop_delay_ns
        for n in self.nodes:
            self.ports[n] = dict.fromkeys((*DATA_PORT_KINDS, PortKind.MGMT))

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._present

    def link_between(self, a: NodeId, b: NodeId) -> Link | None:
        return self._link_by_ends.get(frozenset((a, b)))

    def _wire(self, a: NodeId, pa: PortKind, b: NodeId, pb: PortKind) -> None:
        if not (self.has_node(a) and self.has_node(b)):
            return
        link = Link((a, pa), (b, pb), self._rate, self._prop, self)
        self.ports[a][pa] = link
        self.ports[b][pb] = link
        self.links.append(link)
        self._link_by_ends[frozenset((a, b))] = link

    def wrap_link(self, grc: int, gcc: int, direction: str) -> Link | None:
        """The external link a frame crosses leaving tile (grc, gcc) via ``direction``."""
        owner_pos = OWNER_OF_DIRECTION[direction]
        owner = NodeId(grc, gcc, *owner_pos)
        if not self.has_node(owner):
            return None
        return self.ports[owner][PortKind.EXTERNAL]

    def echo(self) -> str:
        """Stable one-line-per-port wiring dump for debugging."""
        lines = []
        for n in self.nodes:
            coord = abs_coords(n)
            ip, mask = ip_of(coord)
            for kind in (*DATA_PORT_KINDS, PortKind.MGMT):
                link = self.ports[n][kind]
                if kind == PortKind.MGMT:
                    peer = "mgmt(out-of-band)"
                elif link is None:
                    peer = "unconnected"
                else:
                    pn, pk = link.other_end(n)
                    peer = f"{pn}:{pk.value} rate={link.rate_bps} prop_ns={link.prop_delay_ns}"
                lines.append(
                    f"node {n} abs=({coord.rc},{coord.cc}) mac={format_mac(mac_of(coord))} "
                    f"ip={ip}/{mask} port={kind.value} peer={peer}"
                )
        return "\n".join(lines)


def all_node_ids(g_r: int, g_c: int) -> list[NodeId]:
    return [NodeId(gr, gc, lr, lc)
            for gr in range(g_r) for gc in range(g_c)
            for lr in (0, 1) for lc in (0, 1)]


def build_topology(g_r: int, g_c: int,
                   rate_bps: int = DEFAULT_LINK_RATE_BPS,
                   prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
                   populated: Iterable[NodeId] | None = None) -> Topology:
    """Build the tile grid; ``populated`` restricts which positions exist."""
    if g_r < 1 or g_c < 1:
        raise ValueError("grid dimensions must be >= 1")
    universe = all_node_ids(g_r, g_c)
    if populated is None:
        nodes = universe
    else:
        nodes = sorted(set(populated))
        unknown = [n for n in nodes if n not in set(universe)]
        if unknown:
            raise AddressError(f"populated nodes outside the {g_r}x{g_c} grid: {unknown}")
    topo = Topology(g_r, g_c, nodes, rate_bps, prop_delay_ns)

    for gr in range(g_r):
        for gc in range(g_c):
            # intra-tile mesh: horizontal pairs then vertical pairs
            for lr in (0, 1):
                topo._wire(NodeId(gr, gc, lr, 0), PortKind.INTRA_H,
                           NodeId(gr, gc, lr, 1), PortKind.INTRA_H)
            for lc in (0, 1):
                topo._wire(NodeId(gr, gc, 0, lc), PortKind.INTRA_V,
                           NodeId(gr, gc, 1, lc), PortKind.INTRA_V)
            # torus wraps: east-of-(gr,gc) to west-of-(gr,gc+1), south to north below
            east_owner = NodeId(gr, gc, *OWNER_OF_DIRECTION["E"])
            west_owner = NodeId(gr, (gc + 1) % g_c, *OWNER_OF_DIRECTION["W"])
            topo._wire(east_owner, PortKind.EXTERNAL, west_owner, PortKind.EXTERNAL)
            south_owner = NodeId(gr, gc, *OWNER_OF_DIRECTION["S"])
            north_owner = NodeId((gr + 1) % g_r, gc, *OWNER_OF_DIRECTION["N"])
            topo._wire(south_owner, PortKind.EXTERNAL, north_owner, PortKind.EXTERNAL)
    return topo


def tile_plus_two_nodes(rate_bps: int = DEFAULT_LINK_RATE_BPS,
                        prop_delay_ns: int = DEFAULT_PROP_DELAY_NS) -> Topology:
    """The lab shape: one full tile flanked by two single nodes horizontally.

    Expressed as a 1x3 tile grid where only the middle tile is complete;
    the left neighbor contributes its east-port node and the right neighbor
    its west-port node.
    """
    populated = [NodeId(0, 0, 1, 1), NodeId(0, 2, 0, 0)]
    populated += [NodeId(0, 1, lr, lc) for lr in (0, 1) for lc in (0, 1)]
    return build_topology(1, 3, rate_bps, prop_delay_ns, populated)
