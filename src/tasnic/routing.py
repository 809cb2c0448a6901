"""Per-node forwarding decisions: dimension-order routing with fault bypass.

The rule is hierarchical and stateless apart from the frame's hop count:

1. resolve the tile column first: pick the shorter torus wrap direction
   (east on ties) whose crossing link is actually up, steer intra-tile to
   the node owning that external port, and cross it;
2. then the tile row the same way (south on ties);
3. then route within the destination tile, horizontal dimension first.

Decisions consult the fabric's current link-state view (fault state is
assumed to be disseminated out-of-band on the management network).  When
the chosen egress is down or equals the ingress anyway, the bypass tries
the other dimension's port first, then any remaining live data port except
the ingress; with nothing left the frame is dropped.

``next_hop(topo, cur, dst, ingress)`` returns the egress ``PortKind``, or
None when there is none: ``cur`` is ``dst``, ``dst`` is not a populated
node, or no live port is left.  The result depends only on its arguments
and the current link states.
"""

from __future__ import annotations

from .fabric import (
    DATA_PORT_KINDS,
    EXTERNAL_DIRECTION,
    OWNER_OF_DIRECTION,
    NodeId,
    PortKind,
    Topology,
)

DEFAULT_TTL = 64


def _port_up(topo: Topology, node: NodeId, kind: PortKind) -> bool:
    return (link := topo.ports[node][kind]) is not None and link.up


def _steer_within_tile(cur: NodeId, target_lrc: int, target_lcc: int) -> PortKind | None:
    """X-then-Y step toward a local position; None when already there."""
    if cur.lcc != target_lcc:
        return PortKind.INTRA_H
    if cur.lrc != target_lrc:
        return PortKind.INTRA_V
    return None


def _wrap_direction(cur_idx: int, dst_idx: int, size: int, fwd: str, bwd: str,
                    topo: Topology, grc: int, gcc: int) -> str | None:
    """Shorter wrap direction whose crossing link is up; ties prefer ``fwd``."""
    fwd_dist = (dst_idx - cur_idx) % size
    bwd_dist = (cur_idx - dst_idx) % size
    order = (fwd, bwd) if fwd_dist <= bwd_dist else (bwd, fwd)
    for direction in order:
        link = topo.wrap_link(grc, gcc, direction)
        if link is not None and link.up:
            return direction
    return None


def _preferred_port(topo: Topology, cur: NodeId, dst: NodeId) -> PortKind | None:
    if dst.gcc != cur.gcc:
        direction = _wrap_direction(cur.gcc, dst.gcc, topo.g_c, "E", "W",
                                    topo, cur.grc, cur.gcc)
    elif dst.grc != cur.grc:
        direction = _wrap_direction(cur.grc, dst.grc, topo.g_r, "S", "N",
                                    topo, cur.grc, cur.gcc)
    else:
        return _steer_within_tile(cur, dst.lrc, dst.lcc)
    if direction is None:
        return None
    owner_lrc, owner_lcc = OWNER_OF_DIRECTION[direction]
    if (cur.lrc, cur.lcc) == (owner_lrc, owner_lcc):
        return PortKind.EXTERNAL
    return _steer_within_tile(cur, owner_lrc, owner_lcc)


_BYPASS_AFTER = {
    PortKind.INTRA_H: (PortKind.INTRA_V, PortKind.EXTERNAL),
    PortKind.INTRA_V: (PortKind.INTRA_H, PortKind.EXTERNAL),
}
# a blocked external port, by its owner's local position: an east/west
# crossing tries the vertical dimension first, a south/north one the horizontal
_BYPASS_EXTERNAL = {
    pos: ((PortKind.INTRA_V, PortKind.INTRA_H) if direction in ("E", "W")
          else (PortKind.INTRA_H, PortKind.INTRA_V))
    for pos, direction in EXTERNAL_DIRECTION.items()
}


def next_hop(topo: Topology, cur: NodeId, dst: NodeId,
             ingress: PortKind | None = None) -> PortKind | None:
    """Egress port at ``cur`` for a frame destined to ``dst``; None when there is none."""
    if cur == dst or not topo.has_node(dst):
        return None

    preferred = _preferred_port(topo, cur, dst)
    if preferred is not None and preferred != ingress and _port_up(topo, cur, preferred):
        return preferred

    if preferred is None:
        candidates: tuple[PortKind, ...] = DATA_PORT_KINDS
    elif preferred == PortKind.EXTERNAL:
        candidates = _BYPASS_EXTERNAL[(cur.lrc, cur.lcc)]
    else:
        candidates = _BYPASS_AFTER[preferred]
    for kind in candidates:
        if kind != ingress and kind != preferred and _port_up(topo, cur, kind):
            return kind
    return None
