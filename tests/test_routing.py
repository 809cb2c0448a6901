from collections import deque

import pytest

import tasnic.node
from tasnic.fabric import DATA_PORT_KINDS, NodeId, PortKind, build_topology, tile_plus_two_nodes
from tasnic.routing import next_hop
from test_runtime import quiet_net

# ---------------------------------------------------------------------------
# Independent straight-line reimplementation of the routing rule, used as the
# oracle.  Table-driven, sharing no code with the implementation.
# ---------------------------------------------------------------------------

_OWNER = {"E": (1, 1), "W": (0, 0), "N": (0, 1), "S": (1, 0)}


def oracle_port(topo, cur, dst):
    """Expected egress port kind on a fault-free fabric; None at the destination."""
    if cur == dst:
        return None
    if dst.gcc != cur.gcc:
        east = (dst.gcc - cur.gcc) % topo.g_c
        west = (cur.gcc - dst.gcc) % topo.g_c
        direction = "E" if east <= west else "W"
    elif dst.grc != cur.grc:
        south = (dst.grc - cur.grc) % topo.g_r
        north = (cur.grc - dst.grc) % topo.g_r
        direction = "S" if south <= north else "N"
    else:
        if cur.lcc != dst.lcc:
            return PortKind.INTRA_H
        return PortKind.INTRA_V
    owner_row, owner_col = _OWNER[direction]
    if cur.lrc == owner_row and cur.lcc == owner_col:
        return PortKind.EXTERNAL
    if cur.lcc != owner_col:
        return PortKind.INTRA_H
    return PortKind.INTRA_V


def walk(topo, src, dst, ttl=64):
    """Iterate next_hop; returns the node path or None on loop/drop."""
    cur, ingress = src, None
    visited = set()
    path = [cur]
    for _ in range(ttl):
        if cur == dst:
            return path
        out_port = next_hop(topo, cur, dst, ingress)
        if out_port is None:
            return None
        key = (cur, out_port)
        if key in visited:
            return None
        visited.add(key)
        link = topo.ports[cur][out_port]
        if link is None:
            return None
        cur, ingress = link.other_end(cur)
        path.append(cur)
    return None


def bfs_distance(topo, src, dst):
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        n = frontier.popleft()
        if n == dst:
            return dist[n]
        for link in topo.ports[n].values():
            if link is None or not link.up:
                continue
            peer, _ = link.other_end(n)
            if peer not in dist:
                dist[peer] = dist[n] + 1
                frontier.append(peer)
    return None


# ---------------------------------------------------------------------------


def test_destination_reached_is_local():
    topo = build_topology(1, 1)
    n = NodeId(0, 0, 0, 0)
    assert next_hop(topo, n, n) is None


def test_neighbor_goes_out_the_joining_port():
    topo = build_topology(1, 1)
    src, dst = NodeId(0, 0, 0, 0), NodeId(0, 0, 0, 1)
    out_port = next_hop(topo, src, dst)
    assert out_port is not None
    assert topo.ports[src][out_port].other_end(src)[0] == dst
    assert bfs_distance(topo, src, dst) == 1


def test_shorter_wrap_direction_wins():
    # three tile columns: from column 0 to column 2 the west wrap is 1 hop
    topo = build_topology(1, 3)
    src = NodeId(0, 0, 0, 0)  # the west-port owner itself
    dst = NodeId(0, 2, 0, 0)
    assert next_hop(topo, src, dst) == PortKind.EXTERNAL
    assert topo.ports[src][PortKind.EXTERNAL].other_end(src)[0].gcc == 2


def test_column_tie_breaks_east():
    topo = build_topology(1, 2)
    src = NodeId(0, 0, 1, 1)  # east-port owner; distances tie at 1
    dst = NodeId(0, 1, 0, 0)
    assert next_hop(topo, src, dst) == PortKind.EXTERNAL


def test_unknown_destination_drops():
    topo = tile_plus_two_nodes()
    assert next_hop(topo, NodeId(0, 1, 0, 0), NodeId(0, 0, 0, 0)) is None


@pytest.mark.parametrize("dims", [(2, 2), (1, 3)])
def test_oracle_equivalence_all_pairs(dims):
    topo = build_topology(*dims)
    checked = 0
    for src in topo.nodes:
        for dst in topo.nodes:
            assert next_hop(topo, src, dst) == oracle_port(topo, src, dst), (src, dst)
            checked += 1
    assert checked == len(topo.nodes) ** 2


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)])
def test_fault_free_completeness_no_repeats(dims):
    topo = build_topology(*dims)
    for src in topo.nodes:
        for dst in topo.nodes:
            assert walk(topo, src, dst) is not None, (src, dst)


def test_preferred_port_faulty_uses_alternative_and_delivers():
    topo = build_topology(1, 1)
    src, dst = NodeId(0, 0, 0, 0), NodeId(0, 0, 0, 1)
    direct = topo.link_between(src, dst)
    direct.set_state(False, 0)
    out_port = next_hop(topo, src, dst)
    assert out_port is not None
    assert out_port != PortKind.INTRA_H
    path = walk(topo, src, dst)
    assert path is not None and path[-1] == dst
    direct.set_state(True, 0)


def test_single_fault_delivery_with_sane_path_lengths():
    # Every single-fault scenario that leaves the graph connected must still
    # deliver all pairs, loop-free (walk already rejects repeats), with path
    # lengths floored by the shortest path and capped by a small detour.
    # Universal "faulted >= fault-free" does not hold for this routing family:
    # a fault can flip a tie-broken wrap direction (or an intra bypass can
    # exit through the external port) onto a path that happens to be shorter
    # at node level, so the bound is asserted both ways instead.
    topo = build_topology(2, 2)
    baseline = {}
    for src in topo.nodes:
        for dst in topo.nodes:
            baseline[(src, dst)] = len(walk(topo, src, dst)) - 1
    for link in topo.links:
        link.set_state(False, 0)
        if all(bfs_distance(topo, topo.nodes[0], n) is not None for n in topo.nodes):
            for src in topo.nodes:
                for dst in topo.nodes:
                    path = walk(topo, src, dst)
                    assert path is not None, (link.a, link.b, src, dst)
                    hops = len(path) - 1
                    assert hops >= bfs_distance(topo, src, dst)
                    assert hops <= baseline[(src, dst)] + 8
        link.set_state(True, 0)


def test_never_selects_ingress_port():
    topo = build_topology(2, 2)
    for src in topo.nodes:
        for dst in topo.nodes:
            cur, ingress = src, None
            for _ in range(64):
                out_port = next_hop(topo, cur, dst, ingress)
                if out_port is None:
                    break
                assert out_port != ingress
                cur, ingress = topo.ports[cur][out_port].other_end(cur)


def test_tile_plus_two_path_is_four_hops_each_way():
    topo = tile_plus_two_nodes()
    west, east = NodeId(0, 0, 1, 1), NodeId(0, 2, 0, 0)
    assert len(walk(topo, west, east)) - 1 == 4
    assert len(walk(topo, east, west)) - 1 == 4


def test_tile_plus_two_reroute_adds_a_hop():
    topo = tile_plus_two_nodes()
    west, east = NodeId(0, 0, 1, 1), NodeId(0, 2, 0, 0)
    link = topo.link_between(NodeId(0, 1, 0, 1), NodeId(0, 1, 1, 1))
    link.set_state(False, 0)
    path = walk(topo, west, east)
    assert path is not None
    assert len(path) - 1 == 5
    link.set_state(True, 0)


# -- per-node route tables ----------------------------------------------------


def table_kind(node, dst, ingress):
    port = node.egress_port(dst, ingress)
    return None if port is None else port.kind


def test_route_tables_follow_every_single_link_fault():
    # A 4x4-node torus (2x2 tiles).  Each table is filled before the state
    # change, so a table that kept its entries across it would answer with
    # the old egress for the keys the change reroutes.
    net = quiet_net((2, 2))
    topo = net.topology
    keys = [(node, dst, ingress) for node in net.nodes.values() for dst in topo.nodes
            for ingress in (None, *DATA_PORT_KINDS)]

    def check(state):
        for node, dst, ingress in keys:
            assert table_kind(node, dst, ingress) == next_hop(topo, node.node_id, dst, ingress), \
                (state, node.node_id, dst, ingress)

    check("fault-free")
    for link in topo.links:
        link.set_state(False, 0)
        check(("down", link.a, link.b))
        link.set_state(True, 0)
        check(("up", link.a, link.b))


@pytest.fixture
def next_hop_calls(monkeypatch):
    """The number of next_hop calls made by route-table misses."""
    calls = []

    def counted(*args):
        calls.append(args)
        return next_hop(*args)
    monkeypatch.setattr(tasnic.node, "next_hop", counted)
    return calls


def test_redundant_link_state_keeps_the_epoch_and_the_tables(next_hop_calls):
    net = quiet_net((2, 2))
    topo = net.topology
    node, dst = net.nodes[NodeId(0, 0, 0, 0)], NodeId(1, 1, 1, 1)
    link = topo.links[0]
    epoch = topo.link_epoch
    node.egress_port(dst, None)
    link.set_state(True, 5)
    assert topo.link_epoch == epoch and link.up_since == 0
    node.egress_port(dst, None)
    assert len(next_hop_calls) == 1

    link.set_state(False, 10)
    link.set_state(False, 20)
    assert topo.link_epoch == epoch + 1
    link.set_state(True, 30)
    link.set_state(True, 40)
    assert topo.link_epoch == epoch + 2 and link.up_since == 30
    node.egress_port(dst, None)
    assert len(next_hop_calls) == 2


def test_link_state_of_another_topology_keeps_the_tables(next_hop_calls):
    net, other = quiet_net((2, 2)), build_topology(2, 2)
    topo = net.topology
    node, dst = net.nodes[NodeId(0, 0, 0, 0)], NodeId(1, 1, 1, 1)
    node.egress_port(dst, None)
    for link in other.links:
        link.set_state(False, 0)
    assert topo.link_epoch == 0
    node.egress_port(dst, None)
    assert len(next_hop_calls) == 1
    topo.links[0].set_state(False, 0)
    node.egress_port(dst, None)
    assert len(next_hop_calls) == 2
