import pytest
from hypothesis import given
from hypothesis import strategies as st

from tasnic.fabric import (
    AddressError,
    GridCoord,
    NodeId,
    PortKind,
    abs_coords,
    all_node_ids,
    build_topology,
    decode_id,
    encode_id,
    format_mac,
    ip_of,
    mac_of,
    tile_plus_two_nodes,
)

node_ids = st.builds(NodeId,
                     st.integers(0, 255), st.integers(0, 255),
                     st.integers(0, 1), st.integers(0, 1))


def test_encode_id_packs_bytes():
    assert encode_id(NodeId(1, 2, 0, 1)) == 0x01020001
    assert encode_id(NodeId(0, 0, 0, 0)) == 0x00000000


def test_encode_id_rejects_oversized_fields():
    with pytest.raises(AddressError):
        encode_id(NodeId(256, 0, 0, 0))


@given(node_ids)
def test_encode_decode_round_trip(node_id):
    assert decode_id(encode_id(node_id)) == node_id


@given(st.lists(node_ids, max_size=20))
def test_node_ids_sort_and_hash_as_their_field_tuples(ids):
    fields = [(n.grc, n.gcc, n.lrc, n.lcc) for n in ids]
    assert [tuple(n) for n in sorted(ids)] == sorted(fields)
    assert [hash(n) for n in ids] == [hash(f) for f in fields]


@given(node_ids)
def test_node_id_text_round_trip(node_id):
    assert repr(node_id) == (f"NodeId(grc={node_id.grc}, gcc={node_id.gcc}, "
                             f"lrc={node_id.lrc}, lcc={node_id.lcc})")
    assert str(node_id) == f"{node_id.grc}.{node_id.gcc}.{node_id.lrc}.{node_id.lcc}"
    assert NodeId.parse(str(node_id)) == node_id


def test_abs_coords_examples():
    assert abs_coords(NodeId(0, 0, 0, 0)) == GridCoord(0, 0)
    assert abs_coords(NodeId(1, 2, 0, 1)) == GridCoord(2, 5)
    assert abs_coords(NodeId(2, 0, 1, 1)) == GridCoord(5, 1)


def test_mac_and_ip_derivation():
    assert format_mac(mac_of(GridCoord(2, 5))) == "02:00:00:00:02:05"
    assert ip_of(GridCoord(2, 5)) == ("10.0.2.5", "255.255.0.0")
    assert format_mac(mac_of(GridCoord(0, 0))) == "02:00:00:00:00:00"
    assert ip_of(GridCoord(0, 0)) == ("10.0.0.0", "255.255.0.0")
    with pytest.raises(AddressError):
        mac_of(GridCoord(256, 0))


def test_addressing_is_injective_over_whole_grid():
    topo = build_topology(3, 4)
    macs = {mac_of(abs_coords(n)) for n in topo.nodes}
    ips = {ip_of(abs_coords(n))[0] for n in topo.nodes}
    assert len(macs) == len(topo.nodes)
    assert len(ips) == len(topo.nodes)


def test_mac_round_trips_to_coordinates():
    for n in all_node_ids(2, 3):
        coord = abs_coords(n)
        assert mac_of(coord)[4:] == bytes((coord.rc, coord.cc))


def test_build_1x1_counts_and_self_wrap():
    topo = build_topology(1, 1)
    assert len(topo.nodes) == 4
    intra = [l for l in topo.links if l.a[1] != PortKind.EXTERNAL]
    external = [l for l in topo.links if l.a[1] == PortKind.EXTERNAL]
    assert len(intra) == 4
    assert len(external) == 2
    # self-wrap links join distinct ports of distinct nodes
    for link in external:
        assert link.a[0] != link.b[0]


def test_build_3x2_counts():
    topo = build_topology(3, 2)
    assert len(topo.nodes) == 24
    intra = [l for l in topo.links if l.a[1] != PortKind.EXTERNAL]
    external = [l for l in topo.links if l.a[1] == PortKind.EXTERNAL]
    assert len(intra) == 4 * 6
    assert len(external) == 2 * 6


def test_build_1x3_east_west_wiring():
    topo = build_topology(1, 3)
    peer = topo.ports[NodeId(0, 1, 1, 1)][PortKind.EXTERNAL].other_end(NodeId(0, 1, 1, 1))
    assert peer == (NodeId(0, 2, 0, 0), PortKind.EXTERNAL)


@pytest.mark.parametrize("dims", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_port_peer_symmetry(dims):
    topo = build_topology(*dims)
    for n in topo.nodes:
        for kind, link in topo.ports[n].items():
            if link is None:
                continue
            peer_node, peer_kind = link.other_end(n)
            back = topo.ports[peer_node][peer_kind].other_end(peer_node)
            assert back == (n, kind)


def test_every_node_has_three_data_ports_and_mgmt():
    topo = build_topology(2, 2)
    for n in topo.nodes:
        kinds = set(topo.ports[n])
        assert kinds == {PortKind.INTRA_H, PortKind.INTRA_V,
                         PortKind.EXTERNAL, PortKind.MGMT}
        assert topo.ports[n][PortKind.MGMT] is None
        for k in (PortKind.INTRA_H, PortKind.INTRA_V, PortKind.EXTERNAL):
            assert topo.ports[n][k] is not None


def test_tile_plus_two_shape():
    topo = tile_plus_two_nodes()
    assert len(topo.nodes) == 6
    assert len(topo.links) == 7
    west_ext = NodeId(0, 0, 1, 1)
    east_ext = NodeId(0, 2, 0, 0)
    assert (topo.ports[west_ext][PortKind.EXTERNAL].other_end(west_ext)
            == (NodeId(0, 1, 0, 0), PortKind.EXTERNAL))
    assert (topo.ports[east_ext][PortKind.EXTERNAL].other_end(east_ext)
            == (NodeId(0, 1, 1, 1), PortKind.EXTERNAL))
    # the extras' intra-tile ports have no peers
    assert topo.ports[west_ext][PortKind.INTRA_H] is None
    assert topo.ports[west_ext][PortKind.INTRA_V] is None


def test_link_up_throughout_interval_logic():
    # Link state changes in time order; each (start, end) interval is asked
    # at its end time, as Network._arrive does on a frame arrival.
    topo = build_topology(1, 1)
    link = topo.links[0]
    assert link.up_throughout(0)  # (0, 999)
    link.set_state(False, 1000)
    assert not link.up_throughout(0)  # (0, 1000)
    assert not link.up_throughout(500)  # (500, 1500)
    assert not link.up_throughout(1500)  # (1500, 1800)
    link.set_state(True, 2000)
    assert link.up_throughout(2000)  # (2000, 5000)
    assert not link.up_throughout(1999)  # (1999, 5000) covers the outage


def test_echo_is_stable_and_lists_every_port():
    topo = build_topology(1, 1)
    echo1 = topo.echo()
    echo2 = topo.echo()
    assert echo1 == echo2
    # one line per port per node
    assert len(echo1.splitlines()) == 4 * 4
    assert "02:00:00:00:00:00" in echo1
