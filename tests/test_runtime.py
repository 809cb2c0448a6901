import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnic.engine import Simulator
from tasnic.fabric import NodeId, PortKind, encode_id
from tasnic.nic import SHADOW_OFFSET
from tasnic.node import Network
from tasnic.runtime import (
    FRAGMENT_HEADER_BYTES,
    MAX_CHUNK,
    MAX_MESSAGE_BYTES,
    ConfigError,
    FragmentHeader,
    MessageError,
    ReceiveStalled,
    ReceiveTimeout,
    ScheduleConfig,
)
from tasnic.scenario import parse_scenario

A = NodeId(0, 0, 0, 0)
B = NodeId(0, 0, 0, 1)
FAR = NodeId(0, 0, 1, 1)


def quiet_net(dims=(1, 1), drift_ppm=0, **sections):
    """A network with no sync service and no host cap, built from a scenario
    document; ``sections`` replace whole sections of it."""
    g_r, g_c = dims
    return Network(parse_scenario({
        "grid": {"G_r": g_r, "G_c": g_c}, "host": {"injection_cap_bps": None},
        "ptp": {"enabled": False, "drift_ppm": drift_ppm}, **sections}))


def test_fragment_header_is_18_bytes_and_round_trips():
    header = FragmentHeader(7, 2, 3, 4000, 0x01020001, 0x00000101)
    packed = header.pack()
    assert len(packed) == 18
    assert FRAGMENT_HEADER_BYTES == 18
    assert FragmentHeader.unpack(packed + b"extra") == header


def test_frame_counts_from_message_size():
    net = quiet_net()
    runtime = net.nodes[A].runtime

    def frames_for(size):
        before = net.frames_offered
        runtime.send_msg(bytes(size), encode_id(B))
        return net.frames_offered - before

    assert frames_for(100) == 1
    assert frames_for(4000) == 3      # ceil(4000 / 1482)
    assert frames_for(1482) == 1
    assert frames_for(1483) == 2


@given(st.integers(min_value=1, max_value=200_000))
@settings(max_examples=30, deadline=None)
def test_fragment_conservation(size):
    net = quiet_net()
    before = net.frames_offered
    net.nodes[A].runtime.send_msg(bytes(size), encode_id(B))
    assert net.frames_offered - before == -(-size // MAX_CHUNK)


def test_zero_size_message_rejected():
    net = quiet_net()
    with pytest.raises(MessageError):
        net.nodes[A].runtime.send_msg(b"", encode_id(B))


def test_unknown_destination_rejected():
    net = quiet_net()
    from tasnic.fabric import AddressError
    with pytest.raises(AddressError):
        net.nodes[A].runtime.send_msg(b"hello", encode_id(NodeId(5, 5, 0, 0)))


def test_an_unpopulated_destination_is_rejected_every_time_and_takes_no_msg_id():
    from tasnic.fabric import AddressError
    net = quiet_net()
    runtime = net.nodes[A].runtime
    absent = encode_id(NodeId(5, 5, 0, 0))
    for _ in range(2):
        with pytest.raises(AddressError):
            runtime.send_msg(b"hello", absent)
    assert net.frames_offered == 0
    assert absent not in runtime._destinations
    assert [runtime.send_msg(b"hi", encode_id(B)) for _ in range(2)] == [0, 1]


def test_a_pcp_outside_0_to_7_is_rejected_before_the_lookup_and_takes_no_msg_id():
    net = quiet_net()
    runtime = net.nodes[A].runtime
    for dst in (NodeId(5, 5, 0, 0), B):  # refused before an absent node is looked up
        for pcp in (8, -1):
            with pytest.raises(MessageError):
                runtime.send_msg(b"hello", encode_id(dst), pcp=pcp)
    assert net.frames_offered == 0
    assert runtime._destinations == {}
    assert [runtime.send_msg(b"hi", encode_id(B), pcp=7) for _ in range(2)] == [0, 1]


def test_recv_msg_refuses_a_size_below_1_and_a_negative_timeout_before_the_engine_runs():
    net = quiet_net()
    net.nodes[A].runtime.send_msg(b"hi", encode_id(B))
    net.sim.run_until(10)
    runtime = net.nodes[B].runtime
    for size, timeout in ((0, 1_000), (-1, None), (2, -5)):
        with pytest.raises(MessageError):
            runtime.recv_msg(size, encode_id(A), timeout)
    assert (net.sim.now, net.sim.events_processed) == (10, 0)
    assert runtime.recv_msg(2, encode_id(A), timeout=50_000_000) == b"hi"


def test_a_message_over_65535_fragments_is_refused_before_it_takes_a_msg_id():
    class Oversized:  # its length passes the cap with no 97 MB behind it
        def __len__(self):
            return MAX_MESSAGE_BYTES + 1

    assert MAX_MESSAGE_BYTES == 0xFFFF * MAX_CHUNK
    net = quiet_net()
    runtime = net.nodes[A].runtime
    with pytest.raises(MessageError):
        runtime.send_msg(Oversized(), encode_id(B))
    assert runtime._destinations == {}
    assert runtime.send_msg(b"hi", encode_id(B)) == 0
    with pytest.raises(MessageError):  # with the destination cached
        runtime.send_msg(Oversized(), encode_id(B))
    assert runtime._destinations[encode_id(B)].next_msg_id == 1
    with pytest.raises(MessageError):  # such a message could never arrive
        net.nodes[B].runtime.recv_msg(MAX_MESSAGE_BYTES + 1, encode_id(A), timeout=1_000)
    assert (net.frames_offered, net.sim.events_processed) == (1, 0)


def test_the_fragment_cap_is_65535_fragments(monkeypatch):
    monkeypatch.setattr("tasnic.runtime.MAX_CHUNK", 1)
    net = quiet_net()
    runtime = net.nodes[A].runtime
    with pytest.raises(MessageError):
        runtime.send_msg(bytes(0x10000), encode_id(B))
    assert net.frames_offered == 0
    assert runtime.send_msg(bytes(0xFFFF), encode_id(B)) == 0
    assert net.frames_offered == 0xFFFF


def test_recv_msg_from_an_unpopulated_node_raises_before_the_engine_runs():
    from tasnic.fabric import AddressError
    net = quiet_net(ptp={})  # sync events keep the queue from draining
    net.start()
    runtime = net.nodes[A].runtime
    absent = encode_id(NodeId(5, 5, 0, 0))
    for timeout in (1_000_000_000, None):
        with pytest.raises(AddressError):
            runtime.recv_msg(5, absent, timeout)
    assert (net.sim.now, net.sim.events_processed) == (0, 0)
    assert absent not in runtime._destinations


def test_recv_msg_takes_the_first_match_from_the_inbox_and_leaves_the_rest():
    net = quiet_net()
    sender, runtime = net.nodes[A].runtime, net.nodes[B].runtime
    sender.send_msg(b"early", encode_id(B), flow_id=0)  # a flow id, but the run has no flows
    sender.send_msg(bytes(3000), encode_id(B))
    sender.send_msg(b"late", encode_id(B))
    assert runtime.recv_msg(4, encode_id(A), timeout=10_000_000) == b"late"
    # the two that arrived first, during the wait, match nothing and stay in order
    assert [(msg.data, msg.flow_id) for msg in runtime.inbox] == [
        (b"early", 0), (bytes(3000), None)]
    events = net.sim.events_processed
    assert runtime.recv_msg(5, encode_id(A), timeout=0) == b"early"
    assert net.sim.events_processed == events
    assert [msg.data for msg in runtime.inbox] == [bytes(3000)]


def test_round_trip_identity_multi_fragment():
    net = quiet_net()
    rng = random.Random(99)
    data = rng.randbytes(4000)
    net.nodes[A].runtime.send_msg(data, encode_id(B))
    got = net.nodes[B].runtime.recv_msg(len(data), encode_id(A), timeout=50_000_000)
    assert got == data


def test_round_trip_across_the_tile():
    net = quiet_net()
    rng = random.Random(100)
    data = rng.randbytes(10_000)
    net.nodes[A].runtime.send_msg(data, encode_id(FAR), pcp=2)
    got = net.nodes[FAR].runtime.recv_msg(len(data), encode_id(A), timeout=50_000_000)
    assert got == data


def test_out_of_order_fragments_reassemble():
    net = quiet_net()
    rng = random.Random(5)
    data = rng.randbytes(3 * MAX_CHUNK)
    src_id, dst_id = encode_id(A), encode_id(B)
    runtime = net.nodes[B].runtime
    frames = []
    for order, idx in enumerate((2, 0, 1)):
        chunk = data[idx * MAX_CHUNK:(idx + 1) * MAX_CHUNK]
        header = FragmentHeader(0, idx, 3, len(data), src_id, dst_id)
        frame = net.build_runtime_frame(net.nodes[A], B, header.pack() + chunk, pcp=0)
        frame.send_local_ts = 0
        frame.send_true_ns = 0
        frames.append(frame)
    for frame in frames:
        runtime.on_frame(frame)
    got = runtime.recv_msg(len(data), src_id, timeout=1_000)
    assert got == data


def test_partial_message_expires_and_counts():
    net = quiet_net()
    src_id, dst_id = encode_id(A), encode_id(B)
    runtime = net.nodes[B].runtime
    data = bytes(3 * MAX_CHUNK)
    for idx in (0, 1):   # fragment 2 never arrives
        header = FragmentHeader(0, idx, 3, len(data), src_id, dst_id)
        frame = net.build_runtime_frame(net.nodes[A], B, header.pack() + data[:MAX_CHUNK], pcp=0)
        runtime.on_frame(frame)
    net.sim.run_until(net.sim.now + 2_000_000_000)  # past the 1 s deadline
    assert runtime.expired_partials == 1
    assert runtime.messages_delivered == 0


def _sink(net, node):
    """The inbox of ``node``: each message it completes on a network with no
    flows, in order, each completed at its ``deliver_true_ns``."""
    return net.nodes[node].runtime.inbox


def _crafted(net, msg_id, frag_index, frag_count, total_len, chunk):
    header = FragmentHeader(msg_id, frag_index, frag_count, total_len, encode_id(A), encode_id(B))
    return net.build_runtime_frame(net.nodes[A], B, header.pack() + chunk, pcp=0)


@pytest.mark.parametrize("size", [1, 28, 29, MAX_CHUNK - 1, MAX_CHUNK, MAX_CHUNK + 1])
def test_message_sizes_around_one_frame_arrive_whole(size):
    # 28 B still pads the frame's payload to its minimum; 1483 B takes two frames
    net = quiet_net(drift_ppm={str(A): -30.0, str(FAR): 50.0})
    got = _sink(net, FAR)
    data = random.Random(size).randbytes(size)
    net.sim.run_until(1_000_000)  # far enough for the drifts to show
    net.nodes[A].runtime.send_msg(data, encode_id(FAR), flow_id=3)
    net.sim.run_until(10_000_000)
    [msg] = got
    now = msg.deliver_true_ns
    assert (msg.src_id, msg.data, msg.flow_id, msg.hops) == (encode_id(A), data, 3, 2)
    assert msg.send_true_ns == 1_000_000 < now
    assert msg.send_local_ts == net.nodes[A].clock.read_ns(1_000_000)
    assert msg.deliver_local_ts == net.nodes[FAR].clock.read_ns(now)
    assert msg.deliver_local_ts != now  # the receiver's own clock, not true time


@pytest.mark.parametrize("size, deadlines", [(MAX_CHUNK, 0), (MAX_CHUNK + 1, 1)])
def test_only_a_multi_frame_message_schedules_a_reassembly_deadline(size, deadlines, monkeypatch):
    labels = []
    at = Simulator.at

    def counted_at(sim, when, action, label=""):
        labels.append(label)
        return at(sim, when, action, label)

    monkeypatch.setattr(Simulator, "at", counted_at)
    net = quiet_net()
    net.nodes[A].runtime.send_msg(bytes(size), encode_id(B))
    assert net.nodes[B].runtime.recv_msg(size, encode_id(A), timeout=1_000_000) == bytes(size)
    assert sum(label.startswith("reasm-deadline:") for label in labels) == deadlines


def test_fragment_index_past_a_one_frame_count_leaves_a_partial_that_expires():
    net = quiet_net()
    runtime = net.nodes[B].runtime
    runtime.on_frame(_crafted(net, 0, 1, 1, 100, bytes(100)))
    net.sim.run_until(2_000_000_000)  # past the 1 s deadline
    assert (runtime.expired_partials, runtime.messages_delivered) == (1, 0)


def test_one_frame_message_under_the_key_of_a_partial_is_ignored():
    net = quiet_net()
    runtime = net.nodes[B].runtime
    runtime.on_frame(_crafted(net, 0, 0, 3, 3 * MAX_CHUNK, bytes(MAX_CHUNK)))
    runtime.on_frame(_crafted(net, 0, 0, 1, 100, bytes(100)))
    assert runtime.messages_delivered == 0
    net.sim.run_until(2_000_000_000)
    assert (runtime.expired_partials, runtime.messages_delivered) == (1, 0)


def test_a_short_chunk_is_zero_filled_to_the_message_length():
    net = quiet_net()
    got = _sink(net, B)
    runtime = net.nodes[B].runtime
    one, first, second = b"\x01" * 50, b"\x02" * 1000, b"\x03" * 518
    runtime.on_frame(_crafted(net, 0, 0, 1, 100, one))
    runtime.on_frame(_crafted(net, 1, 0, 2, 2000, first))
    runtime.on_frame(_crafted(net, 1, 1, 2, 2000, second))
    assert [msg.data for msg in got] == [
        one + bytes(50), first + bytes(MAX_CHUNK - 1000) + second]


def test_recv_timeout_raises():
    net = quiet_net()
    with pytest.raises(ReceiveTimeout):
        net.nodes[B].runtime.recv_msg(100, encode_id(A), timeout=1_000_000)
    assert net.sim.now >= 1_000_000


def test_recv_without_timeout_raises_when_stalled():
    net = quiet_net()
    with pytest.raises(ReceiveStalled):
        net.nodes[B].runtime.recv_msg(100, encode_id(A))


def test_loopback_message_to_self():
    for size in (400, 2 * MAX_CHUNK + 1):
        net = quiet_net(trace=True)
        labels = []
        net.sim.trace_hook = lambda t, seq, label: labels.append(label)
        data = random.Random(size).randbytes(size)
        net.nodes[A].runtime.send_msg(data, encode_id(A))
        got = net.nodes[A].runtime.recv_msg(size, encode_id(A), timeout=1_000_000)
        assert got == data
        # each fragment takes the host step a received frame takes, over an empty route
        frags = -(-size // MAX_CHUNK)
        assert labels == [f"hostrx:{A}"] * frags
        assert [(r["frag_index"], r["route"]) for r in net.route_traces] == [
            (i, []) for i in range(frags)]
        # each fragment is delivered once, with no wire in between
        assert net.frames_offered == net.frames_delivered == -(-size // MAX_CHUNK)
        assert net.drops_by_cause == {}
        # and counted at the node as at the network
        counters = net.nodes[A].counters
        assert net.frames_delivered == counters.rx_frames == counters.delivered_local
        assert net.frames_delivered == sum(n.counters.delivered_local for n in net.nodes.values())


def test_set_conf_round_trips_through_registers():
    net = quiet_net()
    runtime = net.nodes[A].runtime
    cfg = ScheduleConfig(PortKind.INTRA_H, 100, ((2, 90),), 1300)
    runtime.set_conf(cfg)
    echoed = runtime.get_conf(PortKind.INTRA_H)
    assert echoed.window_us == 100
    assert echoed.entries == ((2, 90),)
    assert echoed.guardband_ns == 1300


def test_set_conf_surfaces_commit_errors():
    net = quiet_net()
    with pytest.raises(ConfigError):
        net.nodes[A].runtime.set_conf(
            ScheduleConfig(PortKind.INTRA_H, 100, ((0, 70), (1, 50))))


@pytest.mark.parametrize("entries, message", [
    (((65536, 10),), "queue 65536 does not exist"),
    (tuple((q, 1) for q in range(17)), "17 entries exceed the maximum of 16"),
], ids=["queue_above_scr_range", "seventeen_entries"])
def test_set_conf_rejects_a_schedule_the_registers_cannot_hold(entries, message):
    # an SCR keeps 16 bits of a queue index, and the map has 16 SCR/TQCR pairs
    net = quiet_net(nic={"num_tx_queues": 32})
    port = net.nodes[A].ports[PortKind.INTRA_H]
    net.nodes[A].runtime.set_conf(ScheduleConfig(PortKind.INTRA_H, 100, ((3, 40),)))
    committed = port.committed_table
    with pytest.raises(ConfigError, match=message):
        net.nodes[A].runtime.set_conf(ScheduleConfig(PortKind.INTRA_H, 100, entries))
    assert port.committed_table is committed
    regs = committed.registers()
    assert {off: port.regs.read(SHADOW_OFFSET + off) for off in regs} == regs  # nothing written


@pytest.mark.parametrize("window_us, entries, guardband_ns, message", [
    (2**32 + 100, ((0, 2**32 + 10),), None, "window_us=4294967396 does not fit"),
    (100, ((0, 2**32 + 10),), None, "entry 0: slot_us=4294967306 does not fit"),
    (100, ((0, 10),), 2**32, "guardband_ns=4294967296 does not fit"),
], ids=["window", "slot", "guardband"])
def test_set_conf_rejects_a_value_wider_than_its_register(window_us, entries, guardband_ns,
                                                         message):
    # a register keeps the low 32 bits: 2**32 + 100 would commit as a 100 us window
    net = quiet_net()
    port = net.nodes[A].ports[PortKind.INTRA_H]
    committed = port.committed_table
    with pytest.raises(ConfigError, match=message):
        net.nodes[A].runtime.set_conf(
            ScheduleConfig(PortKind.INTRA_H, window_us, entries, guardband_ns))
    assert port.committed_table is committed
    assert net.nodes[A].runtime.get_conf(PortKind.INTRA_H).window_us == committed.window_us


def test_get_conf_default_is_empty_round_robin():
    net = quiet_net()
    cfg = net.nodes[A].runtime.get_conf(PortKind.EXTERNAL)
    assert cfg.entries == ()  # no slots: the baseline round-robin scheduler


def test_set_conf_is_idempotent():
    net = quiet_net()
    runtime = net.nodes[A].runtime
    cfg = ScheduleConfig(PortKind.INTRA_H, 200, ((1, 40), (2, 60)), 1218)
    runtime.set_conf(cfg)
    net.sim.run_until(500_000)
    first = net.nodes[A].ports[PortKind.INTRA_H].active_table
    runtime.set_conf(cfg)
    net.sim.run_until(1_000_000)
    second = net.nodes[A].ports[PortKind.INTRA_H].active_table
    assert first.registers() == second.registers()
    assert runtime.get_conf(PortKind.INTRA_H).entries == ((1, 40), (2, 60))
