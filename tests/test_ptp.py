from tasnic.engine import TICKS_PER_S
from tasnic.fabric import NodeId
from tasnic.frame import (
    ETHERTYPE_PTP,
    FCS_BYTES,
    HEADER_BYTES,
    MIN_PAYLOAD,
    Frame,
)
from tasnic.node import Network
from tasnic.ptp import MSG_DELAY_REQ, MSG_DELAY_RESP, MSG_SYNC, PtpMessage
from tasnic.scenario import parse_scenario

GM = NodeId(0, 0, 0, 0)


def sync_net(drift):
    """One tile synced from ``GM``; a node that ``drift`` leaves out does not drift."""
    return Network(parse_scenario({
        "host": {"injection_cap_bps": None},
        "ptp": {"grandmaster": str(GM),
                "drift_ppm": {str(node): ppm for node, ppm in drift.items()}}}))


def test_message_codec_round_trip():
    for msg_type in (MSG_SYNC, MSG_DELAY_REQ, MSG_DELAY_RESP):
        msg = PtpMessage(msg_type, 123_456_789_012, 42)
        assert PtpMessage.unpack(msg.pack()) == msg
    assert len(PtpMessage(0, 0, 0).pack()) == 13


def test_one_step_timestamp_keeps_the_wire_length():
    net = sync_net({})
    frame = Frame(src=GM, final_dst=NodeId(0, 0, 0, 1), pcp=7, ethertype=ETHERTYPE_PTP,
                  payload=PtpMessage(MSG_SYNC, 0, 9).pack())
    frame.hops = 1  # at its origin port
    before = frame.wire_bytes
    net.ptp.on_tx_start(GM, frame, 123_456_789)
    assert PtpMessage.unpack(frame.payload) == PtpMessage(MSG_SYNC, 123_456_789, 9)
    assert len(frame.payload) == MIN_PAYLOAD
    assert frame.wire_bytes == before == HEADER_BYTES + len(frame.payload) + FCS_BYTES


def test_exchanges_complete_every_interval():
    net = sync_net({GM: 0.0, NodeId(0, 0, 0, 1): 5.0,
                    NodeId(0, 0, 1, 0): -5.0, NodeId(0, 0, 1, 1): 10.0})
    net.start()
    net.sim.run_until(2 * TICKS_PER_S)
    for state in net.ptp.slaves.values():
        assert state.rounds_completed in (7, 8)  # one round per 250 ms


def test_each_delay_response_goes_to_the_sender_of_its_delay_request(monkeypatch):
    sent = []
    send = Network.send_protocol_frame

    def recorded(net, src_id, dst, payload):
        sent.append((src_id, dst, PtpMessage.unpack(payload)))
        send(net, src_id, dst, payload)
    monkeypatch.setattr(Network, "send_protocol_frame", recorded)
    net = sync_net({NodeId(0, 0, 0, 1): 5.0, NodeId(0, 0, 1, 1): -5.0})
    net.start()
    net.sim.run_until(TICKS_PER_S)
    requester = {msg.exchange_id: src for src, dst, msg in sent if msg.msg_type == MSG_DELAY_REQ}
    answered = {msg.exchange_id: dst for src, dst, msg in sent if msg.msg_type == MSG_DELAY_RESP}
    assert answered.items() <= requester.items()
    assert len(answered) >= 3 * len(net.ptp.slaves)  # one exchange per slave per 250 ms
    assert set(answered.values()) == set(net.ptp.slaves)
    assert all(src == GM for src, _, msg in sent if msg.msg_type == MSG_DELAY_RESP)


def test_slaves_converge_within_five_quanta():
    drift = {GM: 2.0, NodeId(0, 0, 0, 1): 9.5,
             NodeId(0, 0, 1, 0): -9.5, NodeId(0, 0, 1, 1): 4.4}
    net = sync_net(drift)
    net.start()
    horizon = 3 * TICKS_PER_S  # > 10 sync rounds at 250 ms
    net.sim.run_until(horizon)
    worst = {s: 0.0 for s in net.ptp.slaves}
    t = horizon
    while t <= 6 * TICKS_PER_S:
        net.sim.run_until(t)
        for slave in net.ptp.slaves:
            off = abs(net.ptp.true_offset_ns(slave, t))
            worst[slave] = max(worst[slave], off)
        t += 5_000_000
    for slave, w in worst.items():
        assert w <= 5 * 8, f"{slave} diverged to {w} ns"


def test_grandmaster_clock_is_never_adjusted():
    net = sync_net({GM: 3.0, NodeId(0, 0, 0, 1): 8.0,
                    NodeId(0, 0, 1, 0): 0.0, NodeId(0, 0, 1, 1): -8.0})
    net.start()
    net.sim.run_until(2 * TICKS_PER_S)
    gm_clock = net.nodes[GM].clock
    assert gm_clock.offset_ns == 0
    assert gm_clock.rate_adj_ppm == 0.0


def test_sync_frames_use_the_management_queue():
    net = sync_net({GM: 0.0, NodeId(0, 0, 0, 1): 5.0,
                    NodeId(0, 0, 1, 0): 0.0, NodeId(0, 0, 1, 1): 0.0})
    for port in net.nodes[GM].ports.values():
        port.trace = []
    net.start()
    net.sim.run_until(TICKS_PER_S)
    records = [r for p in net.nodes[GM].ports.values() for r in p.trace]
    assert records
    assert all(r.queue_idx == -1 for r in records)  # management queue sentinel


def test_two_hop_slave_converges_too():
    # the far corner of the tile syncs through a forwarding hop
    drift = {GM: 0.0, NodeId(0, 0, 0, 1): 0.0,
             NodeId(0, 0, 1, 0): 0.0, NodeId(0, 0, 1, 1): 10.0}
    net = sync_net(drift)
    net.start()
    net.sim.run_until(4 * TICKS_PER_S)
    far = NodeId(0, 0, 1, 1)
    assert abs(net.ptp.true_offset_ns(far, net.sim.now)) <= 40
