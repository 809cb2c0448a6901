import random
import time
import tracemalloc
from functools import partial

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tasnic.clock import LocalClock
from tasnic.fabric import GridCoord, NodeId, PortKind, abs_coords, encode_id, mac_of
from tasnic.frame import ETHERTYPE_RUNTIME, Frame, serialization_ticks
from tasnic.harness import RunResult
from tasnic.nic import (
    REG_COMMIT,
    REG_GUARDBAND_NS,
    REG_NUM_ENTRIES,
    REG_SCR_BASE,
    REG_TQCR_BASE,
    REG_WINDOW_US,
    SCR_ENABLE,
    SHADOW_OFFSET,
    RegisterError,
    TokenBucket,
    TxQueue,
    default_guardband_ns,
)
from tasnic.nic import NicPort
from tasnic.node import Network
from tasnic.routing import DEFAULT_TTL
from tasnic.runtime import MAX_CHUNK, FragmentHeader, ScheduleConfig
from tasnic.scenario import parse_scenario
from test_runtime import quiet_net

A = NodeId(0, 0, 0, 0)
B = NodeId(0, 0, 0, 1)


def two_node_net(cap_bps=None, queue_depth=4096, rate_bps=10_000_000_000, num_tx_queues=8):
    net = quiet_net(grid={"populated": [str(A), str(B)]}, link={"rate_bps": rate_bps},
                    host={"injection_cap_bps": cap_bps},
                    nic={"num_tx_queues": num_tx_queues, "queue_depth": queue_depth})
    port = net.nodes[A].ports[PortKind.INTRA_H]
    port.trace = []
    return net, port


def make_frame(net, payload_len=1500, pcp=0):
    return Frame(src=A, final_dst=B, pcp=pcp, ethertype=ETHERTYPE_RUNTIME,
                 payload=bytes(payload_len), local_origin=True)


def program(net, entries, window_us=100, guardband_ns=None):
    net.nodes[A].runtime.set_conf(
        ScheduleConfig(PortKind.INTRA_H, window_us, tuple(entries), guardband_ns))


# -- register file ---------------------------------------------------------


def test_register_write_commit_activates_schedule():
    net, port = two_node_net()
    port.regs.write(REG_WINDOW_US, 100)
    port.regs.write(REG_GUARDBAND_NS, 1300)
    port.regs.write(REG_NUM_ENTRIES, 1)
    port.regs.write(REG_SCR_BASE, SCR_ENABLE | 0)
    port.regs.write(REG_TQCR_BASE, 90)
    port.regs.write(REG_COMMIT, 1)
    assert port.regs.read(REG_COMMIT) & 1
    assert port.active_table.entries[0] == (0, 90)
    assert port.regs.read(REG_TQCR_BASE) == 90
    assert port.regs.read(REG_SCR_BASE) == (SCR_ENABLE | 0)


def test_commit_rejects_oversubscribed_window():
    net, port = two_node_net()
    port.regs.write(REG_WINDOW_US, 100)
    port.regs.write(REG_NUM_ENTRIES, 2)
    port.regs.write(REG_SCR_BASE, SCR_ENABLE | 0)
    port.regs.write(REG_TQCR_BASE, 90)
    port.regs.write(REG_SCR_BASE + 8, SCR_ENABLE | 1)
    port.regs.write(REG_TQCR_BASE + 8, 30)
    port.regs.write(REG_COMMIT, 1)
    assert not port.regs.read(REG_COMMIT) & 1
    assert port.active_table.entries == ()  # active untouched


def test_shadow_reads_show_staged_values():
    net, port = two_node_net()
    port.regs.write(REG_WINDOW_US, 200)
    assert port.regs.read(REG_WINDOW_US) == 100           # active default
    assert port.regs.read(SHADOW_OFFSET + REG_WINDOW_US) == 200


def test_shadow_holds_the_committed_table_after_a_shorter_schedule():
    net, port = two_node_net()
    program(net, [(0, 30), (1, 20), (2, 10)])
    program(net, [(3, 40)])
    committed = port.committed_table.registers()
    assert {off: port.regs.read(SHADOW_OFFSET + off) for off in committed} == committed


def test_unknown_offset_is_a_register_error():
    net, port = two_node_net()
    with pytest.raises(RegisterError):
        port.regs.write(0x0FC, 1)
    with pytest.raises(RegisterError):
        port.regs.read(0x0FC)


def test_commit_applies_at_window_boundary():
    net, port = two_node_net()
    program(net, [(0, 90)], window_us=100)
    assert port.active_table.entries[0] == (0, 90)
    net.sim.run_until(30_000)
    program(net, [(1, 50)], window_us=100)
    assert port.committed_table.entries[0] == (1, 50)
    net.sim.run_until(99_999)
    assert port.active_table.entries[0] == (0, 90)   # still the old table
    net.sim.run_until(100_001)
    assert port.active_table.entries[0] == (1, 50)


# -- scheduler behavior ------------------------------------------------------


def test_transmit_at_slot_start_occupies_serialization_time():
    net, port = two_node_net()
    program(net, [(0, 90)])
    port.enqueue(0, make_frame(net))
    net.sim.run_until(5_000)
    rec = port.trace[0]
    assert rec.local_start == 0
    assert rec.queue_idx == 0
    assert rec.ser_ns == 1218  # 1217.6 ns at 10 Gbps, whole-ns engine


def test_guardband_defers_start_to_next_slot():
    net, port = two_node_net()
    program(net, [(0, 90)], guardband_ns=1300)
    net.sim.at(89_000, lambda: port.enqueue(0, make_frame(net)))
    net.sim.run_until(150_000)
    # 89 000 is past 90 000 - 1 300, so the frame waits for the next window
    assert port.trace[0].local_start == 100_000


def test_stall_on_empty_keeps_other_queues_out_of_the_slot():
    net, port = two_node_net()
    program(net, [(0, 90)])
    net.sim.at(5_000, lambda: port.enqueue(1, make_frame(net)))
    net.sim.run_until(150_000)
    assert port.trace[0].local_start == 90_000  # filler start, not the slot


def test_arrival_mid_slot_transmits_within_own_slot():
    net, port = two_node_net()
    program(net, [(0, 90)])
    net.sim.at(40_000, lambda: port.enqueue(0, make_frame(net)))
    net.sim.run_until(60_000)
    assert port.trace[0].local_start == 40_000


def test_filler_round_robin_alternates_per_frame():
    net, port = two_node_net()
    program(net, [(0, 90)])
    for _ in range(2):
        port.enqueue(3, make_frame(net))
        port.enqueue(4, make_frame(net))
    net.sim.run_until(100_000)
    assert [r.queue_idx for r in port.trace] == [3, 4, 3, 4]
    assert port.trace[0].local_start == 90_000


def test_management_queue_is_served_only_in_leftover_time():
    net, port = two_node_net()
    program(net, [(0, 90)], guardband_ns=1300)
    for _ in range(100):
        port.enqueue(0, make_frame(net))
    for t in (0, 10_000, 120_000):
        net.sim.at(t, lambda: port.enqueue(NicPort.MGMT_IDX, make_frame(net, payload_len=64)))
    net.sim.run_until(300_000)
    assert (port.mgmt_queue.enqueued, port.mgmt_queue.dequeued) == (3, 3)
    assert sum(q.enqueued for q in port.queues) == 100
    mgmt = [r for r in port.trace if r.queue_idx == NicPort.MGMT_IDX]
    # the frames enqueued at 0 and 10 us wait for the leftover time of window
    # 0, the one enqueued at 120 us for that of window 1
    assert [r.local_start // 100_000 for r in mgmt] == [0, 0, 1]
    assert (mgmt[0].local_start, mgmt[2].local_start) == (90_000, 190_000)
    for rec in mgmt:
        assert 90_000 <= rec.local_start % 100_000 <= 100_000 - 1300


def test_table_swap_moves_queues_between_slot_and_leftover():
    net, port = two_node_net()
    program(net, [(0, 90)])
    net.sim.at(10_000, lambda: port.enqueue(0, make_frame(net)))
    net.sim.at(40_000, lambda: port.enqueue(1, make_frame(net)))
    net.sim.run_until(50_000)
    program(net, [(1, 90)])  # takes effect at the 100 us window boundary
    net.sim.at(150_000, lambda: port.enqueue(0, make_frame(net)))
    for _ in range(10):
        net.sim.at(185_000, lambda: port.enqueue(1, make_frame(net)))
    net.sim.run_until(300_000)
    starts = [(r.queue_idx, r.local_start) for r in port.trace]
    # first table: queue 0 in its slot, queue 1 in leftover time
    assert starts[:2] == [(0, 10_000), (1, 90_000)]
    # second table: queue 0 moved to leftover time, queue 1 only in its slot
    assert (0, 190_000) in starts
    for qidx, start in starts[2:]:
        phase = start % 100_000
        assert (phase >= 90_000) if qidx == 0 else (phase + 1218 <= 90_000)
    assert len(starts) == 13


def test_per_queue_fifo_order():
    net, port = two_node_net()
    sizes = [100, 700, 300, 1500, 46]
    for size in sizes:
        port.enqueue(0, make_frame(net, payload_len=size))
    net.sim.run_until(100_000)
    assert [r.wire_bytes for r in port.trace] == [s + 22 for s in sizes]


def test_no_frame_crosses_its_slot_end():
    net, port = two_node_net()
    program(net, [(0, 30), (1, 45)], window_us=100, guardband_ns=1218)
    for _ in range(60):
        port.enqueue(0, make_frame(net, payload_len=1500))
        port.enqueue(1, make_frame(net, payload_len=700))
    net.sim.run_until(400_000)
    bounds = {0: (0, 30_000), 1: (30_000, 75_000)}
    for rec in port.trace:
        phase = rec.local_start % 100_000
        end = phase + rec.ser_ns
        if rec.queue_idx in bounds:
            lo, hi = bounds[rec.queue_idx]
            assert lo <= phase and end <= hi, rec
        else:
            assert end <= 100_000 - 1218


def test_work_accounting_per_window():
    net, port = two_node_net()
    program(net, [(0, 90)])
    for _ in range(1000):
        port.enqueue(0, make_frame(net))
    windows = 10
    net.sim.run_until(windows * 100_000)
    busy = [0] * windows
    for rec in port.trace:
        if rec.true_start < windows * 100_000:
            busy[rec.true_start // 100_000] += rec.ser_ns
    guard = 1218
    max_frame = 1218
    for total in busy:
        assert 90_000 - guard - max_frame <= total <= 90_000


def test_queue_overflow_tail_drops():
    net, port = two_node_net(queue_depth=4)
    for _ in range(7):
        port.enqueue(0, make_frame(net))
    q = port.queues[0]
    # one frame went straight to the wire; four queued; the rest tail-dropped
    assert q.dequeued == 1
    assert len(q.frames) == 4
    assert q.drops == 2
    assert net.drops_by_cause["queue_overflow"] == 2


def test_default_schedule_is_plain_round_robin():
    net, port = two_node_net()
    for _ in range(3):
        port.enqueue(0, make_frame(net))
        port.enqueue(5, make_frame(net))
    net.sim.run_until(50_000)
    assert [r.queue_idx for r in port.trace] == [0, 5, 0, 5, 0, 5]
    starts = [r.true_start for r in port.trace]
    assert all(b - a == 1218 for a, b in zip(starts, starts[1:]))


def test_token_bucket_arithmetic():
    bucket = TokenBucket(1_000_000_000, 12_176)
    assert bucket.ready_time(12_176, 0) == 0
    bucket.tokens -= 12_176  # the port's debit after a ready_time at the same instant
    # refill at 1 Gbps: 12 176 bits need 12 176 ns
    assert bucket.ready_time(12_176, 0) == 12_176
    assert bucket.ready_time(12_176, 5_000) == 12_176


class _DivmodBucket:
    """``TokenBucket.ready_time`` as it was: every refill goes through divmod,
    a full bucket's included."""

    def __init__(self, rate_bps, capacity_bits):
        self.rate_bps, self.capacity = rate_bps, capacity_bits
        self.tokens, self._last, self._rem = capacity_bits, 0, 0

    def ready_time(self, bits, now):
        if now > self._last:
            gained, self._rem = divmod((now - self._last) * self.rate_bps + self._rem,
                                       1_000_000_000)
            self.tokens += gained
            if self.tokens >= self.capacity:
                self.tokens = self.capacity
                self._rem = 0
            self._last = now
        if self.tokens >= bits:
            return now
        deficit_units = (bits - self.tokens) * 1_000_000_000 - self._rem
        return now + -(-deficit_units // self.rate_bps)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4 * 10**10), st.integers(1, 20_000),
       st.lists(st.tuples(st.integers(0, 50_000), st.booleans(), st.integers(1, 20_000)),
                min_size=1, max_size=60))
def test_a_full_bucket_carries_no_remainder(rate_bps, capacity, steps):
    # each step calls ready_time, at a later instant or at the one it last
    # returned, and debits the frame when it is allowed now, as the port does
    bucket, reference = TokenBucket(rate_bps, capacity), _DivmodBucket(rate_bps, capacity)
    now = ready = 0
    for dt, to_ready, bits in steps:
        now = max(now, ready) if to_ready else now + dt
        bits = min(bits, capacity)
        ready = bucket.ready_time(bits, now)
        assert ready == reference.ready_time(bits, now)
        if ready == now:
            bucket.tokens -= bits
            reference.tokens -= bits
        state = (bucket.tokens, bucket._rem, bucket._last)
        assert state == (reference.tokens, reference._rem, reference._last)
        assert bucket.tokens != capacity or bucket._rem == 0


def test_host_cap_paces_local_frames():
    net, port = two_node_net(cap_bps=1_000_000_000)
    for _ in range(900):
        port.enqueue(0, make_frame(net))
    net.sim.run_until(10_000_000)
    expected = 10_000_000 / 12_176  # one max frame per 12 176 ns at 1 Gbps
    assert abs(len(port.trace) - expected) <= 2


def test_transit_frames_bypass_the_host_cap():
    net, port = two_node_net(cap_bps=1_000_000_000)
    for _ in range(10):
        frame = make_frame(net)
        frame.local_origin = False
        port.enqueue(0, frame)
    net.sim.run_until(1_000_000)
    starts = [r.true_start for r in port.trace]
    assert len(starts) == 10
    assert all(b - a == 1218 for a, b in zip(starts, starts[1:]))


@pytest.mark.xfail(strict=True, reason="Frame.local_origin is never cleared on forwarding, "
                   "so every transit node charges a runtime frame to its own host budget")
def test_runtime_frames_in_transit_leave_the_host_budget_alone():
    # README "Model notes": transit frames bypass the host injection budget
    net = Network(parse_scenario({"grid": {"preset": "tile_plus_two"},
                                  "ptp": {"enabled": False, "drift_ppm": 0}}))
    src, dst = NodeId(0, 0, 1, 1), NodeId(0, 2, 0, 0)
    net.nodes[src].runtime.send_msg(bytes(100), encode_id(dst))
    net.sim.run_until(1_000_000)
    assert net.nodes[dst].counters.delivered_local == 1
    transit = [node for node in net.nodes.values() if node.counters.forwarded]
    assert [node.node_id for node in transit] == [NodeId(0, 1, 0, 0), NodeId(0, 1, 0, 1),
                                                  NodeId(0, 1, 1, 1)]
    for node in transit:
        assert node.bucket.tokens == node.bucket.capacity, node.node_id


def test_guardband_default_is_max_frame_time():
    assert default_guardband_ns(10_000_000_000) == 1218
    assert default_guardband_ns(2_250_000_000) == 5412


# -- idle-port exit --------------------------------------------------------------


def test_scheduled_port_with_empty_queues_still_wakes_at_the_slot_end():
    net, port = two_node_net()
    fired = []
    net.sim.trace_hook = lambda t, seq, label: fired.append((t, label))
    program(net, [(0, 90)])
    net.sim.run_until(100_000)
    assert not any(q.frames for q in (*port.queues, port.mgmt_queue))
    # the empty slot stalls the port until its end, then the leftover time
    # runs to the window end
    assert fired == [(90_000, "wake:0.0.0.0:intra_h"), (100_000, "wake:0.0.0.0:intra_h")]


def test_idle_round_robin_port_reads_no_clock_and_sets_no_wake(monkeypatch):
    net, port = two_node_net()
    reads = []
    read_ns = LocalClock.read_ns

    def counted(clock, true_now):
        reads.append(true_now)
        return read_ns(clock, true_now)
    monkeypatch.setattr(LocalClock, "read_ns", counted)
    fired = []
    net.sim.trace_hook = lambda t, seq, label: fired.append((t, label))
    port.enqueue(0, make_frame(net))  # starts at once; its txdone finds the port idle
    assert reads == [0]
    net.sim.run_until(10_000)
    assert fired == [(1_218, "txdone:0.0.0.0:intra_h"), (1_718, "arrive:0.0.0.1:intra_h")]
    port.kick()
    assert reads == [0]
    assert port._wake is None


def test_an_empty_table_in_place_of_a_schedule_cancels_the_schedule_wake():
    net, port = two_node_net()
    fired = []
    net.sim.trace_hook = lambda t, seq, label: fired.append((t, label))
    program(net, [(0, 30)])  # queue 0's empty slot arms a wake at its end, 30 us
    assert port._wake is not None
    program(net, [])  # at a window boundary, so plain round robin takes over at once
    net.sim.run_until(100_000)
    assert fired == []


# -- an idle port sends an arriving frame at once ---------------------------------


def test_round_robin_resumes_after_the_queue_of_a_direct_send():
    net, port = two_node_net()
    port.enqueue(2, make_frame(net))  # idle: on the wire at once
    assert port.busy_until > 0
    q2 = port.queues[0]
    assert (q2.index, q2.enqueued, q2.dequeued, len(q2.frames)) == (2, 1, 1, 0)
    for idx in (0, 1, 3):  # while queue 2's frame is on the wire
        port.enqueue(idx, make_frame(net))
    net.sim.run_until(50_000)
    assert [rec.queue_idx for rec in port.trace] == [2, 3, 0, 1]


def test_an_idle_port_without_host_budget_queues_the_frame_and_wakes_when_it_refills():
    net, port = two_node_net(cap_bps=1_000_000_000)
    port.bucket.tokens = 0
    frame = make_frame(net)
    ready = port.bucket.ready_time(frame.wire_bytes * 8, 0)
    assert ready > 0
    port.enqueue(0, frame)
    assert list(port.queues[0].frames) == [frame]
    assert port._wake is not None and port._wake.fire_at == ready
    net.sim.run_until(ready + 10_000)
    assert [rec.true_start for rec in port.trace] == [ready]


def test_of_two_frames_in_one_nanosecond_the_second_starts_at_the_first_txdone():
    net, port = two_node_net()
    net.sim.at(5_000, lambda: (port.enqueue(0, make_frame(net)),
                               port.enqueue(0, make_frame(net, payload_len=200))))
    net.sim.run_until(50_000)
    first, second = port.trace
    assert first.true_start == 5_000
    assert second.true_start == 5_000 + first.ser_ns
    assert net.nodes[B].counters.rx_frames == 2


NUM_SCRIPT_QUEUES = 8


class _QueueThenKick(NicPort):
    """A port without the idle-port direct send: ``enqueue`` always queues
    the frame, and an idle port then decides in ``kick``."""

    def enqueue(self, idx, frame):
        pos = self.num_tx_queues if idx == NicPort.MGMT_IDX else idx
        q = self._queues.get(pos)
        if q is None:
            q = self._queues[pos] = TxQueue(idx, pos)
        if len(q.frames) >= self.queue_depth:
            q.drops += 1
            self.network.count_drop(frame, "queue_overflow")
            return False
        q.frames.append(frame)
        q.enqueued += 1
        self._rr_mask |= 1 << pos
        if self.busy_until <= self.sim.now:
            self.kick()
        return True


def _scripted_run(script, cap_bps, queue_depth, schedule_at, outage, queue_then_kick):
    """Replay ``script``'s arrivals on A's port toward B, commit a schedule at
    ``schedule_at`` and take the link down over ``outage`` (each when not
    None), and return everything the run shows."""
    scenario = parse_scenario({
        "grid": {"G_r": 1, "G_c": 1, "populated": [str(A), str(B)]},
        "host": {"injection_cap_bps": cap_bps}, "ptp": {"enabled": False},
        "nic": {"num_tx_queues": NUM_SCRIPT_QUEUES, "queue_depth": queue_depth},
        "trace": True})
    net = Network(scenario)
    events = []
    net.sim.trace_hook = lambda fire_at, seq, label: events.append((fire_at, seq, label))
    if queue_then_kick:
        for node in net.nodes.values():
            for p in node.ports.values():
                p.__class__ = _QueueThenKick
    src = net.nodes[A]
    port = src.ports[PortKind.INTRA_H]
    for k, (at, idx, size, host_fed) in enumerate(script):
        header = FragmentHeader(k, 0, 1, size, encode_id(A), encode_id(B)).pack()
        frame = net.build_runtime_frame(src, B, header + bytes(size), pcp=0)
        frame.local_origin = host_fed
        net.sim.at(at, partial(port.enqueue, idx, frame), label="script")
    if schedule_at is not None:
        cfg = ScheduleConfig(PortKind.INTRA_H, 10, ((1, 4), (NUM_SCRIPT_QUEUES - 1, 3)), None)
        net.sim.at(schedule_at, partial(src.runtime.set_conf, cfg), label="script")
    if outage is not None:
        down, up = outage
        net.schedule_link_state(port.link, False, down)
        net.schedule_link_state(port.link, True, up)
    net.sim.run_until(2_000_000)
    traces = {(str(n.node_id), kind.value): p.trace
              for n in net.nodes.values() for kind, p in n.ports.items()}
    queues = [(q.index, q.enqueued, q.dequeued, q.drops, len(q.frames))
              for n in net.nodes.values() for p in n.ports.values()
              for q in (*p.queues, p.mgmt_queue)]
    report = RunResult(scenario, net, [], {}, net.sim.events_processed).report()
    return events, traces, queues, report


_instant = st.integers(0, 40).map(lambda k: k * 1_000)  # arrivals often share one


@settings(derandomize=True, max_examples=150, deadline=None)
@given(script=st.lists(st.tuples(
           _instant,
           st.sampled_from([NicPort.MGMT_IDX, *range(NUM_SCRIPT_QUEUES)]),
           st.integers(1, MAX_CHUNK),  # message bytes
           st.sampled_from([True, True, False])),  # fed by the host: charged to its budget
       min_size=1, max_size=40),
       cap_bps=st.sampled_from([1_000_000_000, 4_000_000_000, None]),
       queue_depth=st.sampled_from([64, 2]),
       schedule_at=st.none() | _instant.map(lambda t: t + 500),
       outage=st.none() | st.tuples(_instant, _instant).map(
           lambda ts: (min(ts) + 250, max(ts) + 750)))
def test_an_idle_ports_direct_send_is_the_decision_kick_makes(script, cap_bps, queue_depth,
                                                              schedule_at, outage):
    args = (script, cap_bps, queue_depth, schedule_at, outage)
    assert _scripted_run(*args, queue_then_kick=False) == _scripted_run(*args, queue_then_kick=True)


# -- round robin over backlogged queues ------------------------------------------


def _rotated_scan(port, deadline_local, window_end_local, local, now):
    """Reference round robin: a scan of the active table's unscheduled TX
    queues in index order, then the management queue, rotated to start after
    the last-served queue, skipping empty queues and queues never created."""
    by_index = {q.index: q for q in (*port.queues, port.mgmt_queue)}
    scheduled = {idx for idx, _ in port.active_table.entries}
    candidates = [*(i for i in range(port.num_tx_queues) if i not in scheduled),
                  NicPort.MGMT_IDX]
    if port._rr_last:
        pos = port._rr_last.bit_length() - 1
        last = NicPort.MGMT_IDX if pos == port.num_tx_queues else pos
        if last not in scheduled:
            i = candidates.index(last) + 1
            candidates = candidates[i:] + candidates[:i]
    token_wake = None
    for idx in candidates:
        q = by_index.get(idx)
        if q is None or not q.frames:
            continue
        head = q.frames[0]
        ser = serialization_ticks(head.wire_bytes, port.rate_bps)
        if deadline_local is not None and local + ser > deadline_local:
            continue
        ready = (port.bucket.ready_time(head.wire_bytes * 8, now)
                 if port.bucket is not None and head.local_origin else now)
        if ready > now:
            token_wake = ready if token_wake is None else min(token_wake, ready)
            continue
        return q
    if window_end_local is None:
        return token_wake
    window_end = port.clock.true_at_local(window_end_local, now)
    return window_end if token_wake is None else min(token_wake, window_end)


def _outcome(decision):
    return ("queue", decision.index) if isinstance(decision, TxQueue) else ("wake", decision)


def _backlog_mask(port):
    """Bit ``idx`` for each backlogged TX queue ``idx``, bit ``num_tx_queues``
    for a backlogged management queue."""
    return sum(1 << (port.num_tx_queues if q.index == NicPort.MGMT_IDX else q.index)
               for q in (*port.queues, port.mgmt_queue) if q.frames)


# no shrinking: each reference decision scans up to 65,536 queues, and a
# failing example is printed as drawn
@settings(derandomize=True, max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(num_tx_queues=st.sampled_from([8, 2048, 65536]),
       first=st.sampled_from([[], [(0, 30), (1, 20)]]),
       second=st.sampled_from([[], [(2, 40)], [(1, 10), (5, 50)]]),
       cap_bps=st.sampled_from([None, 1_000_000_000]),
       data=st.data())
def test_round_robin_matches_a_rotated_scan_of_the_leftover_queues(
        num_tx_queues, first, second, cap_bps, data):
    net, port = two_node_net(cap_bps=cap_bps, queue_depth=6, num_tx_queues=num_tx_queues)
    if first:
        program(net, first)
    ids = [NicPort.MGMT_IDX, *range(8)]
    if num_tx_queues > 8:
        ids += [700, num_tx_queues - 2, num_tx_queues - 1]
    step = st.tuples(st.integers(0, 3_000), st.lists(st.sampled_from(ids), max_size=4))
    steps = data.draw(st.lists(step, min_size=4, max_size=30))
    commit_step = data.draw(st.integers(0, len(steps) - 1))
    decide = port._rr_decide
    decisions = []

    def checked(*args):
        expected = _outcome(_rotated_scan(port, *args))
        got = decide(*args)
        assert _outcome(got) == expected
        decisions.append(expected)
        return got
    port._rr_decide = checked

    t = 0
    rng = random.Random(len(steps))
    for k, (gap, idxs) in enumerate(steps):
        for idx in idxs:
            port.enqueue(idx, make_frame(net, payload_len=rng.randint(46, 1500)))
        assert port._rr_mask == _backlog_mask(port)
        if k == commit_step:
            program(net, second)  # while queues are backlogged
        t += gap
        net.sim.run_until(t)
        assert port._rr_mask == _backlog_mask(port)
    net.sim.run_until(t + 10_000_000)
    assert not any(q.frames for q in (*port.queues, port.mgmt_queue))
    assert port._rr_mask == 0
    assert decisions or not port.trace
    assert len(port.trace) + net.drops_by_cause.get("queue_overflow", 0) == sum(
        len(idxs) for _, idxs in steps)


def test_round_robin_restarts_at_the_lowest_queue_when_the_last_served_is_scheduled():
    net, port = two_node_net()
    port.enqueue(3, make_frame(net))  # plain round robin serves queue 3 at once
    program(net, [(3, 10)])  # activates at once and schedules queue 3
    port.enqueue(5, make_frame(net))
    port.enqueue(1, make_frame(net))
    net.sim.run_until(50_000)
    # queue 3's empty slot stalls the port until 10 us; leftover time then
    # starts from the lowest backlogged queue, not from the one above 3
    assert [(rec.queue_idx, rec.true_start) for rec in port.trace] == [
        (3, 0), (1, 10_000), (5, 10_000 + port.trace[1].ser_ns)]


# -- queues created on first enqueue --------------------------------------------


def _build_grid(num_tx_queues):
    return Network(parse_scenario({"grid": {"G_r": 4, "G_c": 4}, "ptp": {"drift_ppm": 0},
                                   "nic": {"num_tx_queues": num_tx_queues}}))


def _traced_peak(num_tx_queues):
    tracemalloc.start()
    try:
        _build_grid(num_tx_queues)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_grid_at_65536_tx_queues_builds_like_one_at_8():
    # a TX queue exists from its first frame, so an idle port's memory does
    # not grow with the queue count
    start = time.perf_counter()
    net = _build_grid(65536)
    assert time.perf_counter() - start < 1.0
    ports = [p for node in net.nodes.values() for p in node.ports.values()]
    assert len(ports) == 192
    assert all(p.queues == [] for p in ports)
    assert _traced_peak(65536) <= 1.1 * _traced_peak(8)


# -- forwarding glue -----------------------------------------------------------


def test_forward_keeps_destination_mac():
    net = quiet_net((3, 3))
    src = net.nodes[NodeId(1, 2, 0, 0)]
    # another tile, several hops away: the first hop's peer is not the destination
    dst = NodeId(0, 0, 1, 1)
    frame = net.build_runtime_frame(src, dst, bytes(64), pcp=0)
    src._forward(frame, None)
    assert frame.final_dst == dst
    assert frame.covered_bytes()[:6] == mac_of(abs_coords(dst)) == mac_of(GridCoord(1, 1))
    assert frame.hops == 1


@pytest.mark.parametrize("at", ["origin", "transit"])
def test_forward_without_live_egress_drops_no_route(at):
    # 0.0.0.0 -> 0.0.1.1 goes out intra_h to 0.0.0.1, then intra_v.  At the
    # origin every egress is down; at the transit node every egress but the
    # ingress (intra_h) is.
    net = quiet_net()
    src, transit, dst = NodeId(0, 0, 0, 0), NodeId(0, 0, 0, 1), NodeId(0, 0, 1, 1)
    dropper = src if at == "origin" else transit
    for kind, link in net.topology.ports[dropper].items():
        if link is not None and not (at == "transit" and kind == PortKind.INTRA_H):
            link.set_state(False, 0)
    net.nodes[src].send_frame(net.build_runtime_frame(net.nodes[src], dst, bytes(64), pcp=0))
    net.sim.run_until(1_000_000)
    assert net.nodes[dropper].counters.drops == {"no_route": 1}
    assert net.drops_by_cause == {"no_route": 1}
    assert net.nodes[dropper].counters.rx_frames == (at == "transit")
    assert all(node.counters.forwarded == 0 for node in net.nodes.values())
    assert net.nodes[dst].counters.rx_frames == 0


def test_ttl_expiry_drops_at_next_forwarder():
    net = quiet_net()
    src = net.nodes[NodeId(0, 0, 0, 0)]
    dst = NodeId(0, 0, 1, 1)  # two hops away inside the tile
    frame = net.build_runtime_frame(src, dst, bytes(64), pcp=0)
    frame.hops = DEFAULT_TTL - 1  # one link left
    src.send_frame(frame)
    net.sim.run_until(1_000_000)
    assert net.drops_by_cause.get("ttl_expired") == 1
    assert net.nodes[dst].counters.delivered_local == 0


def test_corrupted_frame_dropped_with_counter():
    net = quiet_net()
    dst = net.nodes[NodeId(0, 0, 0, 1)]
    frame = net.build_runtime_frame(net.nodes[NodeId(0, 0, 0, 0)],
                                    NodeId(0, 0, 0, 1), bytes(100), pcp=0)
    frame.stamp_fcs()
    corrupted = bytearray(frame.payload)
    corrupted[10] ^= 0x04
    frame.payload = bytes(corrupted)
    dst.handle_rx(frame, PortKind.INTRA_H)
    assert dst.counters.drops["crc"] == 1
    assert dst.counters.delivered_local == 0


def test_origin_stamped_fcs_survives_a_multi_hop_path():
    net = quiet_net((3, 3))
    src, dst = NodeId(1, 2, 0, 0), NodeId(0, 0, 1, 1)
    frame = net.build_runtime_frame(net.nodes[src], dst, bytes(100), pcp=0)
    frame.stamp_fcs()
    net.nodes[src].send_frame(frame)
    net.sim.run_until(1_000_000)
    assert frame.hops >= 3
    assert net.nodes[dst].counters.delivered_local == 1
    assert frame.fcs_ok()
    assert "crc" not in net.drops_by_cause


def test_transit_frame_keeps_pcp_and_uses_mapped_queue():
    net = quiet_net()
    src, dst = NodeId(0, 0, 0, 0), NodeId(0, 0, 1, 1)
    relay = NodeId(0, 0, 0, 1)
    relay_port = net.nodes[relay].ports[PortKind.INTRA_V]
    relay_port.trace = []
    net.nodes[src].runtime.send_msg(bytes(100), 0x00000101, pcp=2)
    net.sim.run_until(1_000_000)
    assert net.nodes[dst].counters.delivered_local == 1
    assert [r.queue_idx for r in relay_port.trace] == [2]


def test_delivery_arrives_after_serialization_plus_propagation():
    net, port = two_node_net()
    port.enqueue(0, make_frame(net))  # transmits immediately at t=0
    dst = net.nodes[B]
    net.sim.run_until(1_217)
    assert dst.counters.rx_frames == 0
    net.sim.run_until(1_218 + 500)    # serialization + propagation
    assert dst.counters.rx_frames == 1


def test_link_down_mid_serialization_drops_at_link():
    net, port = two_node_net()
    net.schedule_link_state(port.link, False, 600)
    port.enqueue(0, make_frame(net))  # occupies the wire over [0, 1218]
    net.sim.run_until(10_000)
    assert port.link.drops == 1
    assert net.nodes[B].counters.rx_frames == 0
    assert net.drops_by_cause["link_down"] == 1


def test_frames_in_flight_when_the_link_fails_drop_and_later_ones_arrive_in_order():
    net, port = two_node_net()
    dst = net.nodes[B]
    arrivals = []
    handle_rx = dst.handle_rx
    dst.handle_rx = lambda frame, kind: (arrivals.append((net.sim.now, frame)),
                                         handle_rx(frame, kind))
    for _ in range(5):  # 68-byte frames, 55 ns each: all sent by 275 ns
        port.enqueue(0, make_frame(net, payload_len=46))
    net.schedule_link_state(port.link, False, 300)  # all five still in flight
    net.schedule_link_state(port.link, True, 1_000)
    sizes = [100, 700, 300, 1500, 46]
    later = [make_frame(net, payload_len=size) for size in sizes]
    net.sim.at(2_000, lambda: [port.enqueue(0, frame) for frame in later])
    net.sim.run_until(100_000)
    assert port.link.drops == net.drops_by_cause["link_down"] == 5
    assert [frame for _, frame in arrivals] == later
    starts = [rec.true_start for rec in port.trace[5:]]
    assert [t for t, _ in arrivals] == [start + rec.ser_ns + 500
                                       for start, rec in zip(starts, port.trace[5:])]
    assert not port.in_flight


@pytest.mark.parametrize("entries", [[], [(0, 90)]], ids=["round_robin", "scheduled"])
def test_carrier_loss_drops_the_queued_frames(entries):
    net, port = two_node_net(cap_bps=1_000_000_000)
    program(net, entries)
    net.sim.at(2_000, lambda: [port.enqueue(0, make_frame(net)) for _ in range(3)])
    net.schedule_link_state(port.link, False, 2_500)
    net.schedule_link_state(port.link, True, 40_000)
    net.sim.at(50_000, lambda: port.enqueue(0, make_frame(net)))
    net.sim.run_until(45_000)
    # the frame on the wire is lost on arrival, the two queued ones at the
    # port without starting onto the dead link
    assert [rec.true_start for rec in port.trace] == [2_000]
    assert port.link.drops == net.drops_by_cause["link_down"] == 3
    assert not any(q.frames for q in port.queues)
    net.sim.run_until(200_000)
    assert [rec.true_start for rec in port.trace] == [2_000, 50_000]
    assert net.nodes[B].counters.rx_frames == 1


@pytest.mark.parametrize("flaps, delivered", [
    ([(3_000, False), (9_000, True), (20_000, False), (21_500, True)], 10),
    # a redundant up, a redundant down, and a down and an up at the same instant
    ([(3_000, False), (9_000, True), (12_500, True), (20_000, False), (20_800, False),
      (21_500, True), (25_000, False), (25_000, True)], 9),
], ids=["flaps", "redundant_and_same_instant"])
def test_flapping_link_matches_interval_overlap_oracle(flaps, delivered):
    net, port = two_node_net()
    ser, prop = 1218, 500
    for at, up in flaps:
        net.schedule_link_state(port.link, up, at)
    sends = list(range(0, 30_000, 2_000))
    for at in sends:
        net.sim.at(at, lambda: port.enqueue(0, make_frame(net)))
    net.sim.run_until(60_000)

    def up_over(start, end):
        last = True
        for at, up in flaps:
            if at <= start:
                last = up
            elif at <= end and not up:
                return False
        return last

    expected = sum(1 for t in sends if up_over(t, t + ser + prop))
    assert expected == delivered
    assert net.nodes[B].counters.rx_frames == expected
    assert port.link.drops == len(sends) - expected
