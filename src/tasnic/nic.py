"""Per-port NIC egress: multi-queue TX with a time-aware slot scheduler.

Each data port owns its TX queues, a register file and an independent
scheduler.  The active schedule divides a repeating window (local-clock
time, microsecond-granular slots) among queues; inside a slot only that
queue may transmit, a guardband keeps frames from starting too close to
the slot end, and an empty scheduled queue stalls the port for its whole
slot.  Window time left over after the programmed slots is served to the
remaining queues round-robin, one frame at a time.  A schedule with no
entries degenerates to plain round-robin over all queues with no window
bookkeeping at all.

Schedule updates are staged in shadow registers and applied atomically at
the next window boundary after a successful commit.  This module alone
knows the register layout: ``schedule_registers`` turns a schedule's
``(queue_idx, slot_us)`` entries into a register image, and
``RegisterFile._commit`` reads them back out of the shadow.

The management queue (sync-protocol frames) is ``NicPort.MGMT_IDX`` (-1):
it sits after the TX queues in one index space and is served only in
leftover window time, after the unscheduled TX queues.  Each egress
decision has one result: the queue to transmit from now, the true time at
which to decide again, or None to sleep until the next enqueue.

Locally-originated frames are additionally gated by the node's host
injection budget (a token bucket refilled at the configured rate), which
models the host side feeding the NIC; transit and sync-protocol frames
are not host-fed and bypass it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from .clock import LocalClock
from .engine import SimTime, Simulator
from .fabric import Link, NodeId, PortKind
from .frame import (
    ETHERTYPE_PTP,
    MAX_WIRE_BYTES,
    Frame,
    SerializationTicks,
    serialization_ticks,
)

if TYPE_CHECKING:  # pragma: no cover
    from .node import Network, Node

MAX_SCHEDULE_ENTRIES = 16
MAX_TX_QUEUES = 1 << 16  # an SCR register holds a queue index in bits [15:0]
MGMT_IDX = -1  # the management queue, last in NicPort's queue index space
DEFAULT_WINDOW_US = 100  # window of a scenario schedule that omits it, and of an idle port

REG_WINDOW_US = 0x000
REG_NUM_ENTRIES = 0x004
REG_GUARDBAND_NS = 0x008
REG_COMMIT = 0x00C
REG_SCR_BASE = 0x010   # + 8*j, bits [15:0] queue index, bit 31 enable
REG_TQCR_BASE = 0x014  # + 8*j, slot length in microseconds
SHADOW_OFFSET = 0x100
SCR_ENABLE = 1 << 31
REG_MAX = 0xFFFFFFFF  # every register is 32 bits wide


class RegisterError(Exception):
    """Access to an offset outside the register map."""


def default_guardband_ns(rate_bps: int) -> int:
    """One maximum-size frame's serialization time at the port rate."""
    return serialization_ticks(MAX_WIRE_BYTES, rate_bps)


def schedule_registers(window_us: int, entries: tuple[tuple[int, int], ...],
                       guardband_ns: int) -> dict[int, int]:
    """A schedule in the register layout of ``RegisterFile.shadow``: every
    register, with the SCR/TQCR pairs past ``entries`` zeroed."""
    regs = {REG_WINDOW_US: window_us, REG_NUM_ENTRIES: len(entries),
            REG_GUARDBAND_NS: guardband_ns}
    for j in range(MAX_SCHEDULE_ENTRIES):
        regs[REG_SCR_BASE + 8 * j] = regs[REG_TQCR_BASE + 8 * j] = 0
    for j, (queue_idx, slot_us) in enumerate(entries):
        regs[REG_SCR_BASE + 8 * j] = SCR_ENABLE | queue_idx
        regs[REG_TQCR_BASE + 8 * j] = slot_us
    return regs


class ScheduleTable:
    """A committed schedule, ``entries`` as ``(queue_idx, slot_us)`` pairs,
    plus derived ns-resolution slot ends and ``unscheduled``, which clears
    the scheduled queues' bits from a port's backlog mask to leave those
    served round-robin in leftover window time."""

    def __init__(self, window_us: int, entries: tuple[tuple[int, int], ...], guardband_ns: int):
        self.window_us = window_us
        self.entries = entries
        self.guardband_ns = guardband_ns
        self.window_ns = window_us * 1_000
        self.slots_ns: list[tuple[int, int]] = []  # (slot end in the window, queue)
        end = 0
        for queue_idx, slot_us in entries:
            end += slot_us * 1_000
            self.slots_ns.append((end, queue_idx))
        self.unscheduled = ~sum(1 << queue_idx for queue_idx, _ in entries)

    def registers(self) -> dict[int, int]:
        return schedule_registers(self.window_us, self.entries, self.guardband_ns)


def validate_schedule(window_us: int, entries: tuple[tuple[int, int], ...],
                      guardband_ns: int, num_tx_queues: int) -> list[str]:
    errors: list[str] = []
    if window_us < 1:
        errors.append(f"window_us={window_us} must be >= 1")
    if guardband_ns < 0:
        errors.append(f"guardband_ns={guardband_ns} must be >= 0")
    for name, value in (("window_us", window_us), ("guardband_ns", guardband_ns)):
        if value > REG_MAX:
            errors.append(f"{name}={value} does not fit a 32-bit register")
    if len(entries) > MAX_SCHEDULE_ENTRIES:
        errors.append(f"{len(entries)} entries exceed the maximum of {MAX_SCHEDULE_ENTRIES}")
    seen: set[int] = set()
    total = 0
    for j, (queue_idx, slot_us) in enumerate(entries):
        if slot_us < 1:
            errors.append(f"entry {j}: slot_us={slot_us} below the microsecond granularity")
        elif slot_us > REG_MAX:
            errors.append(f"entry {j}: slot_us={slot_us} does not fit a 32-bit register")
        if not 0 <= queue_idx < num_tx_queues:
            errors.append(f"entry {j}: queue {queue_idx} does not exist")
        elif queue_idx in seen:
            errors.append(f"entry {j}: queue {queue_idx} referenced twice")
        seen.add(queue_idx)
        total += slot_us
    if window_us >= 1 and total > window_us:
        errors.append(f"slots sum to {total} us, exceeding the {window_us} us window")
    return errors


class TxQueue:
    __slots__ = ("index", "pos", "frames", "enqueued", "dequeued", "drops")

    def __init__(self, index: int, pos: int):
        self.index = index
        self.pos = pos  # bit position in the port's backlog mask
        self.frames: deque[Frame] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.drops = 0


class TokenBucket:
    """Integer-exact token bucket (bits at rate_bps, remainder carried).

    The port debits ``tokens`` itself when it sends a frame, always after a
    ``ready_time`` at the same instant, which has refilled the bucket to it.
    """

    def __init__(self, rate_bps: int, capacity_bits: int):
        self.rate_bps = rate_bps
        self.capacity = capacity_bits
        self.tokens = capacity_bits
        self._last = 0
        self._rem = 0

    def ready_time(self, bits: int, now: SimTime) -> SimTime:
        """Earliest instant at which ``bits`` tokens are available; refills up to ``now``."""
        if now > self._last:
            if self.tokens < self.capacity:  # a full bucket carries no remainder
                units = (now - self._last) * self.rate_bps + self._rem
                self.tokens += units // 1_000_000_000
                if self.tokens >= self.capacity:
                    self.tokens = self.capacity
                    self._rem = 0
                else:
                    self._rem = units % 1_000_000_000
            self._last = now
        if self.tokens >= bits:
            return now
        deficit_units = (bits - self.tokens) * 1_000_000_000 - self._rem
        dt = -(-deficit_units // self.rate_bps)
        return now + dt


class TxRecord(NamedTuple):
    true_start: SimTime
    local_start: int
    queue_idx: int
    wire_bytes: int
    ser_ns: int
    flow_id: int | None


class RegisterFile:
    """Shadow-staged 32-bit registers; COMMIT validates and arms the swap."""

    def __init__(self, port: "NicPort"):
        self._port = port
        self.shadow = port.committed_table.registers()
        self.last_commit_errors: list[str] = []

    def write(self, offset: int, value: int) -> None:
        value &= REG_MAX
        if offset == REG_COMMIT:
            if value & 1:
                self._commit()
            return
        if offset not in self.shadow:
            raise RegisterError(f"write to unknown register offset {offset:#x}")
        self.shadow[offset] = value

    def read(self, offset: int) -> int:
        if offset == REG_COMMIT:
            return 0 if self.last_commit_errors else 1
        if offset >= SHADOW_OFFSET:
            regs, base = self.shadow, offset - SHADOW_OFFSET
        else:
            regs, base = self._port.committed_table.registers(), offset
        if base not in regs:
            raise RegisterError(f"read from unknown register offset {offset:#x}")
        return regs[base]

    def _commit(self) -> None:
        num = self.shadow[REG_NUM_ENTRIES]
        errors: list[str] = []
        if num > MAX_SCHEDULE_ENTRIES:
            errors.append(f"NUM_ENTRIES={num} exceeds {MAX_SCHEDULE_ENTRIES}")
            num = 0
        entries = []
        for j in range(num):
            scr = self.shadow[REG_SCR_BASE + 8 * j]
            if not scr & SCR_ENABLE:
                continue
            entries.append((scr & 0xFFFF, self.shadow[REG_TQCR_BASE + 8 * j]))
        entries = tuple(entries)
        window = self.shadow[REG_WINDOW_US]
        guard = self.shadow[REG_GUARDBAND_NS]
        errors += validate_schedule(window, entries, guard, self._port.num_tx_queues)
        self.last_commit_errors = errors
        if not errors:
            self._port.arm_table(ScheduleTable(window, entries, guard))


class NicPort:
    """Egress state machine for one data port.

    ``_queues`` holds the queues by bit position: the index of a TX queue,
    created by its first enqueue, and ``num_tx_queues`` for the management
    queue, created with the port.
    """

    MGMT_IDX = MGMT_IDX

    def __init__(self, network: "Network", node_id: NodeId, kind: PortKind,
                 link: Link, clock: LocalClock, sim: Simulator,
                 num_tx_queues: int, queue_depth: int, bucket: TokenBucket | None):
        self.network = network
        self.node_id = node_id
        self.kind = kind
        self.link = link
        self.prop_delay_ns = link.prop_delay_ns
        self.clock = clock
        self.sim = sim
        self.num_tx_queues = num_tx_queues
        self.rate_bps = link.rate_bps
        self.ser_ns = SerializationTicks(self.rate_bps)
        self.bucket = bucket
        self.queue_depth = queue_depth
        self.mgmt_queue = TxQueue(MGMT_IDX, num_tx_queues)
        self._queues = {num_tx_queues: self.mgmt_queue}  # by bit position
        self.active_table = ScheduleTable(DEFAULT_WINDOW_US, (),
                                          default_guardband_ns(self.rate_bps))
        self.committed_table = self.active_table
        self.regs = RegisterFile(self)
        self._pending: ScheduleTable | None = None
        self._pending_at_local = 0
        self.busy_until: SimTime = 0
        self._wake = None
        self._rr_last = 0  # the bit of the queue last served round-robin, 0 before any
        self._rr_mask = 0  # the bits of the backlogged queues
        self.trace: list[TxRecord] | None = None
        self.tx_frames = 0
        self._txdone_label = f"txdone:{node_id}:{kind.value}"
        self._wake_label = f"wake:{node_id}:{kind.value}"
        self._commit_label = f"commit:{node_id}:{kind.value}"
        # bound once: each transmission schedules a kick and an arrival
        self._kick = self.kick
        self.arrive_action = self.arrive
        # the link's far end, set by attach_peer once every node exists
        self.peer: Node | None = None
        self.peer_kind: PortKind | None = None
        self.arrive_label = ""
        # (frame, tx_start) of each frame on the wire or in propagation, oldest
        # first: the link delivers in transmission order
        self.in_flight: deque[tuple[Frame, SimTime]] = deque()

    def attach_peer(self, peer: Node, peer_kind: PortKind) -> None:
        """Record the node and port at the far end of the link."""
        self.peer, self.peer_kind = peer, peer_kind
        self.arrive_label = f"arrive:{peer.node_id}:{peer_kind.value}"

    # -- queue access -------------------------------------------------

    @property
    def queues(self) -> list[TxQueue]:
        """The TX queues created so far, in index order."""
        return [self._queues[i] for i in sorted(self._queues) if i != self.num_tx_queues]

    def enqueue(self, idx: int, frame: Frame) -> bool:
        """Admit a frame to queue ``idx`` (or MGMT_IDX); False when tail-dropped.

        An idle plain round-robin port with nothing backlogged sends the frame
        at once if the host budget allows it, the decision ``kick`` would make.
        """
        pos = self.num_tx_queues if idx == MGMT_IDX else idx
        try:
            q = self._queues[pos]
        except KeyError:
            q = self._queues[pos] = TxQueue(idx, pos)
        now = self.sim.now
        idle = self.busy_until <= now
        # with nothing backlogged no queue is full, so this comes before the
        # depth check
        if (idle and not self._rr_mask and not self.active_table.entries
                and (self.bucket is None or not frame.local_origin
                     or self.bucket.ready_time(frame.wire_bytes * 8, now) <= now)):
            q.enqueued += 1
            q.dequeued += 1
            self._rr_last = 1 << pos
            if self._wake is not None:
                self._wake.cancel()
                self._wake = None
            self._send(q, frame, now)
            return True
        if len(q.frames) >= self.queue_depth:
            q.drops += 1
            self.network.count_drop(frame, "queue_overflow")
            return False
        q.frames.append(frame)
        q.enqueued += 1
        self._rr_mask |= 1 << pos
        if idle:
            self.kick()
        return True

    # -- schedule management -------------------------------------------

    def arm_table(self, table: ScheduleTable) -> None:
        """Register a committed table; it activates at the window boundary,
        at once when no schedule is active, so a table is only pending while
        the active one has entries."""
        self.committed_table = table
        local = self.clock.read_ns(self.sim.now)
        w = self.active_table.window_ns
        effective = ((local + w - 1) // w) * w if self.active_table.entries else local
        if effective <= local:
            self.active_table, self._pending = table, None
            self.kick()
        else:
            self._pending, self._pending_at_local = table, effective
            when = self.clock.true_at_local(effective, self.sim.now)
            self.sim.at(when, self._kick, label=self._commit_label)

    # -- scheduler -----------------------------------------------------

    def kick(self) -> None:
        """Re-evaluate the egress decision unless mid-transmission."""
        now = self.sim.now
        if self.busy_until > now:
            return
        if not self.active_table.entries:
            # plain round robin, with no table pending (arm_table), decides on
            # queue state alone: no clock read
            nxt = self._rr_decide(None, None, None, now) if self._rr_mask else None
        else:
            local = self.clock.read_ns(now)
            if self._pending is not None and local >= self._pending_at_local:
                self.active_table, self._pending = self._pending, None
            nxt = self._decide(local, now)
        if nxt is not None and isinstance(nxt, int):
            self._set_wake(nxt)
            return
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        if nxt is not None:
            self._transmit(nxt, now)

    def _decide(self, local: int, now: SimTime) -> TxQueue | SimTime | None:
        """The queue to transmit from now, else the true wake time, else None."""
        table = self.active_table
        if not table.entries:
            return self._rr_decide(None, None, local, now)
        w = table.window_ns
        phase = local % w
        window_start = local - phase
        for end, qidx in table.slots_ns:
            if phase < end:
                q = self._queues.get(qidx)
                slot_end = window_start + end
                # stall on an empty slot, or idle when the head frame may not
                # start inside the guardband or would overrun the slot
                if (q is None or not q.frames or phase > end - table.guardband_ns
                        or phase + self.ser_ns[q.frames[0].wire_bytes] > end):
                    return self.clock.true_at_local(slot_end, now)
                head = q.frames[0]
                if self.bucket is not None and head.local_origin:  # the host budget
                    ready = self.bucket.ready_time(head.wire_bytes * 8, now)
                    if ready > now:
                        # the reading never falls as true time runs: tokens
                        # due before the slot end need no clock inversion
                        if self.clock.read_ns(ready) < slot_end:
                            return ready
                        return min(ready, self.clock.true_at_local(slot_end, now))
                return q
        window_end = window_start + w
        return self._rr_decide(window_end - table.guardband_ns, window_end, local, now)

    def _rr_decide(self, deadline_local: int | None, window_end_local: int | None,
                   local: int | None, now: SimTime) -> TxQueue | SimTime | None:
        """Round-robin over the table's unscheduled queues, one frame at a time.

        Visits the backlogged ones only: the set bits of the filtered mask
        above the last-served queue's bit (none when the table schedules
        that queue), then the rest from the lowest.
        """
        unscheduled = self.active_table.unscheduled
        mask = self._rr_mask & unscheduled
        after = mask & -((self._rr_last & unscheduled) << 1)
        bucket = self.bucket
        token_wake: SimTime | None = None
        for bits in (after, mask ^ after):
            while bits:
                low = bits & -bits
                bits ^= low
                q = self._queues[low.bit_length() - 1]
                head = q.frames[0]
                if (deadline_local is not None
                        and local + self.ser_ns[head.wire_bytes] > deadline_local):
                    continue
                if bucket is not None and head.local_origin:  # the host budget
                    ready = bucket.ready_time(head.wire_bytes * 8, now)
                    if ready > now:
                        if token_wake is None or ready < token_wake:
                            token_wake = ready
                        continue
                self._rr_last = low
                return q
        if window_end_local is None:
            return token_wake
        if token_wake is not None and self.clock.read_ns(token_wake) < window_end_local:
            return token_wake  # due before the window end: no inversion, as in _decide
        window_end = self.clock.true_at_local(window_end_local, now)
        return window_end if token_wake is None else min(token_wake, window_end)

    def _transmit(self, q: TxQueue, now: SimTime) -> None:
        """Start sending ``q``'s head frame."""
        frame = q.frames.popleft()
        q.dequeued += 1
        if not q.frames:
            self._rr_mask &= ~(1 << q.pos)
        self._send(q, frame, now)

    def _send(self, q: TxQueue, frame: Frame, now: SimTime) -> None:
        """Put ``frame``, taken from ``q``, on the wire from ``now``; the
        transmission step that ``_transmit`` and an idle port's ``enqueue`` share."""
        wire = frame.wire_bytes
        if self.bucket is not None and frame.local_origin:
            # the decision to send it called ready_time at ``now``, which
            # refilled the bucket to this instant: only the debit is left
            self.bucket.tokens -= wire * 8
        ser = self.ser_ns[wire]
        is_ptp = frame.ethertype == ETHERTYPE_PTP and self.network.ptp is not None
        if is_ptp or self.trace is not None:
            tx_local = self.clock.read_ns(now)
        if is_ptp:
            self.network.ptp.on_tx_start(self.node_id, frame, tx_local)  # one-step timestamp
        if self.trace is not None:
            self.trace.append(TxRecord(now, tx_local, q.index, wire, ser, frame.flow_id))
        self.tx_frames += 1
        self.busy_until = end = now + ser
        self.sim.at(end, self._kick, self._txdone_label)
        self.network.schedule_delivery(self, frame, now, end)
        if frame.hops == 1:  # a frame's flow hears of its first transmission only
            self.network.frame_dequeued(frame)

    def arrive(self) -> None:
        """Hand the oldest frame in flight to the link's far end, or count it a
        ``link_down`` drop when the link went down during its transmission."""
        frame, tx_start = self.in_flight.popleft()
        link = self.link
        if link.up_throughout(tx_start):
            self.peer.handle_rx(frame, self.peer_kind)
        else:
            link.drops += 1
            self.network.count_drop(frame, "link_down")

    def drop_queued(self) -> None:
        """Carrier loss: drop every queued frame as ``link_down``, as a Linux
        netdev resets its TX queue discipline; a frame dropped at its origin
        counts as leaving it, so a backlogged flow sends its next frame."""
        frames = [frame for pos in sorted(self._queues) for frame in self._queues[pos].frames]
        for q in self._queues.values():
            q.frames.clear()
        self._rr_mask = 0
        for frame in frames:
            self.link.drops += 1
            self.network.count_drop(frame, "link_down")
            if frame.hops == 1:
                self.network.frame_dequeued(frame)

    def _set_wake(self, when: SimTime) -> None:
        if self._wake is not None:
            self._wake.cancel()
        if when <= self.sim.now:
            when = self.sim.now + 1
        self._wake = self.sim.at(when, self._kick, label=self._wake_label)

