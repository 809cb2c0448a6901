"""Deterministic discrete-event engine.

All simulation time is integer nanoseconds of "true" (oracle) time.  Events
firing at the same instant are processed in insertion order, which makes any
run with a fixed seed bit-for-bit reproducible.  Per-component random streams
are derived from (seed, stream name) so that adding a component never
perturbs the draws seen by another.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Callable, NamedTuple

SimTime = int  # integer nanoseconds of true time

TICKS_PER_MS = 1_000_000
TICKS_PER_S = 1_000_000_000


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past (a logic bug)."""


class EventHandle(list):
    """A scheduled event, its own heap entry and its cancellation token.

    The entry is the list ``[fire_at, seq, action, label, simulator]``, with
    no simulator once it fired or was cancelled.  ``seq`` is unique, so the
    heap's list comparison never reaches the action.  Cancelling sets the
    action to None; the engine skips such an entry, and the cancelled
    entries leave the heap once they are more than half of it.
    """

    __slots__ = ()

    @property
    def fire_at(self) -> SimTime:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def label(self) -> str:
        return self[3]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        self[2] = None
        sim = self[4]
        if sim is not None:  # still queued, and live
            self[4] = None
            heap = sim._heap
            sim._cancelled += 1
            if sim._cancelled * 2 > len(heap):  # in place: run_until holds the list
                heap[:] = [entry for entry in heap if entry[2] is not None]
                heapq.heapify(heap)
                sim._cancelled = 0


class RunStats(NamedTuple):
    events_processed: int
    final_time: SimTime


class Simulator:
    """Single-threaded event queue with monotone integer-ns time.

    ``trace_hook``, when set, is called with ``(fire_at, seq, label)`` for
    every processed event; tests use it to hash whole event traces.
    """

    def __init__(self, trace_hook: Callable[[SimTime, int, str], None] | None = None):
        self.now: SimTime = 0
        self.events_processed = 0
        self.trace_hook = trace_hook
        self._heap: list[EventHandle] = []
        self._seq = 0
        self._cancelled = 0  # cancelled entries still in the heap

    def at(self, when: SimTime, action: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``action`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise SchedulingError(f"scheduling at t={when} in the past (now={self.now})")
        handle = EventHandle((when, self._seq, action, label, self))
        heapq.heappush(self._heap, handle)
        self._seq += 1
        return handle

    def step(self, limit: SimTime | None = None) -> bool:
        """Process the next live event if it fires at or before ``limit`` (any
        time when None); returns False, leaving it queued, when there is none."""
        heap = self._heap
        while heap and (limit is None or heap[0][0] <= limit):
            fire_at, seq, action, label, _ = entry = heapq.heappop(heap)
            if action is None:
                self._cancelled -= 1
                continue
            entry[4] = None
            self.now = fire_at
            self.events_processed += 1
            if self.trace_hook is not None:
                self.trace_hook(fire_at, seq, label)
            action()
            return True
        return False

    def run_until(self, t_end: SimTime) -> RunStats:
        """Process every event with fire_at <= t_end, then set now = t_end."""
        if t_end < self.now:
            raise SchedulingError(f"run_until({t_end}) is before now={self.now}")
        heap = self._heap
        pop = heapq.heappop
        hook = self.trace_hook
        fired = 0
        try:
            while heap and heap[0][0] <= t_end:
                fire_at, seq, action, label, _ = entry = pop(heap)
                if action is None:
                    self._cancelled -= 1
                    continue
                entry[4] = None  # fired: a later cancel leaves the count alone
                self.now = fire_at
                fired += 1
                if hook is not None:
                    hook(fire_at, seq, label)
                action()
        finally:  # an action that raises still counts, as in step
            self.events_processed += fired
        self.now = t_end
        return RunStats(fired, self.now)


def rng_stream(seed: int, *key: object) -> random.Random:
    """The deterministic random stream named ``key`` under the master ``seed``."""
    tag = f"{seed}/" + "/".join(str(k) for k in key)
    digest = hashlib.blake2b(tag.encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))
