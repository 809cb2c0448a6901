import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tasnic.engine import SchedulingError, Simulator, rng_stream


def test_schedule_at_current_time_fires_next_step():
    sim = Simulator()
    fired = []
    sim.at(0, lambda: fired.append("a"))
    assert sim.step()
    assert fired == ["a"]
    assert sim.now == 0


def test_equal_timestamps_process_in_insertion_order():
    sim = Simulator()
    fired = []
    sim.at(100, lambda: fired.append("A"))
    sim.at(100, lambda: fired.append("B"))
    sim.run_until(100)
    assert fired == ["A", "B"]


def test_scheduling_in_the_past_is_an_error():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run_until(100)
    with pytest.raises(SchedulingError):
        sim.at(50, lambda: None)


def test_run_until_empty_queue_advances_time():
    sim = Simulator()
    stats = sim.run_until(10**9)
    assert stats.events_processed == 0
    assert stats.final_time == 10**9
    assert sim.now == 10**9


def test_run_until_processes_only_due_events():
    sim = Simulator()
    fired = []
    for t in (10, 20, 30, 40):
        sim.at(t, lambda t=t: fired.append(t))
    stats = sim.run_until(30)
    assert stats.events_processed == 3
    assert fired == [10, 20, 30]
    assert sim.now == 30


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.at(sim.now + 10, lambda: chain(n + 1))

    sim.at(0, lambda: chain(0))
    sim.run_until(100)
    assert fired == [0, 1, 2, 3, 4, 5]


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    handle = sim.at(10, lambda: fired.append("x"))
    handle.cancel()
    sim.run_until(20)
    assert fired == []


def _trace_hash(seed):
    records = []
    sim = Simulator(trace_hook=lambda t, seq, label: records.append((t, seq, label)))
    rng = rng_stream(seed, "gen")

    def emit(n):
        if n > 0:
            sim.at(sim.now + rng.randrange(1, 100), lambda: emit(n - 1), label=f"e{n}")

    sim.at(0, lambda: emit(50), label="start")
    sim.run_until(10_000)
    return hashlib.sha256(repr(records).encode()).hexdigest()


def test_identical_seed_gives_identical_event_trace():
    assert _trace_hash(7) == _trace_hash(7)
    assert _trace_hash(7) != _trace_hash(8)


def test_rng_streams_are_stable_and_independent():
    draws_a1 = rng_stream(1, "a").random()
    draws_a2 = rng_stream(1, "a").random()
    draws_b = rng_stream(1, "b").random()
    assert draws_a1 == draws_a2
    assert draws_a1 != draws_b


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_processed_timestamps_are_monotone(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.at(t, lambda t=t: seen.append(sim.now))
    sim.run_until(10_000)
    assert seen == sorted(seen)
    assert len(seen) == len(times)


def test_event_handle_exposes_its_fields_and_cancels_in_place():
    sim = Simulator()
    fired = []
    first = sim.at(5, lambda: fired.append("first"), label="kind:first")
    second = sim.at(5, lambda: fired.append("second"), "kind:second")
    early = sim.at(3, lambda: fired.append("early"))
    assert (first.fire_at, first.seq, first.label, first.cancelled) == (5, 0, "kind:first", False)
    assert (second.seq, second.label, early.seq, early.label) == (1, "kind:second", 2, "")
    second.cancel()
    assert second.cancelled and not first.cancelled
    stats = sim.run_until(10)
    assert fired == ["early", "first"]
    assert stats.events_processed == 2


def test_step_skips_a_cancelled_head_and_keeps_fifo_order():
    sim = Simulator()
    fired = []
    handles = [sim.at(7, lambda i=i: fired.append(i), label=f"e{i}") for i in range(4)]
    handles[0].cancel()
    handles[2].cancel()
    assert not sim.step(limit=6)
    assert sim.step(limit=7) and sim.step()
    assert not sim.step()
    assert fired == [1, 3]
    assert sim.events_processed == 2


def test_step_with_a_limit_leaves_later_events_queued():
    sim = Simulator()
    fired = []
    sim.at(3, lambda: fired.append("cancelled")).cancel()
    for i in range(3):
        sim.at(5, lambda i=i: fired.append(i))
    sim.at(9, lambda: fired.append("late"))
    assert sim.step(limit=5)  # past the cancelled head at 3
    assert (fired, sim.now) == ([0], 5)
    assert sim.step(limit=5) and sim.step(limit=5)
    assert not sim.step(limit=8)  # the next live event fires at 9
    assert (fired, sim.now, sim.events_processed) == ([0, 1, 2], 5, 3)
    assert sim.run_until(20).events_processed == 1
    assert fired == [0, 1, 2, "late"]
    assert not sim.step(limit=20) and not sim.step()


def test_cancelling_a_fired_event_changes_nothing():
    sim = Simulator()
    fired = []
    handle = sim.at(1, lambda: fired.append("x"))
    sim.run_until(1)
    handle.cancel()
    assert handle.cancelled and fired == ["x"]
    assert sim.run_until(5).events_processed == 0


def test_run_until_counts_the_event_whose_action_raises():
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("boom")

    sim.at(1, lambda: fired.append(1))
    sim.at(4, boom)
    sim.at(7, lambda: fired.append(7))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_until(10)
    assert (sim.events_processed, sim.now, fired) == (2, 4, [1])
    assert sim.run_until(10).events_processed == 1
    assert (sim.events_processed, sim.now, fired) == (3, 10, [1, 7])


def test_cancelled_events_leave_the_heap():
    # a closed loop that arms a far deadline each step and cancels the last
    # one, as reassembly does for each multi-fragment message
    sim = Simulator()
    fired = []
    deadline = None

    def step(n):
        nonlocal deadline
        if deadline is not None:
            deadline.cancel()
        deadline = sim.at(sim.now + 10**9, lambda: fired.append(("deadline", n)))
        if n:
            sim.at(sim.now + 1, lambda: step(n - 1))

    sim.at(0, lambda: step(1_000))
    sim.run_until(2_000)
    assert len(sim._heap) <= 2
    sim.run_until(2 * 10**9)
    assert fired == [("deadline", 0)]


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50), st.booleans()),
                min_size=1, max_size=60),
       st.randoms(use_true_random=False))
def test_cancelling_keeps_the_pop_order_and_bounds_the_heap(events, rnd):
    records = []
    sim = Simulator(trace_hook=lambda t, seq, label: records.append((t, seq)))
    handles = [sim.at(t, lambda: None) for t, _ in events]
    doomed = [h for h, (_, cancel) in zip(handles, events) if cancel]
    rnd.shuffle(doomed)
    for n_cancelled, handle in enumerate(doomed, start=1):
        handle.cancel()
        # at most one cancelled entry per live one
        assert len(sim._heap) <= 2 * (len(handles) - n_cancelled)
    handles[0].cancel()  # again, or for the first time: counted once either way
    expected = sorted((h.fire_at, h.seq) for h in handles if not h.cancelled)
    sim.run_until(50)
    assert records == expected
    assert sim._heap == [] and sim._cancelled == 0
