import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnic.clock import LocalClock, apply_servo, ptp_offset_estimate

SECOND = 1_000_000_000


def test_zero_drift_advances_exactly():
    clock = LocalClock(drift_ppm=0.0, quantum_ns=8)
    assert clock.read_ns(SECOND) == SECOND


def test_positive_drift_definition_arithmetic():
    clock = LocalClock(drift_ppm=10.0, quantum_ns=8)
    assert clock.read_ns(SECOND) == 1_000_010_000


def test_drift_and_rate_adjustment_cancel():
    clock = LocalClock(drift_ppm=-10.0, quantum_ns=8)
    clock.set_rate_adj(10.0, 0)
    assert clock.read_ns(SECOND) == SECOND


def test_reads_are_quantized():
    clock = LocalClock(drift_ppm=0.0, quantum_ns=8)
    assert clock.read_ns(13) == 8
    assert clock.read_ns(16) == 16


@given(st.floats(min_value=-100, max_value=100),
       st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=20))
def test_local_time_strictly_increases(drift, deltas):
    clock = LocalClock(drift_ppm=drift, quantum_ns=1)
    t, prev = 0, clock.local_exact(0)
    for d in deltas:
        t += d
        cur = clock.local_exact(t)
        assert cur > prev
        prev = cur


def test_offset_estimate_symmetric_delay():
    # true offset 500 ns, one-way delay 200 ns both directions
    assert ptp_offset_estimate(t1=0, t2=700, t3=1000, t4=700) == 500


def test_offset_estimate_asymmetric_delay_error_is_half_difference():
    # delays 300/100 ns, true offset 500: estimate = 500 + (300-100)/2
    assert ptp_offset_estimate(t1=0, t2=800, t3=1000, t4=600) == 600


def test_offset_estimate_zero():
    assert ptp_offset_estimate(0, 0, 0, 0) == 0


def test_servo_first_round_steps_only():
    clock = LocalClock(drift_ppm=0.0, quantum_ns=1)
    apply_servo(clock, 2_000, 0, None)
    assert clock.offset_ns == -2_000
    assert clock.rate_adj_ppm == 0.0


def test_servo_second_round_estimates_drift():
    # 2 us residual twice over 250 ms implies an 8 ppm rate error
    clock = LocalClock(drift_ppm=8.0, quantum_ns=1)
    last = apply_servo(clock, 2_000, 0, None)
    apply_servo(clock, 2_000, 250_000_000, last)
    assert clock.rate_adj_ppm == pytest.approx(-8.0, rel=1e-3)


def test_servo_zero_estimate_is_fixed_point():
    clock = LocalClock(drift_ppm=3.0, quantum_ns=1)
    last = apply_servo(clock, 0, 1000, None)
    offset, rate = clock.offset_ns, clock.rate_adj_ppm
    for i in range(5):
        last = apply_servo(clock, 0, 2000 + i * 1000, last)
    assert clock.offset_ns == offset
    assert clock.rate_adj_ppm == rate


def _run_sync_rounds(drift_ppm, q, interval_ns, rounds, delay_ms=200, delay_sm=200,
                     extra_rounds_to_check=30):
    """Synthetic two-way exchanges against an ideal master clock."""
    master = LocalClock(drift_ppm=0.0, quantum_ns=q)
    slave = LocalClock(drift_ppm=drift_ppm, quantum_ns=q)
    last = None
    worst_after_convergence = 0.0
    t = interval_ns
    total = rounds + extra_rounds_to_check
    for k in range(total):
        t1 = master.read_ns(t)
        t2 = slave.read_ns(t + delay_ms)
        t3 = slave.read_ns(t + delay_ms + 1_000)
        t4 = master.read_ns(t + delay_ms + 1_000 + delay_sm)
        est = ptp_offset_estimate(t1, t2, t3, t4)
        last = apply_servo(slave, est, t + delay_ms + 1_000 + delay_sm, last)
        if k >= rounds:
            # worst divergence across the following interval
            for frac in (0.25, 0.5, 0.75, 1.0):
                probe = t + int(interval_ns * frac)
                off = slave.local_exact(probe) - master.local_exact(probe)
                worst_after_convergence = max(worst_after_convergence, abs(off))
        t += interval_ns
    return worst_after_convergence


@pytest.mark.parametrize("drift", [-10.0, -3.3, 0.0, 4.7, 10.0])
def test_converged_offset_bounded_by_quantization(drift):
    # drift <= 10 ppm, 250 ms interval, 8 ns timestamps, symmetric path:
    # post-convergence divergence stays within 5 quanta
    worst = _run_sync_rounds(drift, q=8, interval_ns=250_000_000, rounds=10)
    assert worst <= 5 * 8


@pytest.mark.parametrize("asym", [100, 400, 1000])
def test_path_asymmetry_converges_to_half(asym):
    q = 8
    master = LocalClock(drift_ppm=0.0, quantum_ns=q)
    slave = LocalClock(drift_ppm=5.0, quantum_ns=q)
    last = None
    interval = 250_000_000
    t = interval
    for _ in range(30):
        t1 = master.read_ns(t)
        t2 = slave.read_ns(t + 200 + asym)
        t3 = slave.read_ns(t + 200 + asym + 1_000)
        t4 = master.read_ns(t + 200 + asym + 1_000 + 200)
        est = ptp_offset_estimate(t1, t2, t3, t4)
        last = apply_servo(slave, est, t + 200 + asym + 1_000 + 200, last)
        t += interval
    # steady-state error approaches half the asymmetry
    off = slave.local_exact(t) - master.local_exact(t)
    assert abs(abs(off) - asym / 2) <= 5 * q


def test_true_at_local_inverts_reads():
    clock = LocalClock(drift_ppm=7.0, quantum_ns=8)
    for target in (1_000, 999_992, 123_456_792):
        target -= target % 8
        t = clock.true_at_local(target, 0)
        assert clock.read_ns(t) >= target
        assert t == 0 or clock.read_ns(t - 1) < target


def _nanosecond_search(clock, target, true_now):
    """The earliest true time at or after the first estimate whose reading
    reaches ``target``, found one nanosecond at a time."""
    if clock.read_ns(true_now) >= target:
        return true_now
    exact = clock.local_exact(true_now)
    t = max(true_now + int((target - exact) / clock.rate), true_now)
    while clock.read_ns(t) < target:
        t += 1
    return t


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0), st.integers(1, 1_000),
       st.integers(0, 10**12), st.integers(0, 10**6), st.integers(-10**4, 10**6))
def test_true_at_local_finds_what_a_nanosecond_search_finds(drift, adj, quantum, checkpoint,
                                                            later, ahead):
    clock = LocalClock(drift_ppm=drift, quantum_ns=quantum)
    clock.set_rate_adj(adj, checkpoint)  # a checkpoint at a fractional local time
    true_now = checkpoint + later
    target = clock.read_ns(true_now) + ahead
    assert clock.true_at_local(target, true_now) == _nanosecond_search(clock, target, true_now)


def test_true_at_local_jumps_over_a_coarse_quantum():
    # the reading stays 0 for the first 10**12 local ns: no search may walk
    # them, and a target the exact time has passed is not yet reached
    clock = LocalClock(drift_ppm=7.0, quantum_ns=10**12)
    for true_now in (0, 50_000):
        t = clock.true_at_local(10_000, true_now)
        assert clock.read_ns(t) == 10**12
        assert clock.read_ns(t - 1) == 0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(-200.0, 200.0), st.integers(1, 64), st.integers(0, 10**9),
       st.integers(-10**5, 10**5), st.integers(0, 10**9), st.floats(-200.0, 200.0),
       st.integers(0, 10**9), st.integers(1, 10**6), st.integers(-10**4, 2 * 10**6))
def test_a_reading_below_the_target_answers_a_token_wait_without_inversion(
        drift, quantum, step_at, step_ns, adjust_at, adj, later, wait, ahead):
    # the port's token wait in a slot: ready while the reading at ready is
    # below the slot end, else the earlier of ready and the inverted slot end
    clock = LocalClock(drift_ppm=drift, quantum_ns=quantum)
    if step_at <= adjust_at:
        clock.step(step_ns, step_at)
        clock.set_rate_adj(adj, adjust_at)
    else:
        clock.set_rate_adj(adj, adjust_at)
        clock.step(step_ns, step_at)
    now = max(step_at, adjust_at) + later
    ready = now + wait
    target = clock.read_ns(now) + ahead
    inverted = min(ready, clock.true_at_local(target, now))
    shortcut = ready if clock.read_ns(ready) < target else inverted
    assert shortcut == inverted
