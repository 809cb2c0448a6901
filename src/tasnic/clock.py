"""Per-node local clocks and the offset/rate servo used by clock sync.

A local clock advances at ``1 + (drift_ppm + rate_adj_ppm) * 1e-6`` times
true time.  ``drift_ppm`` models the oscillator's rate error and is never
touched by software; the servo compensates by stepping the offset and by
adjusting ``rate_adj_ppm``.  Timestamp reads are quantized to ``quantum_ns``
to model the hardware timestamping resolution.
"""

from __future__ import annotations

from .engine import SimTime


class LocalClock:
    __slots__ = ("drift_ppm", "quantum_ns", "rate_adj_ppm", "offset_ns",
                 "last_true_ns", "last_local_ns", "rate")

    def __init__(self, drift_ppm: float, quantum_ns: int):
        self.drift_ppm = drift_ppm        # oscillator rate error, fixed for the run
        self.quantum_ns = quantum_ns      # hardware timestamp granularity
        self.rate_adj_ppm = 0.0           # servo rate correction
        self.offset_ns = 0                # cumulative step corrections applied so far
        self.last_true_ns: SimTime = 0
        self.last_local_ns = 0.0          # exact local time at last_true_ns
        self._update_rate()  # sets rate, kept by set_rate_adj

    def _update_rate(self) -> None:
        self.rate = 1.0 + (self.drift_ppm + self.rate_adj_ppm) * 1e-6

    def local_exact(self, true_now: SimTime) -> float:
        """Unquantized local time at true instant ``true_now``."""
        if true_now < self.last_true_ns:
            raise ValueError(f"clock read at t={true_now} before checkpoint {self.last_true_ns}")
        return self.last_local_ns + (true_now - self.last_true_ns) * self.rate

    def read_ns(self, true_now: SimTime) -> int:
        """Local timestamp, floored to the timestamp quantum."""
        # local_exact, inlined: this is the hot read
        if true_now < self.last_true_ns:
            raise ValueError(f"clock read at t={true_now} before checkpoint {self.last_true_ns}")
        exact = self.last_local_ns + (true_now - self.last_true_ns) * self.rate
        q = self.quantum_ns
        if q <= 1:
            return int(exact)
        return (int(exact) // q) * q

    def _checkpoint(self, true_now: SimTime) -> None:
        self.last_local_ns = self.local_exact(true_now)
        self.last_true_ns = true_now

    def step(self, delta_ns: int, true_now: SimTime) -> None:
        """Apply a one-shot offset correction of ``delta_ns`` local ns."""
        self._checkpoint(true_now)
        self.last_local_ns += delta_ns
        self.offset_ns += delta_ns

    def set_rate_adj(self, rate_adj_ppm: float, true_now: SimTime) -> None:
        self._checkpoint(true_now)
        self.rate_adj_ppm = rate_adj_ppm
        self._update_rate()

    def true_at_local(self, target_local: int, true_now: SimTime) -> SimTime:
        """Earliest integer true time >= true_now whose reading reaches ``target_local``.

        Assumes no further servo adjustments before the target; callers
        re-evaluate on wake, so a small error only costs an extra wake.
        """
        exact_now = self.local_exact(true_now)
        q = self.quantum_ns
        if (int(exact_now) // q) * q >= target_local:  # the reading now
            return true_now
        t = short = max(true_now + int((target_local - exact_now) / self.rate), true_now)
        if self.read_ns(short) < target_local:
            # the reading reaches the target where the exact time reaches the
            # first quantum multiple at or past it: jump there, then step off
            # the float rounding either way
            t = max(true_now + int((-(-target_local // q) * q - exact_now) / self.rate), short + 1)
            while t - 1 > short and self.read_ns(t - 1) >= target_local:
                t -= 1
        while self.read_ns(t) < target_local:
            t += 1
        return t


def ptp_offset_estimate(t1: int, t2: int, t3: int, t4: int) -> int:
    """Slave-minus-master offset from a completed two-way exchange.

    t1: sync departure (master clock), t2: sync arrival (slave clock),
    t3: delay-req departure (slave), t4: delay-req arrival (master).
    Integer division truncates toward zero.
    """
    num = (t2 - t1) - (t4 - t3)
    return num // 2 if num >= 0 else -((-num) // 2)


MAX_RATE_ADJ_PPM = 200.0  # bound on the servo's rate correction


def apply_servo(clock: LocalClock, offset_est_ns: int, true_now: SimTime,
                last_apply_local_ns: int | None) -> int:
    """Step the clock by -offset_est and update the rate correction; returns
    the clock reading after the step, the next round's ``last_apply_local_ns``.

    The first round (``last_apply_local_ns`` None) only steps.  From the
    second round on, the residual offset accrued since the previous
    correction estimates the remaining rate error (offset delta / interval),
    which is subtracted from ``rate_adj_ppm``.
    """
    now_local = clock.read_ns(true_now)
    if last_apply_local_ns is not None:
        interval = now_local - last_apply_local_ns
        if interval > 0:
            drift_ppm = offset_est_ns * 1e6 / interval
            adj = clock.rate_adj_ppm - drift_ppm
            clock.set_rate_adj(min(max(adj, -MAX_RATE_ADJ_PPM), MAX_RATE_ADJ_PPM), true_now)
    clock.step(-offset_est_ns, true_now)
    return clock.read_ns(true_now)
