"""Report times at a fixed machine speed.

The shared 2-vCPU VM this benchmark was tuned on changes speed by up to 1.8x,
in spells of seconds to tens of seconds (a pure-Python loop timed for 480 s
showed it; nothing in the run causes it).  A 20 to 30 s run averages over a
few such spells only, so raw times of one workload spread by 20 to 40 % from
run to run.  The engine slows together with any other pure-Python work: in a
90 s test the time of a transform divided by the time of `reference_work`,
measured right beside it, stayed within 3 % while both times swung 1.8x.

The slow spells of the two cores are unrelated, so the worker and every
process it starts are pinned to one core.  The benchmark times
`reference_work` on that core before and after every operation and, from a
timer signal, every SAMPLE_EVERY_S during an operation too (inside the
`penrose` process for cli, which hands its samples back); the samples' own
time is left out of the operation's.  Each
stretch of an operation between two samples is reported at reference speed:

    reported = measured * REFERENCE_S / mean reference time of the two samples

REFERENCE_S is close to the reference work's time at the faster of the VM's
speeds, so reported times read like that speed's.  The reference work is the
benchmark's own and calls no engine code, so an engine change moves reported
times as it moves measured ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0022
# The speed changes within a second too, so operations are bracketed by
# samples at most SAMPLE_GAP_S old; the timer samples inside long operations.
SAMPLE_GAP_S = 0.1
SAMPLE_EVERY_S = 0.5
REPEATS = 5


def reference_work() -> int:
    """Rational sums and dict updates, the kinds of work the engine does."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return total.denominator.bit_length() + len(table)


class Speedometer:
    """Reference-work samples taken over a run: when each began and ended, and its time."""

    def __init__(self):
        self.begin: list[float] = []
        self.end: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        begin = time.perf_counter()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
        self.begin.append(begin)
        self.end.append(time.perf_counter())
        self.seconds.append(sorted(times)[REPEATS // 2])
        self._busy = False

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.end[-1] > SAMPLE_GAP_S:
            self.sample()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def sampling(self, timer: bool):
        """Sample now and at the end; with `timer`, also every SAMPLE_EVERY_S in between.

        Leave the timer off while child processes run: they share the core
        with this one, so a sample would slow them and they would slow it.
        They take their own samples instead (cli_child.py, `merge`).
        """
        self.sample()
        if timer:
            self.start_timer()
        try:
            yield self
        finally:
            if timer:
                self.stop_timer()
            self.sample()

    def dump(self) -> list[list[float]]:
        return [self.begin, self.end, self.seconds]

    def merge(self, dump: list[list[float]]) -> None:
        """Add the samples a child process took on this core (perf_counter is system-wide)."""
        for begin, end, seconds in zip(*dump):
            index = bisect.bisect(self.begin, begin)
            self.begin.insert(index, begin)
            self.end.insert(index, end)
            self.seconds.insert(index, seconds)

    def _inside(self, start: float, end: float) -> range:
        """Samples taken during start..end; one must precede start and one follow end."""
        return range(bisect.bisect_left(self.begin, start), bisect.bisect_left(self.begin, end))

    def measured(self, start: float, end: float) -> float:
        """Time from start to end, less the samples taken in between."""
        return end - start - sum(self.end[j] - self.begin[j] for j in self._inside(start, end))

    def at_reference(self, start: float, end: float) -> float:
        """measured(start, end) at reference speed, stretch by stretch."""
        inside = self._inside(start, end)
        total, left = 0.0, start
        for j in range(inside.start, inside.stop + 1):
            right = self.begin[j] if j < inside.stop else end
            total += (right - left) * REFERENCE_S * 2 / (self.seconds[j - 1] + self.seconds[j])
            left = self.end[j]
        return total
