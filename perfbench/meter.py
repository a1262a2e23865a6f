"""Timings at reference machine speed.

On a shared host a neighbour's work slows every instruction stream on
the benchmark's core, by up to 2x, in bursts that last from milliseconds
to minutes.  Process CPU time slows with it (the core runs slower, it is
not taken away), so neither wall nor CPU time of one run says whether
the program or the machine got slower.

``Meter`` therefore reads a fixed reference kernel around every timed
call and, every ``SAMPLE_EVERY_S``, during it, and reports the call at
reference speed:

    scaled = raw * REF_S / mean(kernel readings before, during, after)

that is, the time the call would take on a machine where ``reference()``
takes exactly ``REF_S``.  The readings before and after a call run the
kernel for ``REF_SHARE`` of the call's own time (at least once); during
the call an interval timer interrupts it every ``SAMPLE_EVERY_S`` and
runs the kernel once, so the machine's speed is known over the call
itself and not only at its ends.  The garbage collector is off while
the kernel runs, so a reading never includes a collection of the
program's heap.  The kernel is the library's kind of work, exact
``Fraction`` elimination with big-integer gcds and list updates, but
none of the library's code: a change to ``padic_sos`` moves ``scaled``
as it moves ``raw`` on an undisturbed core.  ``REF_S`` is about what the
kernel takes undisturbed on a 2-vCPU x86-64 VM with Python 3.11, so
scaled and raw times read alike there.  On that VM seven calls of a
1.5 s operation spread (standard deviation over mean) 20% raw and 2%
scaled.  cli-cold, whose calls are whole processes, passes a process of
that kind as its kernel (``workloads.CliCold.meter``).
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REF_S = 0.001
REF_SHARE = 0.05
SAMPLE_EVERY_S = 0.02
_SIZE = 9


def reference() -> Fraction:
    """Determinant of a fixed 9x9 rational matrix by exact elimination,
    with the cyclic garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _eliminate()
    finally:
        if enabled:
            gc.enable()


def _eliminate() -> Fraction:
    rows = [[Fraction(1, i + j + 1) + (i * j % 3) for j in range(_SIZE)]
            for i in range(_SIZE)]
    det = Fraction(1)
    for col in range(_SIZE):
        pivot_row = rows[col]
        pivot = pivot_row[col]
        det *= pivot
        for row in rows[col + 1:]:
            factor = row[col] / pivot
            if factor:
                for k in range(col, _SIZE):
                    row[k] -= factor * pivot_row[k]
    return det


class Meter:
    """Times calls and scales each to reference speed.

    ``kernel`` is the reference and ``nominal_s`` its undisturbed time;
    a workload whose calls are whole processes passes a process of its
    own kind (``workloads.CliCold``).  The readings during a call are
    taken out of its raw time; ``during=False`` turns them off (the
    traced run, where a reading would land in some span, and calls that
    run in a child on the benchmark's CPU, where a reading would share
    the core with the call instead of measuring it)."""

    def __init__(self, kernel=reference, nominal_s: float = REF_S, during: bool = True):
        self.kernel, self.nominal_s = kernel, nominal_s
        self.during = during and hasattr(signal, "setitimer")
        self._samples: list[float] = []
        self.raw_s = self.scaled_s = 0.0  # totals over every timed call
        kernel()  # warm-up, not a reading
        self.last, self.last_spent = self.read(0.0)

    def read(self, budget_s: float) -> tuple[float, float]:
        """Run the kernel at least once and for at least ``budget_s``
        seconds; return its mean seconds and the seconds spent."""
        clock = time.perf_counter
        spent, runs = 0.0, 0
        while runs == 0 or spent < budget_s:
            start = clock()
            self.kernel()
            spent += clock() - start
            runs += 1
        return spent / runs, spent

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self._samples.append(time.perf_counter() - start)

    def time(self, thunk, expect_s: float = 0.0):
        """Run ``thunk()``, which should take about ``expect_s`` seconds;
        return its result, raw seconds and seconds at reference speed.
        The reading after a call serves as the next call's reading before
        it when it is long enough."""
        if self.last_spent < expect_s * REF_SHARE:
            self.last, self.last_spent = self.read(expect_s * REF_SHARE)
        before = self.last
        self._samples = []
        if self.during:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            start = time.perf_counter()
            result = thunk()
            raw = time.perf_counter() - start
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        during = self._samples
        raw -= sum(during)
        self.last, self.last_spent = self.read(raw * REF_SHARE)
        readings = [before, self.last, *during]
        scaled = raw * self.nominal_s / (sum(readings) / len(readings))
        self.raw_s += raw
        self.scaled_s += scaled
        return result, raw, scaled
