"""Host-speed reference for the ledger's end-to-end time metrics.

On a shared host the CPU a run gets changes speed by up to 2x over
minutes: one fixed compile loop, alone in its process, took from 30 to
105 ms per iteration, and its process CPU time tracked its wall time,
so the loss is in the CPU itself, not in waiting to be scheduled.
Counting instructions would sidestep it, but the sandbox exposes no
hardware counters.

So a run times a fixed reference kernel while it measures: around each
set-up, and between segments of ops while the consumers are idle.  The
kernel is standard-library pure-Python code and calls nothing under
``src/``, so no change to the program can move it.  An end-to-end time
is reported at a *nominal* host speed, at which the kernel takes
``NOMINAL_MS``:

    reported = measured x NOMINAL_MS / kernel time around the measurement

Set-ups and short segments of ops are each scaled by the kernel
samples taken right before and right after them, so a run that
straddles a change of host speed is scaled piece by piece.  The CPUs
need not change speed together, and the processes of a run move
between them, so each sampling times the kernel on every CPU the run
may use in turn (pinned with ``sched_setaffinity``).  The raw
wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import difflib
import os
import pprint
import random
import statistics
from time import perf_counter, perf_counter_ns

#: kernel time at the nominal host speed (the kernel's median on a
#: 2-vCPU Xeon sandbox in its faster state)
NOMINAL_MS = 3.4

_rng = random.Random(0)
_TEXT_A = "".join(_rng.choice("abcdefgh \n") for _ in range(1500))
_TEXT_B = "".join(_rng.choice("abcdefgh \n") for _ in range(1500))
_NESTED = [{f"k{i}": [i, str(i), (i, i * 2.5), {"x": [None, True, i]}]}
           for i in range(150)]


def host_kernel() -> None:
    """difflib's matcher (dict and list traffic) and pprint's formatter
    (recursion, type tests, string building): the kind of work the
    compiler, loader and interpreter do, at a fixed size."""
    difflib.SequenceMatcher(None, _TEXT_A, _TEXT_B).ratio()
    pprint.pformat(_NESTED)


class HostSpeed:
    """Kernel samples of one run, and the scale factors they give."""

    def __init__(self):
        self.samples: list[int] = []
        self._last: list[int] = []
        self._cpus = sorted(os.sched_getaffinity(0))

    def scale(self, budget_s: float) -> float:
        """Run the kernel for about ``budget_s`` seconds, at least once
        on each CPU, right after a measured stretch; ``NOMINAL_MS`` over
        the median of these samples and those of the previous call,
        which came right before the stretch."""
        own = []
        home = os.sched_getaffinity(0)
        deadline = perf_counter() + budget_s
        try:
            while len(own) < len(self._cpus) or perf_counter() < deadline:
                os.sched_setaffinity(0, {self._cpus[len(own)
                                                    % len(self._cpus)]})
                start = perf_counter_ns()
                host_kernel()
                own.append(perf_counter_ns() - start)
        finally:
            os.sched_setaffinity(0, home)
        self.samples.extend(own)
        around, self._last = self._last + own, own
        return NOMINAL_MS * 1e6 / statistics.median(around)

    def median_ms(self) -> float:
        return statistics.median(self.samples) / 1e6
