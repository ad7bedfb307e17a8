"""How fast the machine runs Python right now, sampled while work is timed.

On a shared virtual machine other tenants slow this one down by up to two
times, in phases lasting seconds to minutes.  Raw times then spread by 20%
or more from run to run, whatever the program does.  A SIGALRM handler
therefore times a fixed piece of pure-Python work every PERIOD_S while a
region is measured.  The benchmark reports the region's time, without the
probe's own time, rescaled by NOMINAL_S / (mean probe time): seconds at the
machine's fast phase.  The probe is timed in thread CPU time, so waiting for
a core does not count.  On sweep-par2 the pool's workers share the two
cores with the probe, so there the scale also holds the program's own
contention (about 15%): a change to how much of that pass runs in parallel
moves the scale too, and is better judged on the unscaled wall time.

The probe allocates no container objects, so it neither triggers nor pays
for the program's garbage collections, and its data fits in a few cache
lines: after the cache is flushed it runs about 4% slower, which bounds how
much a change to the program's memory footprint can move the scale.  A
change that slows the whole interpreter (a background thread holding the
GIL, say) would slow the probe too and be partly hidden; raw times are
printed beside the scaled ones.
"""

import signal
import time

PERIOD_S = 0.04
#: The probe's duration in this machine's fast phase (a 2-vCPU Sapphire
#: Rapids KVM guest, Python 3.11).  A fixed constant, so scaled times compare
#: across commits.
NOMINAL_S = 0.00045

_KEYS = tuple(range(64))
_TABLE = dict.fromkeys(_KEYS, 1)


def _work() -> int:
    table, acc = _TABLE, 0
    for _ in range(200):
        for k in _KEYS:
            acc += table[k]
    return acc


class SpeedProbe:
    """Samples the probe every PERIOD_S between start() and stop()."""

    def __init__(self):
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self._old = None

    def _sample(self, *_args) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        _work()
        self.cpu.append(time.thread_time() - c0)
        self.wall.append(time.perf_counter() - w0)

    def start(self) -> None:
        self.cpu, self.wall = [], []
        self._sample()  # at least one sample, even for a region shorter than PERIOD_S
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def spent(self) -> tuple[float, float]:
        """Wall and CPU time the handler took inside the region (every
        sample but the first)."""
        return sum(self.wall[1:]), sum(self.cpu[1:])

    def scale(self) -> float:
        inside = self.cpu[1:] or self.cpu
        return NOMINAL_S * len(inside) / sum(inside)
