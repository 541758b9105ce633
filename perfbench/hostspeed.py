"""Host-speed probe: how fast this machine runs pure Python right now,
measured inside the process being timed.

The benchmark's host is a share of a machine whose speed swings by up to
+-30% over seconds to minutes, with no change to the program. A probe
started with ``start()`` runs a fixed pure-Python kernel from a SIGALRM
handler every ``TICK_S`` seconds of wall time, so the samples interleave
with the program's own work on the same CPU. Each sample gives the ratio
``REFERENCE_S / measured``: above 1 when the host runs faster than the
reference host, below 1 when slower. A few unrecorded samples first warm
the kernel up.

The kernel closes a set of permutation tuples under two generators, built
the way ``burnfuse.perms.p_mul`` builds them, but with code of its own, so
that a change to the program does not change the probe. A kernel of that
kind (tuple building, set lookups) tracks the program's slow-downs better
than a plain integer loop or a pointer chase: over 150 cold ``basis``
commands on a host whose speed swung twofold, it left a spread of 5-6%
where those left 7-9%. The garbage collector is held off while the kernel
runs, and the kernel frees all it allocates, so the probe does not shift
when the program's collections run.

A time measured under the probe is reported at reference-host speed::

    normalized_s = (wall_s - probe.probe_s) * probe.factor()

``probe_s`` is the time the probe itself took, which is taken out first.
Because samples are evenly spaced in wall time, the mean of their ratios
weights every stretch of the run by its length, as the wall time does.

``REFERENCE_S`` is the kernel's time on a 2-vCPU Intel Xeon at 2.1 GHz under
Python 3.11 when that host ran fast. It is a constant of the benchmark:
changing it rescales every normalized time, so change it only together with
the baseline.
"""

from __future__ import annotations

import gc
import signal
import time

TICK_S = 0.02
REFERENCE_S = 0.00070
RECENT_TICKS = 8
WARM_UP_TICKS = 4
_GENERATORS = ((1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7))
_IDENTITY = tuple(range(8))
_CLOSURE_SIZE = 400

PROBE: Probe | None = None


def _kernel() -> int:
    """Breadth-first closure of the identity under the generators, up to
    ``_CLOSURE_SIZE`` permutations."""
    seen = {_IDENTITY}
    frontier = [_IDENTITY]
    while frontier and len(seen) < _CLOSURE_SIZE:
        nxt = []
        for x in frontier:
            for g in _GENERATORS:
                y = tuple(x[j] for j in g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


class Probe:
    """Samples host speed from SIGALRM until ``stop()``."""

    def __init__(self):
        self.ratios: list[float] = []
        self.probe_s = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            _kernel()
        finally:
            if collecting:
                gc.enable()
        elapsed = time.perf_counter() - start
        self.ratios.append(REFERENCE_S / elapsed)
        self.probe_s += time.perf_counter() - start

    def start(self) -> None:
        for _ in range(WARM_UP_TICKS):
            self.sample()
        del self.ratios[:]
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self) -> float:
        """Mean speed ratio of every sample so far."""
        return sum(self.ratios) / len(self.ratios)

    def recent(self) -> float:
        """Mean speed ratio of the last few samples: the speed right now."""
        ratios = self.ratios[-RECENT_TICKS:]
        return sum(ratios) / len(ratios)


def clock() -> float:
    """``time.perf_counter()`` without the time the probe has taken."""
    return time.perf_counter() - (PROBE.probe_s if PROBE is not None else 0.0)


def speed() -> float:
    """The host's speed ratio right now; 1 when no probe runs."""
    return PROBE.recent() if PROBE is not None else 1.0


def start() -> Probe:
    """Start the probe of this process; ``PROBE`` holds it."""
    global PROBE
    PROBE = Probe()
    PROBE.start()
    return PROBE
