"""The share of a CPU the host gives this process, probed with a micro-loop.

On a shared host the process is held off its CPU for stretches of
milliseconds, and for whole seconds at times at about half speed.  Wall time
and the process's CPU time both run on through those stretches, so neither
shows them.  A fixed micro-loop timed back to back does: its fastest run is
its undisturbed cost, and ``runs * fastest / elapsed`` is the share of the
probe window in which the process really ran.  A pass's wall time scaled by
the share probed just before and after it is the time the pass would take
with a whole CPU, and that is what changes when hawkeskit changes.
"""

from __future__ import annotations

import time

WINDOW_S = 0.03


def _unit() -> int:
    s = 0
    for i in range(200):
        s += i
    return s


def probe(window: float = WINDOW_S) -> tuple[int, float, float]:
    """Run the micro-loop for window seconds: (runs, fastest run, elapsed)."""
    runs, fastest = 0, float("inf")
    start = t = time.perf_counter()
    while t - start < window:
        _unit()
        now = time.perf_counter()
        fastest = min(fastest, now - t)
        runs += 1
        t = now
    return runs, fastest, t - start


def share(probes, fastest: float) -> float:
    """CPU share over the given probe windows, against the fastest run seen."""
    return sum(p[0] for p in probes) * fastest / sum(p[2] for p in probes)
