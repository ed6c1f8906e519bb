"""Machine-speed reference for request times.

Shared hosts have slow phases, seconds long, in which all pure-Python
work runs slower (up to 1.7 times on the 2-core host of BASELINE.md);
they come from outside the process and would dominate the spread between
runs.  A fixed job that builds tuples and a set, the kind of work clk
does, runs before every request, and each request's time is scaled by
REFERENCE_MS over the median job time of the requests around it.  A time is then in
milliseconds on a machine where the job takes REFERENCE_MS, and a change
in clk moves it while a change in the host's load does not.

This module imports nothing that clk imports, so that loading it before a
set-up measurement does not shorten that measurement.
"""

import gc
from time import perf_counter_ns

REFERENCE_MS = 1.0
WINDOW = 5


def _job() -> int:
    seen = set()
    total = 0
    for i in range(3000):
        item = (i, i * 7 % 13, i // 3)
        seen.add(item)
        total += sum(item)
    return total + len(seen)


def reference_ms() -> float:
    """Time of one job in ms, with garbage collection held off so that
    it measures the machine and not the heap left by the last request."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        _job()
        return (perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def _median(values) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def scaled(times_ms, references_ms) -> list[float]:
    """Each time divided by the median reference of the WINDOW requests on
    either side of it, times REFERENCE_MS."""
    return [
        t * REFERENCE_MS / _median(references_ms[max(0, i - WINDOW): i + WINDOW + 1])
        for i, t in enumerate(times_ms)
    ]


def scaled_once(time_ms: float, references_ms) -> float:
    return time_ms * REFERENCE_MS / _median(references_ms)
