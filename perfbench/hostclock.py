"""Scales measured times to a reference host speed.

The benchmark runs on a few cores of a shared host.  Its speed for
pure-Python work swings by up to two times within seconds, and drifts by tens
of percent over minutes, as other tenants come and go.  Raw times of one seed
then differ more between runs than a real regression would move them.

So the harness runs a short calibration burst every `INTERVAL_NS` between
operations, and right before and after each timed set-up build and reopen.
The burst is fixed pure-Python work that shares no code with the engine,
run with the garbage collector off.  Each measured time is multiplied by
`REFERENCE_NS` over the median (for two, the mean) cost of the `NEAREST`
bursts around its end.
A scaled time thus reads as the time the operation would take on a host
where the burst costs `REFERENCE_NS`, about its median cost on the 2-vCPU
VM where the benchmark was tuned.  An engine change moves scaled times as it
moves raw ones, because the burst does not run engine code.

The report keeps the burst costs, and the unscaled values of every metric.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter_ns

REFERENCE_NS = 350_000
INTERVAL_NS = 40_000_000
# the bursts right before and after a time track the host's speed best:
# over eleven `oltp_mix` runs, the quartile spread of `read_p99_ms` was 0.02
# with these two and 0.05 with the nearest eight
NEAREST = 2


class _Row:
    __slots__ = ("key", "vals")

    def __init__(self, key, vals):
        self.key = key
        self.vals = vals


def _burst_work() -> list:
    """Object creation, attribute reads, dict and list work, formatting and
    a sort: the kinds of work the engine's own Python code does."""
    rows = [_Row(i, (i, str(i), i * 0.5)) for i in range(300)]
    index: dict[int, list] = {}
    for row in rows:
        index.setdefault(row.key % 31, []).append(row)
    out = []
    for k in range(31):
        for row in index.get(k, ()):
            if row.vals[0] % 3 == 1 and f"{row.key}" == row.vals[1]:
                out.append((row.key, row.vals[2]))
    return sorted(out)


class HostClock:
    """Calibration bursts of one run, and the scaling they give."""

    def __init__(self):
        self.ends: list[int] = []                 # perf_counter_ns at each burst's end
        self.costs: list[int] = []                # each burst's duration, ns
        self.due = 0
        _burst_work()                             # first call warms the code up

    def burst(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter_ns()
            _burst_work()
            end = perf_counter_ns()
        finally:
            if enabled:
                gc.enable()
        self.ends.append(end)
        self.costs.append(end - start)
        self.due = end + INTERVAL_NS

    def poll(self) -> None:
        """A burst if `INTERVAL_NS` has passed since the last one."""
        if perf_counter_ns() >= self.due:
            self.burst()

    def factor(self, end_ns: int) -> float:
        i = bisect.bisect(self.ends, end_ns)
        near = self.costs[max(0, i - NEAREST // 2):i + NEAREST // 2]
        return REFERENCE_NS / statistics.median(near) if near else 1.0

    def scale(self, end_ns: int, duration_ns: int) -> float:
        return duration_ns * self.factor(end_ns)

    def summary(self) -> dict:
        if len(self.costs) < 2:
            return {"bursts": len(self.costs)}
        q1, median, q3 = statistics.quantiles(self.costs, n=4)
        return {"bursts": len(self.costs), "reference_us": REFERENCE_NS / 1e3,
                "median_us": median / 1e3, "q1_us": q1 / 1e3, "q3_us": q3 / 1e3}
