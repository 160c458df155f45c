"""Host-speed probe: scale measured times to the speed of the reference box.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent from one minute to the next, and the two CPUs drift apart. A
calibration loop timed before and after a pass does not follow the
drift. A probe taken inside the pass, on the same CPU, does: every
PROBE_EVERY_S of CPU time a SIGPROF handler times one run of a fixed
pure-Python snippet (dict updates, big-integer squaring, and building
and sorting small tuples: the operations `qmi` spends its time on). A
time t measured while the probe ran is reported as

    (t - time spent in the probe) * PROBE_REF_S / median(probe times)

that is, in seconds of the reference box. The probe costs about 2% of
CPU time, which is subtracted. It shares caches with the program, so a
change that thrashes the caches slows the probe a little too, and part of
that slowdown is scaled away.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

# Median time of one snippet run on the reference box in a quiet minute.
PROBE_REF_S = 0.00047
# CPU time between two probes.
PROBE_EVERY_S = 0.02


def snippet() -> int:
    table: dict[int, int] = {}
    x = 7
    for i in range(30):
        k = (i * 7919) % 257
        table[k] = table.get(k, 0) + i * i
        x = (x * x + i) % (1 << 2000)
    # Without this part, catalog-light slowed about 1.45 times as much as
    # the probe did (slope of log wall on log probe time) and came out
    # slower in slow minutes; with it the slope is 1.1-1.2.
    items = sorted([((i * 37) % 101, str(i)) for i in range(600)])
    return x + len(items)


def time_snippet() -> float:
    t0 = time.perf_counter()
    snippet()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the snippet on SIGPROF while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_signal(self, signum, frame) -> None:
        self.samples.append(time_snippet())

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


def speed(samples: list[float]) -> float:
    """Reference seconds per measured second (1.0 with no samples)."""
    return PROBE_REF_S / statistics.median(samples) if samples else 1.0


def probed(run_case):
    """Wrap run_case so that every process running cases runs a probe.

    A pool worker starts its own probe on its first case (interval timers
    are not inherited across fork). Each report gets the probe times taken
    during its case as `report.probe_samples`.
    """
    probes: dict[int, SpeedProbe] = {}

    def run_case_probed(*args, **kwargs):
        probe = probes.get(os.getpid())
        if probe is None:
            probe = probes[os.getpid()] = SpeedProbe()
            probe.start()
        before = len(probe.samples)
        report = run_case(*args, **kwargs)
        report.probe_samples = probe.samples[before:]
        return report

    def stop() -> None:
        probe = probes.get(os.getpid())
        if probe is not None:
            probe.stop()

    run_case_probed.stop = stop
    return run_case_probed
