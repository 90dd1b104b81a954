"""Calibrated time: wall time rescaled to a fixed machine speed.

On the machine this benchmark was built on (a 2-vCPU KVM guest on a Xeon
host, Python 3.11), the machine's speed drifted by 20% and more over a
few seconds, whatever ran inside it: a fixed pure-Python loop took 21-33
ms per call within one minute, and one solve took 12.3-18.0 s across
five back-to-back runs. Medians over a run do not remove a drift that
lasts longer than the run.

So a fixed piece of pure-Python work, the probe, runs from a SIGPROF
handler after every PROBE_EVERY_S of CPU time, and its duration samples
the machine's speed at that moment.  The program under test must not set
its own speed factor, so the timed call starts from a fixed cache state
whatever the solver did before it: an untimed call first loads all the
probe touches, then a copy of FLUSH_BYTES evicts that from the core's
private caches to the shared one, where the timed call finds it.  (A
timed call straight after the untimed one, from the private caches,
swung more with machine speed than the solver did, so calibrated times
still rose with it.)  An interval of work is reported as its wall time
minus the probes run inside it, times the mean of
REF_PROBE_S / probe duration over the probes in and around it: the time
the work would have taken at the speed where one probe takes REF_PROBE_S.
On a machine of steady speed this is wall time times a constant.

Set-up time is calibrated by another reference, a fixed set of imports in
a fresh interpreter (import_baseline_s), because set-up is mostly loading
modules and the probe does not track that.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import subprocess
import sys
import time

PROBE_EVERY_S = 0.1
REF_PROBE_S = 0.0007
# twice the private (L1 + L2) cache of one core of the build machine
FLUSH_BYTES = 4 << 20
# probes on each side of an interval that also count for its speed, so a
# request shorter than PROBE_EVERY_S still gets a speed estimate
NEIGHBOURS = 5

# The reference work for set-up time: standard-library imports in a fresh
# interpreter, run isolated (-I) so that no file of the checkout can shadow
# a module.  Set-up is mostly loading modules, which the pure-Python probe
# does not track.
BASELINE_IMPORTS = ("asyncio, ctypes, decimal, email.parser, fractions, "
                    "http.client, json, sqlite3, unittest, xml.dom.minidom")
REF_IMPORT_S = 0.08


class Probe:
    """A fixed piece of pure-Python work in the solver's style: float math
    on tuples taken from a list, dict lookups, small lists and a sort.  It
    tracks the solver's speed more closely than a bare integer loop.  Its
    data is a few tens of KiB, far less than the shared cache."""

    SIZE = 500

    def __init__(self):
        rng = random.Random(1)
        self.points = [(rng.random(), rng.random()) for _ in range(self.SIZE)]
        self.table = {i: (i * 0.5, [i]) for i in range(self.SIZE)}

    def __call__(self):
        worst = 0.0
        for k in range(1200):
            x, y = self.points[k * 13 % self.SIZE]
            worst = max(worst, math.hypot(x - 0.5, y - 0.5) - 0.3)
        rows = []
        for k in range(600):
            value = self.table[k * 7919 % self.SIZE]
            rows.append([value[0], value[1][0]])
        rows.sort()
        return worst, len(rows)


def import_baseline_s() -> float:
    """Seconds a fresh isolated interpreter takes to import
    BASELINE_IMPORTS; set-up time is reported relative to it."""
    code = ("import time; t = time.perf_counter(); "
            f"import {BASELINE_IMPORTS}; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


class Calibrator:
    """Runs the probe periodically while active and converts intervals of
    perf_counter time to calibrated seconds."""

    def __init__(self):
        self.probe = Probe()
        self._flush_from = bytearray(FLUSH_BYTES)
        self._flush_to = bytearray(FLUSH_BYTES)
        # (start, wall time of both calls and the copy, duration of the timed call)
        self.samples: list[tuple[float, float, float]] = []
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._probed_before = [0.0]
        self._previous = None

    def _on_prof(self, signum, frame):
        started = time.perf_counter()
        self.probe()
        self._flush_to[:] = self._flush_from
        timed = time.perf_counter()
        self.probe()
        ended = time.perf_counter()
        self.samples.append((started, ended - started, ended - timed))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.starts = [start for start, _, _ in self.samples]
        self.durations = [d for _, _, d in self.samples]
        self._probed_before = [0.0]
        for _, spent, _ in self.samples:
            self._probed_before.append(self._probed_before[-1] + spent)
        return False

    def probe_time(self, start: float, end: float) -> float:
        """Seconds of probing inside [start, end]; valid after exit."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self._probed_before[hi] - self._probed_before[lo]

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed over the probes in [start, end] and the
        NEIGHBOURS probes on either side of it; valid after exit."""
        if not self.durations:
            raise RuntimeError("no speed probe ran; the run was too short")
        lo = max(0, bisect.bisect_left(self.starts, start) - NEIGHBOURS)
        hi = bisect.bisect_left(self.starts, end) + NEIGHBOURS
        window = self.durations[lo:hi]
        return sum(REF_PROBE_S / d for d in window) / len(window)

    def seconds(self, start: float, end: float) -> float:
        """Calibrated length of the wall interval [start, end]."""
        return (end - start - self.probe_time(start, end)) * self.speed(start, end)
