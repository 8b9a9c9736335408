"""Host-speed reference: a fixed piece of work timed while the program runs,
so that timings can be corrected for the speed the host gave the process at
that moment.

The host this benchmark runs on shares its cores.  The same pure-Python
loop runs at one speed and then ~1.7x slower, in phases that last from about
a second to tens of seconds, with no CPU steal visible (CPU time rises with
wall time).  A median over one run cannot average that out, because whole
runs can fall into a slow phase.

So the benchmark samples the host's speed with a reference probe: at the
start and end of every measured segment, and every ``INTERVAL`` seconds in
between (a SIGALRM handler in the process that runs the segment).  A
segment's time is its wall time, less the time spent in the handler,
multiplied by the mean of ``NOMINAL_S / probe time`` over its samples: the
time the segment would have taken at the reference speed.

The reference mixes what the program's hot loops do (small numpy arrays
and Generator draws, a Python loop over numpy scalars, dict lookups keyed by
``tobytes``) and never calls fogsched, so a change to the program does not
move it.  It must not be changed either: the corrected figures of two
versions of the program are comparable only under the same reference.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

# One probe's wall time at the reference speed: the fast phase of a 2-CPU
# Xeon VM (Python 3.11, numpy 2.x).  Only the scale of the corrected
# figures depends on it.
NOMINAL_S = 0.0027
INTERVAL = 0.1  # seconds between samples inside a segment
ROUNDS = 96
WIDTH = 24


def _reference():
    rng = np.random.default_rng(20250907)
    genome = rng.integers(0, 5, size=WIDTH)
    length = rng.random(WIDTH) * 100.0
    busy = np.zeros(5)
    queue = np.zeros(WIDTH)
    cache = {}
    total = 0.0
    for _ in range(ROUNDS):
        pos = np.argpartition(rng.random(WIDTH), 2)[:3]
        genome[pos] = rng.integers(0, 5, size=3)
        key = genome.tobytes()
        hit = cache.get(key)
        if hit is None:
            busy[:] = 0.0
            for k in range(WIDTH):
                j = genome[k]
                queue[k] = busy[j]
                busy[j] += length[k]
            hit = float(np.where(queue > 50.0, queue, 0.0).sum()) + float(busy.max())
            cache[key] = hit
        total += hit
    return total


CHECK = _reference()


def probe() -> float:
    """Wall time of one reference run, in seconds."""
    start = perf_counter()
    value = _reference()
    elapsed = perf_counter() - start
    if value != CHECK:
        raise RuntimeError("speed reference gave a different result")
    return elapsed


class Meter:
    """Measures segments at the reference speed.

    ``open`` starts a segment and ``close`` ends it; ``clock`` is a wall
    clock that stands still while the sampling handler runs, so differences
    of it are the program's own time.  While started (``with meter:``), the
    meter samples every ``interval`` seconds; with ``interval=None`` it
    samples only at the ends of segments.  ``corrected`` totals the
    corrected time of every segment closed."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.last = None  # the previous segment's closing probe
        self.samples = []  # NOMINAL_S / probe time of every handler sample
        self.stolen = 0.0  # seconds spent in the sampling handler
        self.corrected = 0.0
        self.factors = []  # one per segment closed
        self._probing = False
        self._previous = None
        self._started = False

    def __enter__(self):
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._arm(self.interval)
            self._started = True
        return self

    def __exit__(self, *exc):
        if self._started:
            self._arm(0)
            signal.signal(signal.SIGALRM, self._previous)
            self._started = False

    def _arm(self, interval):
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    @contextlib.contextmanager
    def paused(self):
        """No sampling in this process while the body runs: a sweep's
        parent only waits, and its pool workers sample themselves."""
        if not self._started:
            yield
            return
        self._arm(0)
        try:
            yield
        finally:
            self._arm(self.interval)

    def _tick(self, signum, frame):
        if self._probing:
            return
        start = perf_counter()
        self.samples.append(NOMINAL_S / self._probe())
        self.stolen += perf_counter() - start

    def _probe(self):
        self._probing = True
        try:
            return probe()
        finally:
            self._probing = False

    def clock(self) -> float:
        return perf_counter() - self.stolen

    def open(self):
        """Start a segment; the closing probe of the previous segment
        doubles as this one's opening probe."""
        if self.last is None:
            self.last = self._probe()
        return len(self.samples), self.last

    def close(self, token, seconds) -> float:
        """End the segment opened with ``token`` after ``seconds`` of the
        program's own time; returns the factor that turns that time into
        time at the reference speed."""
        first, opening = token
        self.last = self._probe()
        inside = self.samples[first:]
        factor = statistics.fmean([NOMINAL_S / opening, *inside, NOMINAL_S / self.last])
        self.factors.append(factor)
        self.corrected += seconds * factor
        return factor

    def add(self, seconds, corrected):
        """Count a segment measured elsewhere (a sweep's pool workers)."""
        self.corrected += corrected
        self.factors.append(corrected / seconds)

    def measure(self, fn, *args):
        """Run ``fn(*args)`` as one segment; returns (its result, its own
        time in seconds, the factor)."""
        token = self.open()
        start = self.clock()
        out = fn(*args)
        seconds = self.clock() - start
        return out, seconds, self.close(token, seconds)
