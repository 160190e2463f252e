"""Timing of one round's timed phase, with host-reference slices between
operations and per-operation latency samples."""

from __future__ import annotations

import math
import resource
import time
from contextlib import contextmanager

from hostref import H0, reference_slice

#: Timed work between two reference slices, in seconds. A slice lasts a few
#: milliseconds, so the slices take about a tenth as long as the timed work
#: and sample the host's speed throughout the round.
SLICE_INTERVAL = 0.025


def read_wchar() -> int:
    """Bytes this process has passed to write-like system calls so far."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Meter:
    """Times one round's timed phase.

    ``with meter.op():`` times one operation (one audit, one batch) as a
    latency sample; :meth:`add_sample` records one timed by the caller (one
    serving job). :meth:`between` runs a reference
    slice once :data:`SLICE_INTERVAL` of timed work has passed since the
    last one; call it only where no operation is in progress. Slice time
    is excluded from :attr:`wall_s` and from every sample.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.samples: list[float] = []
        #: per sample, how many slices had run before it ended
        self.sample_slices: list[int] = []
        self.wall_s = 0.0
        self.bytes_written = 0
        self._started = 0.0
        self._slice_total = 0.0
        self._last_slice_end = 0.0
        self._wchar = 0

    def start(self) -> None:
        self.slices.append(reference_slice())  # before the clock starts
        self._wchar = read_wchar()
        self._started = self._last_slice_end = time.perf_counter()

    def between(self) -> None:
        if time.perf_counter() - self._last_slice_end >= SLICE_INTERVAL:
            self._slice()

    def _slice(self) -> None:
        elapsed = reference_slice()
        self.slices.append(elapsed)
        self._slice_total += elapsed
        self._last_slice_end = time.perf_counter()

    @contextmanager
    def op(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_sample(time.perf_counter() - started)
        self.between()

    def add_sample(self, seconds: float) -> None:
        """Record one latency sample that has just ended."""
        self.samples.append(seconds)
        self.sample_slices.append(len(self.slices))

    def local_samples(self) -> list[float]:
        """Samples in reference seconds, each scaled by the two slices around
        it (the last before it and the first after it)."""
        out = []
        for sample, after in zip(self.samples, self.sample_slices):
            near = self.slices[max(0, after - 1) : after + 1]
            out.append(sample * H0 / (sum(near) / len(near)))
        return out

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._started - self._slice_total
        self.bytes_written = read_wchar() - self._wchar
        # After the clock stops: samples the host's speed at the round's end.
        self._slice()

    @property
    def factor(self) -> float:
        """Raw seconds to reference seconds for this round."""
        return H0 / (sum(self.slices) / len(self.slices))
