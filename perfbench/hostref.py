"""Host reference: a fixed slice of work that measures how fast the host is
running right now.

The benchmark runs one slice between operations (never inside one) and
divides each round's timings by the mean slice time, so a host that is
momentarily slower, because other tenants share its CPUs, slows the slices
and the audits alike and the ratio stays put. This module never imports
the audited program: its speed must not change when the program does.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal duration of one slice, in seconds, frozen when the benchmark was
#: defined (a median slice on the 2-vCPU x86-64 VM described in README.md;
#: the same VM ran slices in 2.3-4.6 ms as its load changed). A timing in
#: reference seconds is ``raw seconds * H0 / mean slice seconds``: it reads
#: as raw seconds on a host that runs a slice in exactly ``H0``.
H0 = 0.004

_DICT_ITERATIONS = 12_000
_ARRAY = np.linspace(0.0, 1.0, 40_000)


def reference_slice() -> float:
    """Run one slice of pure-Python dict/int work plus one NumPy reduction;
    return its duration in seconds."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    accumulator = 0
    for step in range(_DICT_ITERATIONS):
        key = (step * 7919) & 1023
        table[key] = table.get(key, 0) + step
        accumulator ^= table[key]
    total = float(np.sqrt(_ARRAY).sum()) + accumulator
    elapsed = time.perf_counter() - started
    if total < 0:  # never true: the slice's results are used, not dropped
        raise AssertionError("reference slice lost its work")
    return elapsed
