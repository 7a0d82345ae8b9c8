"""Host-adjusted time: wall time rescaled by the host's speed at the moment.

The benchmark's host is a share of a machine that other tenants use, and
its speed drifts by tens of percent over seconds and minutes. To report
figures that a change in the program moves and the host's state does
not, the workload process runs a fixed reference kernel (written here,
independent of vnom) in short bursts between the program's calls. The
wall time between two bursts (an epoch) is divided by the host factor
that the burst closing the epoch measures, raised to the workload's
exponent:

    factor = ((seconds per kernel call in the burst) / REF_KERNEL_S) ** exponent

With exponent 1 a host running the kernel at half speed counts each wall
second of the program as half a second. A workload whose time moves with
the host's state less than the kernel's does, because memory bandwidth
bounds much of it, takes a smaller exponent, and may use the run's mean
factor for every epoch instead, when a single burst reads its epoch's
state too loosely (workloads.HOST_SCALING). Burst time is excluded from
every figure.
A program change does not touch the kernel, so it moves adjusted times
as it moves wall times; the raw wall figures stay in the run record.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# Nominal seconds per kernel call. It fixes the scale of adjusted times
# (near wall seconds on the reference machine), not their ratios.
REF_KERNEL_S = 0.00055
# A burst lasts this share of the epoch it closes, and at least MIN_CALLS
# kernel calls.
BURST_SHARE = 0.15
MIN_CALLS = 3
# An epoch closes at the first hook call after it has lasted this long.
EPOCH_S = 0.1


class _Kernel:
    """Small-array numpy work of the kind the program's hot loops do
    (boolean masks, fancy indexing, short reductions over 300 entries)
    plus one 160x160 matrix product."""

    def __init__(self):
        rng = np.random.default_rng(20131210)
        n = 300
        upper = np.triu(rng.random((n, n)) < 0.03, k=1)
        self.adjacency = upper | upper.T
        self.labels = rng.integers(0, 2, n)
        self.log_lam = np.log(rng.random((2, 2)) * 0.5 + 0.01)
        self.keep = np.ones(n, dtype=bool)
        self.matrix = rng.random((160, 160))

    def __call__(self):
        total = 0.0
        diff = self.log_lam[1, self.labels] - self.log_lam[0, self.labels]
        for v in range(40):
            row = self.adjacency[v]
            total += diff[row & self.keep].sum() + diff[self.keep & ~row].sum()
        return total + float((self.matrix @ self.matrix)[0, 0])


class HostClock:
    """Epochs of program time, each with the host factor of the burst that
    closed it. Inactive, it runs no bursts and every factor is 1."""

    def __init__(self, active=True, exponent=1.0, whole_run=False):
        self.active = active
        self.exponent = exponent
        self.whole_run = whole_run
        self._kernel = _Kernel()
        self.epochs = []  # (start, end, factor) in perf_counter seconds
        self._ends = []
        self.burst_s = 0.0
        self._start = None
        if active:
            for _ in range(2 * MIN_CALLS):  # first calls allocate and fault pages
                self._kernel()

    def measure(self, seconds):
        """Run the kernel for about `seconds`; return the kernel's time per
        call over the nominal one."""
        start = time.perf_counter()
        calls = 0
        while True:
            self._kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if calls >= MIN_CALLS and elapsed >= seconds:
                break
        self.burst_s += elapsed
        return elapsed / calls / REF_KERNEL_S

    def start(self):
        self._start = time.perf_counter()

    def tick(self):
        """Hook for calls into the program: closes the epoch once it is
        EPOCH_S long."""
        if self.active and time.perf_counter() - self._start >= EPOCH_S:
            self._close()

    def stop(self):
        self._close()
        self._start = None
        if self.whole_run:
            mean = self.mean_factor()
            self.epochs = [(s, e, mean) for s, e, _ in self.epochs]

    def _close(self):
        end = time.perf_counter()
        factor = self.measure(BURST_SHARE * (end - self._start)) if self.active else 1.0
        factor **= self.exponent
        self.epochs.append((self._start, end, factor))
        self._ends.append(end)
        self._start = time.perf_counter()

    def _overlaps(self, t0, t1):
        """(seconds, factor) of each epoch's overlap with [t0, t1]."""
        i = bisect.bisect_right(self._ends, t0)
        while i < len(self.epochs) and self.epochs[i][0] < t1:
            s, e, f = self.epochs[i]
            yield min(t1, e) - max(t0, s), f
            i += 1

    def wall(self, t0, t1):
        """Program time between t0 and t1, bursts left out."""
        return sum(seconds for seconds, _ in self._overlaps(t0, t1))

    def adjusted(self, t0, t1):
        """Host-adjusted program time between t0 and t1."""
        return sum(seconds / f for seconds, f in self._overlaps(t0, t1))

    def mean_factor(self):
        """Wall-weighted mean host factor over the epochs."""
        total = sum(e - s for s, e, _ in self.epochs)
        return sum((e - s) * f for s, e, f in self.epochs) / total if total else 1.0
