"""Host-speed yardstick: a fixed pure-Python kernel and its sampler.

The host's speed drifts, within seconds and between runs, by up to a
factor of two for interpreted code on a shared 2-CPU VM.  Timings of
the program are divided by the mean time of this kernel, sampled
throughout the same timed phase, so drift cancels.

The kernel imports nothing from ``repro``, numpy or any BLAS, so no
program setting (thread counts, caches, imports) can change its speed:
if ``bench.ref_s`` moves between two commits, the yardstick moved, not
the program.  Samples are timed with ``time.thread_time`` (CPU time of
the sampling thread), so waits for the interpreter lock or the CPU do
not count.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

__all__ = ["reference_kernel", "RefSampler", "KERNEL_ITERATIONS"]

#: Fixed work per sample (about 1.3 ms on an idle core of a 2020s x86
#: server).  Never tune this at run time: the yardstick must be the
#: same on every commit.
KERNEL_ITERATIONS = 2250


def reference_kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Interpreter-bound work: integer and float arithmetic, calls,
    dict and list traffic, and a sort.  Returns a checksum."""
    x = 12345
    acc = 0.0
    buckets: dict[int, int] = {}
    values: list[int] = []
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 97
        buckets[key] = buckets.get(key, 0) + i
        acc = acc * 0.999 + (x & 0xFF) * 1e-3
        values.append(x ^ key)
    values.sort()
    return sum(values[::13]) + sum(buckets.values()) + int(acc)


class RefSampler:
    """Collects reference-kernel timings during a timed phase.

    ``running(interval)`` starts a thread that samples at once and then
    every ``interval`` seconds until the ``with`` block ends, so the
    samples spread evenly over the phase whatever the program does.
    """

    def __init__(self):
        self.samples: list[float] = []
        #: ``time.perf_counter()`` at the end of each sample.
        self.ends: list[float] = []
        self._lock = threading.Lock()

    def sample(self) -> None:
        t0 = time.thread_time()
        reference_kernel()
        seconds = time.thread_time() - t0
        with self._lock:
            self.samples.append(seconds)
            self.ends.append(time.perf_counter())

    def mean(self) -> float:
        """Mean sample time.

        The host's speed flips between a fast and a slow state every few
        seconds.  The program's wall time integrates over both, and so
        does the mean of evenly spaced samples; a median would jump to
        whichever state held most samples.
        """
        with self._lock:
            if not self.samples:
                raise RuntimeError("no reference-kernel samples taken")
            return statistics.fmean(self.samples)

    def running(self, interval: float) -> "_Background":
        return _Background(self, interval)


class _Follower:
    """Keeps the sampler on the CPU of the main thread while it is busy.

    While the benchmark's main thread does serial work, a sample taken
    on the other CPU would measure that CPU, whose host load can differ
    for long stretches; on the main thread's CPU it measures the CPU the
    serial work runs on (the main thread waits for the interpreter lock
    meanwhile).  While the main thread mostly sleeps, as during a pool
    run, the work runs on every CPU, and the sampler visits the CPUs in
    turn.
    """

    def __init__(self):
        main = threading.main_thread()
        self._stat = f"/proc/self/task/{main.native_id}/stat"
        self._clock = time.pthread_getcpuclockid(main.ident)
        self._cpus = sorted(os.sched_getaffinity(0))
        self._turn = 0
        self._last = (time.perf_counter(), time.clock_gettime(self._clock))

    def place(self) -> None:
        now = (time.perf_counter(), time.clock_gettime(self._clock))
        busy = (now[1] - self._last[1]) / max(now[0] - self._last[0], 1e-9)
        self._last = now
        try:
            if busy > 0.5:
                with open(self._stat) as handle:
                    cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
            else:
                self._turn += 1
                cpu = self._cpus[self._turn % len(self._cpus)]
            os.sched_setaffinity(0, {cpu})
        except (OSError, ValueError, IndexError):
            pass  # sample wherever the thread is


class _Background:
    """Context manager owning the sampler thread; joins it on exit."""

    def __init__(self, sampler: RefSampler, interval: float):
        self._sampler = sampler
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="ref-sampler")

    def _loop(self) -> None:
        follower = _Follower()
        while True:
            follower.place()
            self._sampler.sample()
            if self._stop.wait(self._interval):
                return

    def __enter__(self) -> "_Background":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
