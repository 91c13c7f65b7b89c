"""Host-speed-normalised seconds.

The benchmark runs on a few virtual CPUs of a shared host, and the speed
of each virtual CPU moves with the load of its neighbours: a fixed Python
loop pinned to one CPU ran between 0.40 and 0.77 ms per call in 3-second
windows of one minute, and the two CPUs of one container moved largely
independently of each other.  Wall time on such a host measures the
neighbours as much as the program.

``HostClock`` measures the speed of one CPU while the program runs on it.
A sampler thread, pinned to that CPU, runs a fixed pure-Python kernel
(``kernel``, which calls no ``repro`` code) every ``PERIOD_S`` and records
how long it took.  A span of wall time is then converted to *reference
seconds*: each stretch of it is multiplied by ``REFERENCE_KERNEL_S`` over
the median kernel time sampled in that stretch — the time the span would
have taken on a CPU that runs the kernel in ``REFERENCE_KERNEL_S``.  A
change to the program moves its reference seconds as it moves its wall
time; a busy neighbour moves them far less (``README.md``, *Steadiness*).

The sampler takes the GIL for well under a millisecond per sample, so it
costs the program a few percent of its CPU, the same on every run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: seconds between two samples
PERIOD_S = 0.01
#: kernel seconds that make one reference second: about the kernel's time
#: on the 2-core container that defined the benchmark when its host was
#: quiet (0.18-0.19 ms; 0.27-0.31 ms when busy).  A fixed scale, the
#: same for every run
REFERENCE_KERNEL_S = 0.0002
#: a span longer than this is converted stretch by stretch
STRETCH_S = 1.0
#: fewest samples a stretch's speed is taken from
MIN_SAMPLES = 3


def kernel(n: int = 160) -> int:
    """Fixed interpreter work in two shapes the program has: records built
    as dicts and sorted by a key function (a compiler's work lists), and a
    register-machine loop over a small code list (a simulator's)."""
    records = []
    for i in range(n):
        record = {"op": "add", "a": i, "b": i + 1, "w": i & 31}
        records.append(record)
        if record["w"] > 16:
            record["w"] -= 16
    records.sort(key=lambda r: (r["w"], r["a"]))
    regs = [0] * 16
    memory: dict = {}
    code = [(i % 5, i % 16, (i * 7) % 16) for i in range(64)]
    pc = acc = 0
    for _ in range(4 * n):
        op, a, b = code[pc]
        if op == 0:
            regs[a] = (regs[a] + regs[b] + 1) & 0xFFFFFFFF
        elif op == 1:
            regs[a] = (regs[a] ^ (regs[b] << 1)) & 0xFFFFFFFF
        elif op == 2:
            memory[regs[b] & 255] = regs[a]
        elif op == 3:
            regs[a] = memory.get(regs[b] & 255, 0)
        else:
            acc += regs[a] >> 3
        pc = (pc + 1) & 63
    return len(records) + acc


#: the CPUs the process may run on, read before anything is pinned
ALLOWED = tuple(sorted(os.sched_getaffinity(0)))
#: the CPU the benchmark runs on, with every process it starts
MAIN_CPU = ALLOWED[0]


def pin(cpu=None) -> None:
    """Pin the calling thread, and what it later starts, to ``cpu``
    (``None``: release it to every allowed CPU)."""
    os.sched_setaffinity(0, set(ALLOWED) if cpu is None else {cpu})


class HostClock:
    """Samples one CPU's speed between ``start`` and ``stop``."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        #: each sample's mid time, and its reference seconds per wall second
        self.times: list = []
        self.factors: list = []
        self._stop = threading.Event()
        self._thread = None

    def start(self) -> "HostClock":
        self._thread = threading.Thread(
            target=self._sample, name="perfbench-hostclock", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "HostClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _sample(self) -> None:
        pin(self.cpu)
        try:
            # so that a busy process on the same CPU does not preempt a
            # sample; without the privilege, samples are only noisier
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), -10)
        except OSError:
            pass
        while not self._stop.wait(PERIOD_S):
            began = time.perf_counter()
            kernel()
            ended = time.perf_counter()
            self.times.append((began + ended) / 2)
            self.factors.append(REFERENCE_KERNEL_S / (ended - began))

    def factor(self, start: float, end: float) -> float:
        """Median reference seconds per wall second over ``[start, end]``,
        widened to the nearest ``MIN_SAMPLES`` samples when it holds fewer."""
        if len(self.times) < MIN_SAMPLES:
            raise RuntimeError(
                f"host clock on cpu {self.cpu} took {len(self.times)} samples"
            )
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES:
            before = self.times[lo - 1] if lo > 0 else None
            after = self.times[hi] if hi < len(self.times) else None
            if after is None or (before is not None and start - before <= after - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.factors[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall span ``[start, end]``."""
        total = 0.0
        stretches = max(1, round((end - start) / STRETCH_S))
        step = (end - start) / stretches
        for i in range(stretches):
            a = start + i * step
            total += step * self.factor(a, a + step)
        return total
