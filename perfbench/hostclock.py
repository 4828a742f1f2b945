"""Host-speed calibration: how fast this host runs fixed work, moment by moment.

On a shared host the same pass over a workload can take 6 s in one minute
and 10 s in the next, and the slow phases last from a second to several
minutes, so no choice of run length or estimator removes them. What does
remove them is measuring the host's speed at the same moments as the
program. `HostClock` runs a fixed kernel from a SIGALRM handler every
`INTERVAL_S` seconds, in the worker's own main thread, between the
program's bytecodes. There are two kernels, one per kind of cost, because
slow phases do not slow every kind of work by the same factor: the
`small` kernel for pgflow's 2-D loops, where per-call numpy dispatch is
the cost, and the `wide` kernel for n = 1000 work, where per-element
arithmetic and allocation are. Each workload names the kernel that
resembles its hot path (`workloads.HOST_KERNEL`).

Each stretch of program time between two kernel runs is scaled by
`reference / d`, where d is the kernel's time around that moment (the
median of three neighbouring runs, so one preempted kernel run does not
count) and `reference` a fixed scale, about its typical time on the host
the benchmark was built on. The result is the time the work would have
taken on that host at that speed: a program that does more work reads
slower, a host that is slower right now does not. The kernel's own time
is subtracted from the program's. At one 0.3 ms run every 10 ms it takes
about 3% of the run.

d is the kernel's thread CPU time, not its wall time. Slow host phases
show in both (CPU time tracks wall time on the build host). But if a
later pgflow runs work in parallel threads or processes, a kernel that
has to share a core with that work loses wall time to it, not CPU time,
so the parallel work is not credited with a speed-up the host did not
give it.

Set-up runs in fresh interpreters, whose cost (loading files and shared
libraries, unmarshalling code) neither kernel tracks. It is scaled by
the time of a bare interpreter start-up instead (`startup_seconds`).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.01

_LO, _HI = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
_CENTER = np.array([0.4, -0.3])
_A, _D, _P = np.linspace(-1.0, 1.0, 1000), np.ones(1000), np.full(1000, 0.3)


def small_kernel() -> float:
    """pgflow's 2-D hot loop in miniature: a projected gradient step of
    small numpy operations, where per-call dispatch is the cost."""
    x = np.array([0.9, 0.7])
    for _ in range(60):
        y = x - 0.05 * (2.0 * (x - _CENTER))
        x = np.minimum(np.maximum(y, _LO), _HI)
        float(np.dot(x - y, x - y))
    return float(x[0])


def wide_kernel() -> float:
    """`objectives.grad_check` in miniature at n = 1000: central differences
    of a quadratic, where per-element work is the cost."""
    worst = 0.0
    for i in range(24):
        e = np.zeros(1000)
        e[i] = 1e-5
        r, s = _P + e - _A, _P - e - _A
        worst = max(worst, abs(float(_D @ (r * r)) - float(_D @ (s * s))))
    return worst


# Each kernel and its reference time: a fixed scale, about the kernel's
# typical thread CPU time on the host the benchmark was built on, so that
# normalised times read as seconds of that host.
KERNELS = {"small": (small_kernel, 2.7e-4), "wide": (wide_kernel, 3.2e-4)}

# The same for a bare `python3 -I -S -c pass`, in wall seconds.
STARTUP_REFERENCE_S = 0.012


def startup_seconds(repeats: int) -> list:
    """Wall times of `repeats` bare interpreter start-ups, made right now."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True, timeout=30)
        out.append(time.perf_counter() - t0)
    return out


class HostClock:
    """Samples the kernel on a timer and normalises program time with it."""

    def __init__(self, kernel_name: str):
        self.kernel, self.reference = KERNELS[kernel_name]
        self.starts: list = []   # perf_counter at each kernel run's start
        self.walls: list = []    # wall seconds of each kernel run
        self.cpus: list = []     # thread CPU seconds of each kernel run
        self._smooth = None

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        self.kernel()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.starts.append(t0)
        self.walls.append(t1 - t0)
        self.cpus.append(c1 - c0)

    def start(self) -> None:
        for _ in range(3):  # warm the kernel before its first timed run
            self.kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        cpus = self.cpus
        self._smooth = [statistics.median(cpus[max(0, i - 1):i + 2]) for i in range(len(cpus))]

    def normalize(self, t0: float, t1: float) -> tuple:
        """(work wall s, normalised wall s, kernel CPU s) over [t0, t1).

        Work is the interval minus the kernel runs inside it. Each stretch
        of work is scaled by the reference over the smoothed kernel time of
        the run that ended it; the last stretch uses the next run after t1.
        """
        smooth = self._smooth
        if not smooth:
            raise ValueError("the host clock took no samples; was it started and stopped?")
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        work = norm = 0.0
        prev = t0
        for q in range(i, j):
            stretch = self.starts[q] - prev
            work += stretch
            norm += stretch * self.reference / smooth[q]
            prev = self.starts[q] + self.walls[q]
        stretch = max(0.0, t1 - prev)
        work += stretch
        norm += stretch * self.reference / smooth[min(j, len(smooth) - 1)]
        return work, norm, sum(self.cpus[i:j])
