"""Host-speed sampling, so timings survive a host whose speed drifts.

On a shared virtual machine the same interpreted work can take 1.5x longer
for tens of seconds at a time, and the process's own CPU time stretches
with it (no steal is reported).  One sampler process per CPU, pinned to
it, runs a fixed pure-Python calibration loop for a few milliseconds every
:data:`PERIOD_S` and records the loop's thread CPU time.  A measured
interval is reported *speed-normalised*: its host seconds times
``REFERENCE_S / (median calibration time during the interval)``, the
seconds it would have taken on a host that runs the calibration loop in
:data:`REFERENCE_S`.  Serial work is pinned to one CPU and normalised by
that CPU's sampler; parallel work by the mean over all CPUs.

Work the program adds or removes moves the normalised time as it moves
the raw one.  Host drift mostly does not: on a shared 2-vCPU virtual
machine the spread (quartile distance over median) of five runs fell from
about 15% raw to 3-6% normalised.  It does not vanish, because the
calibration loop and the simulator do not slow down identically.

    python perfbench/speed.py samples.txt   # sample until terminated
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from common import median

#: Sampling period and the calibration loop's CPU time on the reference
#: host (a quiet 2-vCPU x86-64 virtual machine running CPython 3.11).
PERIOD_S = 0.1
REFERENCE_S = 0.0045
_ITERATIONS = 9000


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def calibrate(slots: Sequence[_Slot], table: List[int]) -> int:
    """Fixed interpreter-bound work shaped like the simulator's: method
    calls on slotted objects and scattered stores into a 256 KB list."""
    acc = 0
    for i in range(_ITERATIONS):
        acc += slots[(i * 2654435761) & 4095].bump(i & 7)
        table[(i * 40503) & 32767] = acc & 255
    return acc


def sample_forever(path: Path) -> None:
    """Append ``<monotonic_ns> <cpu_ns>`` per calibration until SIGTERM."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    slots = [_Slot() for _ in range(4096)]
    table = [0] * 32768
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while True:
            start = time.thread_time_ns()
            calibrate(slots, table)
            cpu = time.thread_time_ns() - start
            out.write(f"{time.monotonic_ns()} {cpu}\n")
            time.sleep(PERIOD_S)


class Sampler:
    """One sampler process per CPU, each pinned to its CPU.

    Host slowdowns differ between virtual CPUs, so an interval is
    normalised by the samplers of the CPUs its work ran on.
    """

    def __init__(self, directory: Path, cpus: Sequence[int]) -> None:
        self.directory = directory
        self.cpus = tuple(cpus)
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Sampler":
        for cpu in self.cpus:
            proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(self.directory / f"cpu{cpu}.txt")],
                stdin=subprocess.DEVNULL)
            self._procs.append(proc)
            os.sched_setaffinity(proc.pid, {cpu})
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop and reap every sampler."""
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []

    def factor(self, start_ns: int, end_ns: int,
               cpus: Optional[Sequence[int]] = None) -> float:
        """Mean of the per-CPU speed factors over ``cpus`` (default: all)
        for an interval."""
        chosen = self.cpus if cpus is None else tuple(cpus)
        factors = [speed_factor(read_samples(self.directory / f"cpu{cpu}.txt"),
                                start_ns, end_ns)
                   for cpu in chosen]
        return sum(factors) / len(factors)


def read_samples(path: Path) -> List[Tuple[int, int]]:
    samples = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) == 2:
                    samples.append((int(fields[0]), int(fields[1])))
    except OSError:
        pass
    return samples


def speed_factor(samples: Sequence[Tuple[int, int]], start_ns: int,
                 end_ns: int) -> float:
    """``REFERENCE_S`` over the median calibration CPU time of the samples
    taken in ``[start_ns, end_ns]``, or of the nearest ones when the
    interval is shorter than the sampling period."""
    if not samples:
        raise ValueError("no host-speed samples")
    stamps = [t for t, _ in samples]
    lo, hi = bisect_left(stamps, start_ns), bisect_right(stamps, end_ns)
    if hi - lo < 2:
        middle = bisect_left(stamps, (start_ns + end_ns) // 2)
        lo, hi = max(0, middle - 1), min(len(samples), middle + 1)
    return REFERENCE_S / (median([cpu for _, cpu in samples[lo:hi]]) / 1e9)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: speed.py SAMPLES_FILE")
    sample_forever(Path(sys.argv[1]))
