"""CPU-speed probe: ``python prober.py CORE`` (started and stopped by run.py).

Why it exists.  On the shared 2-core box this benchmark was sized on, the
time a fixed piece of CPU-bound Python takes swings by up to 2x within
seconds, independently on each core, CPU time inflating with wall — so
the same build reads 2.8 s or 4.4 s depending on the minute.  A reference
kernel timed *before or after* a rep does not track that (it samples a
different moment, or the other core).  A probe that runs *on the same core
during the rep* does: every ``PERIOD_S`` it runs a fixed ~0.2 ms chunk and
records the thread CPU time the chunk took.  The probe uses ~3% of the
core; the chunks-per-CPU-second it saw over a rep's timed window is the
speed that core delivered to the rep, and run.py scales the rep's seconds
by it (see README.md, "Taking the host out of the seconds").

Protocol on stdin/stdout, one line each way: ``t0 t1`` (``now()`` clock)
answers ``count cpu_seconds`` for the samples taken inside the window.
The probe exits when stdin closes, so it cannot outlive the harness.
"""

from __future__ import annotations

import os
import select
import sys
import time

from repro.util.timing import now

PERIOD_S = 0.005


def _chunk() -> int:
    """Fixed work in the program's idiom: dict updates, appends, integer math."""
    counts: dict[int, int] = {}
    out = bytearray()
    for i in range(1000):
        key = (i * 2654435761) % 1021
        counts[key] = counts.get(key, 0) + 1
        out.append(key & 0x7F)
    return len(out)


#: The chunk's CPU clock.  ``resource.getrusage(RUSAGE_THREAD)``, which the
#: rest of the harness would use, advances in scheduler ticks here (2000
#: chunks summed to 0.011 s against 0.275 s on this clock) and cannot time
#: 0.2 ms; this is the same per-thread counter at nanosecond resolution.
_thread_cpu_s = time.thread_time


def main(core: int) -> None:
    os.sched_setaffinity(0, {core})
    samples: list[tuple[float, float]] = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            line = sys.stdin.readline()
            if not line:
                return
            t0, t1 = (float(field) for field in line.split())
            window = [cpu for t, cpu in samples if t0 <= t <= t1]
            print(len(window), repr(sum(window)), flush=True)
            samples = [sample for sample in samples if sample[0] > t0]
            continue
        cpu0 = _thread_cpu_s()
        _chunk()
        samples.append((now(), _thread_cpu_s() - cpu0))


if __name__ == "__main__":
    main(int(sys.argv[1]))
