"""Calibration loop that runs beside a workload pass, on the pass's CPU.

    python3 perfbench/calibrator.py

workload.py pins itself to one CPU and starts this right before a pass; the
affinity is inherited.  It lowers its own priority to nice CAL_NICE, which
gives it about a tenth of the CPU next to a busy pass, prints "ready" and
repeats a fixed loop until SIGTERM.  Then it prints the iterations done and
its own CPU seconds.  Their ratio is the CPU's speed during the pass,
sampled in scheduler slices interleaved with the pass's own: the speed of
one CPU of a shared 2-CPU Xeon VM was seen to drift between 0.18 s and
0.32 s per 20,000 iterations within seconds, with the other CPU moving
independently, and a pass's CPU time times this speed takes that drift out.

The loop mixes the kinds of work pointwave does, scalar float arithmetic
through function calls and elementwise numpy on short arrays, and uses no
pointwave code, so no change to the program can move it.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import time

import numpy as np

CAL_NICE = 10
CHECK_EVERY = 100  # iterations between looks at the stop flag


def main() -> int:
    os.nice(CAL_NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    r = np.linspace(0.01, 8.0, 256)
    acc = 0.0
    done = 0
    print("ready", flush=True)
    cpu0 = time.process_time()
    while not stop or not done:
        for i in range(CHECK_EVERY):
            t = i * 1e-2
            acc += math.exp(-t) * math.sin(t) + t * t
            s = r + t
            acc += float(np.sum((s * s - t) / (2.0 * r)))
        done += CHECK_EVERY
    print(done, time.process_time() - cpu0, flush=True)
    return 0 if math.isfinite(acc) else 1


if __name__ == "__main__":
    sys.exit(main())
