"""CPU-speed probe that runs beside the measured processes on the same CPU.

On a shared host a CPU's speed drifts by 15-30% over seconds to minutes
(other tenants' load on the same core), which swamps the differences a
benchmark must resolve.  The probe is a small process pinned to the CPU
the benchmark runs on.  Every ``PERIOD_S`` it runs a fixed pure-Python
burst of ``BURST_LOOPS`` iterations twice, back to back, and times the
second one: the first, untimed, brings the burst's code and data back into
cache after the measured program had the CPU, so the timed burst depends
on the CPU's speed and not on what the program left in the caches.  The
two bursts take about 0.6 ms, ~1.5% of the CPU.  ``Probe.scale(t0, t1)``
is the mean of ``REF_BURST_S / burst time`` over the interval: the factor
that rescales a wall time measured then to the speed at which the burst
takes ``REF_BURST_S``.

    python3 perfbench/speed.py OUT.json      # probe until SIGTERM
"""

from __future__ import annotations

import bisect
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

BURST_LOOPS = 3000
PERIOD_S = 0.04
#: burst time that defines the reference speed (fixed; never re-tuned)
REF_BURST_S = 2.5e-4
#: an interval holding fewer bursts is scaled by this many nearest bursts
MIN_BURSTS = 8


def _burst() -> int:
    s = 0
    for i in range(BURST_LOOPS):
        s += i * i % 7
    return s


def _probe_main(out_path: str) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    stamps = []
    while not stop:
        _burst()
        t0 = time.monotonic()
        _burst()
        stamps.append((t0, time.monotonic()))
        time.sleep(PERIOD_S)
    with open(out_path, "w") as fh:
        json.dump(stamps, fh)
    return 0


class Probe:
    """Starts the probe process; ``stop`` collects its bursts."""

    def __init__(self, out_path: Path, env: dict):
        self.out_path = out_path
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(out_path)],
            env=env)
        self.mids: list = []
        self.ratios: list = []

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)
        with open(self.out_path) as fh:
            stamps = json.load(fh)
        if len(stamps) < MIN_BURSTS:
            raise RuntimeError("speed probe recorded too few bursts")
        self.mids = [0.5 * (a + b) for a, b in stamps]
        self.ratios = [REF_BURST_S / (b - a) for a, b in stamps]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def scale(self, t0: float, t1: float) -> float:
        """Mean speed ratio of the bursts in [t0, t1], or of the
        ``MIN_BURSTS`` bursts nearest the interval's midpoint."""
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        if hi - lo < MIN_BURSTS:
            mid = bisect.bisect_left(self.mids, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_BURSTS // 2, len(self.mids) - MIN_BURSTS))
            hi = lo + MIN_BURSTS
        return sum(self.ratios[lo:hi]) / (hi - lo)


if __name__ == "__main__":
    sys.exit(_probe_main(sys.argv[1]))
