"""Machine-speed calibration: fixed work that shares no code with jetlaw.

On the shared 2-vCPU virtual machine the bounds were tuned on (Intel
Xeon, 2.0 GHz), speed changed by up to 2x within seconds: the same loop
took 1.0 s and then 2.0 s, and wall time and CPU time moved together, so
CPU time does not help.  Timed alone, a run's figures spread by 20-46 %
from seed to seed; scaled as below, latency and throughput by 2-6 %.
So every worker times this fixed chunk of pure-Python work interleaved
with its own, and run.py scales its times by REFERENCE_S over the
chunk's mean time in that worker: the reported times are what the same
work would take when the chunk takes REFERENCE_S.  A change to jetlaw
does not touch the chunk, so its effect on the scaled times is the same
as on the raw ones.

The chunk does what jetlaw's hot paths do -- Fraction row reduction, as
in ratlin, and products of dict-keyed polynomials, as in the kernel --
so that it slows down with the machine the way jetlaw does.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

# The chunk's median time on the machine the bounds were tuned on
# (a 2-vCPU Intel Xeon at 2.0 GHz, Python 3.11.7, pure backend).
REFERENCE_S = 0.0090

_rng = random.Random(1)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(9)] for _ in range(8)]
_POLY = {(i, j): _rng.randint(-5, 5) for i in range(8) for j in range(8)}


def _row_reduce(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), x in p.items():
        for (c, d), y in q.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return out


def chunk() -> float:
    """Do the fixed work once; return how long it took."""
    t0 = time.perf_counter()
    for _ in range(2):
        _row_reduce(_MATRIX)
    for _ in range(3):
        _poly_mul(_POLY, _POLY)
    return time.perf_counter() - t0


class Sampler:
    """Times a chunk every `interval` seconds of wall time, from a SIGALRM
    handler, so that the samples cover a long call such as one CLI solve.
    `spent` is the time the chunks took, to be subtracted from the span
    they interrupted."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(chunk())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)
