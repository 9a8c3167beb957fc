"""A reference clock for a machine whose speed drifts.

On a shared machine the same Python code can run 1.5x slower for seconds
or minutes at a time, because of load the benchmark cannot see or control;
raw wall times then differ more between runs than any bound worth having.
The benchmark therefore runs a fixed pure-Python kernel right before and
right after each measured op, for about 5% of the op's time in all, and
reports the op's time on a fixed scale: as if one kernel call around it had
taken exactly NOMINAL_S.  The kernel depends on nothing in hypspeed, so a
change to the program changes the scaled times by the same factor as the
raw ones on a steady machine.

Set-up time is not scaled: it is a few short process starts, too short for
a kernel run before or after them to sample the same machine state.
"""

from __future__ import annotations

import math
from time import perf_counter

#: one kernel call, on the reported scale (about its speed on a 2-core
#: Intel Xeon cloud machine under typical load)
NOMINAL_S = 250e-6
#: share of the measured time spent running the kernel
SHARE = 0.05


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def kernel() -> float:
    """Interpreter-bound work of the kind hypspeed does: small objects,
    attribute access, float and complex arithmetic, math calls."""
    acc, z = 0.0, complex(0.5, 0.25)
    for i in range(1, 300):
        p = _Point(0.5 * i, math.sqrt(i))
        z = z * 0.999 + complex(p.x, -p.y) * 1e-3
        acc += math.atan2(p.y, p.x) + abs(z) + math.log1p(p.x) / (i + 1.0)
    return acc


class RefClock:
    """Brackets each measured op with kernel runs, each about SHARE / 2 of
    the op's time: the one before is sized by the last op of the same
    kind, the one after by the op itself."""

    def __init__(self):
        self._last: dict = {}   # op kind -> its last measured seconds
        self._before = (0.0, 0)

    def _run(self, seconds: float) -> tuple[float, int]:
        n = max(1, round(SHARE / 2 * seconds / NOMINAL_S))
        t0 = perf_counter()
        for _ in range(n):
            kernel()
        return perf_counter() - t0, n

    def before(self, kind) -> None:
        self._before = self._run(self._last.get(kind, 0.0))

    def scaled(self, kind, work_s: float) -> float:
        """`work_s`, measured since `before(kind)`, on the reference scale."""
        self._last[kind] = work_s
        (t0, n0), (t1, n1) = self._before, self._run(work_s)
        return work_s * NOMINAL_S * (n0 + n1) / (t0 + t1)
