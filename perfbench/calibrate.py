"""A fixed load that measures how fast the shared machine runs right now.

    python3 perfbench/calibrate.py

Runs as a process of its own, started by worker.py on the worker's CPU.
For each line ``n`` read from stdin it runs the load n times and writes one
line with the mean CPU seconds of one load.  The load mixes the kinds of
work the ops do: an interpreter loop, numpy passes over an array that stays
in the first-level cache, and one pass over 4 MiB.  The 4 MiB pass is timed
after an untimed pass over the same array, so its time does not depend on
what the ops left in the caches.  The process imports nothing from
dynheight and shares no heap, allocator or garbage collector with the ops,
so the state the program leaves behind cannot change the load's time; only
the machine's speed, which its neighbours move, does.
"""

from __future__ import annotations

import sys
import time

import numpy as np

clock = time.process_time

_SMALL = np.linspace(0.5, 1.5, 1 << 12)   # 32 KiB
_BIG = np.linspace(0.5, 1.5, 1 << 19)     # 4 MiB


def _big_pass() -> None:
    np.log(_BIG * _BIG + 1.0)


def _load() -> float:
    """CPU seconds of one load."""
    _big_pass()
    start = clock()
    s = 0
    for i in range(20000):
        s += i * i % 7
    y = _SMALL
    for _ in range(64):
        y = np.log(y * y + 1.0)
    _big_pass()
    return clock() - start


def main() -> int:
    for line in sys.stdin:
        n = int(line)
        print(repr(sum(_load() for _ in range(n)) / n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
