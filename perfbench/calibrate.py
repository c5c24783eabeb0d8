"""Machine-speed calibration for a shared, noisy host.

On a machine shared with other tenants, the speed of one core changes by up
to 1.6x from one minute to the next, which would drown any change in the
program. The benchmark therefore times a fixed pure-Python kernel next to
the program (the same objects, dict, float and string work the package
does) and reports end-to-end times scaled to the speed at which the kernel
takes ``REFERENCE_S``:

    normalized = measured * REFERENCE_S / kernel_time_measured_nearby

One calibration times ``RUNS`` kernel runs back to back (about 20 ms): a
sum, not a minimum, so it sees the average speed of the moment, as an op
does. The kernel is part of the benchmark, not of the package, so a change
to the package moves the normalized times exactly as it moves the measured
ones. The measured (raw) times are reported beside them.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from time import perf_counter

RUNS = 8

#: Time of RUNS kernel runs on a 2-core Intel Xeon VM at 2.1 GHz (CPython
#: 3.11.7) while the host was quiet. Normalized times read as seconds at
#: that speed.
REFERENCE_S = 0.020


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def kernel() -> float:
    acc = 0.0
    table: dict[str, float] = {}
    items = []
    for i in range(2000):
        key = f"t{i % 61}"
        table[key] = table.get(key, 0.0) + i * 0.25
        pair = _Pair(i * 0.5, (i % 7) * 1.5)
        items.append(pair)
        acc += math.sqrt(pair.a + pair.b)
    text = json.dumps([[p.a, p.b] for p in items[:400]])
    return acc + len(re.findall(r"\d+\.\d", text)) + len(table)


def measure() -> float:
    """Seconds taken by RUNS kernel runs."""
    start = perf_counter()
    for _ in range(RUNS):
        kernel()
    return perf_counter() - start
