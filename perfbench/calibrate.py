"""Host-speed calibration for the benchmark's timings.

The hosts this benchmark runs on share their CPUs, and their speed for
pure-Python work drifts by tens of percent over seconds to minutes with
no trace in CPU or steal time.  Every timed region is therefore
bracketed by a fixed piece of pure-Python work that is shaped like the
program's hot paths: small dataclass instances, tuple-keyed dict
updates, string formatting, a set, a sort and a join.  It is independent
of the program, so a change to the program cannot move it.

A raw time t is reported as t * REFERENCE_S / k, where k is the median
kernel time measured around it: seconds on a host that runs the kernel
in REFERENCE_S.  Sampled on one shared 2-vCPU Xeon VM, the raw run time
of one scenario varied by 38% between 6-second blocks, and the
calibrated one by 4%.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# Kernel time on a reference host; chosen near the median of the 2-vCPU
# Xeon VM above.  Changing it rescales every reported time.
REFERENCE_S = 0.02
KERNEL_MESSAGES = 6000
ORIGINS = tuple(f"V{i:03d}" for i in range(40))


@dataclass(frozen=True)
class _Message:
    topic: str
    origin: str
    seq: int


@dataclass
class _Entry:
    message: _Message
    local: bool


def kernel() -> int:
    """The fixed work; returns a value so none of it can be skipped."""
    seqs: dict[tuple[str, str], int] = {}
    bus: list[_Entry] = []
    for i in range(KERNEL_MESSAGES):
        origin = ORIGINS[i % len(ORIGINS)]
        key = (origin, "t")
        seq = seqs.get(key, 0) + 1
        seqs[key] = seq
        bus.append(_Entry(_Message(f"/{origin}/t{i % 7}", origin, seq), i % 3 == 0))
    topics = sorted({entry.message.topic for entry in bus})
    text = " ".join(f"{e.message.origin}={e.message.seq}" for e in bus if e.local)
    return len(topics) + len(text)


def sample(repeats: int) -> list[float]:
    """Time the kernel `repeats` times."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times


def factor(kernel_times: list[float]) -> float:
    """Multiplier from raw host seconds to reference-host seconds."""
    return REFERENCE_S / statistics.median(kernel_times)
