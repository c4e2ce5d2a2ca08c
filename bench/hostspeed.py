"""The host's speed, measured with a fixed kernel that is not the library.

On a shared virtual machine the same deterministic work runs up to 1.8 times
slower for seconds or minutes at a time, while neighbours load the host.  A
20-40 s run can fall wholly inside such a phase, so no estimator over the run's
own times (least, median) is steady between runs.  The kernel below slows
with the host nearly as the library does: in 4 s bins over 110 s on the
reference VM, a `bergman_norm_p` operation ranged 25.8-46.0 ms while its
ratio to the kernel's time stayed within 1.84-2.17.

run.py times the kernel between the library's operations and reports each
operation's time scaled by `REFERENCE_S / kernel time`: seconds on a host
that runs the kernel in REFERENCE_S.  A change to the library moves the
scaled times as it moves the raw ones; a change in the host's load moves
both the operation and the kernel, and mostly cancels.

numpy is imported on first use, so that importing this module does not
shorten the library's import that set-up times.
"""

from __future__ import annotations

import statistics
import time

# about the kernel's time on the reference VM (2-vCPU Xeon, 2.1 GHz) when
# its host is quiet, so scaled times read close to quiet-host seconds
REFERENCE_S = 0.010
KERNEL_POINTS = 75_000
_z = None


def kernel_s() -> float:
    """One timed run of the kernel: an elementwise complex power and a sum
    over KERNEL_POINTS points, single-threaded numpy, about 10 ms."""
    global _z
    import numpy as np

    if _z is None:
        _z = np.linspace(0.0, 1.0, KERNEL_POINTS) + 0.5j
    t0 = time.perf_counter()
    float(np.abs(_z ** -1.7).sum())
    return time.perf_counter() - t0


def scale_now(samples: int = 5) -> float:
    """REFERENCE_S over the median of `samples` kernel runs made now."""
    kernel_s()  # first run pays page faults on the array
    return REFERENCE_S / statistics.median(kernel_s() for _ in range(samples))
