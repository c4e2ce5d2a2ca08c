"""Time one cold set-up of a workload in this fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds from before the library's import to the end of the
warm-up operation (see workloads.setup), then the host-speed scale measured
right after it (hostspeed.scale_now).  run.py starts several of these to
take the median scaled set-up time.
"""

import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{name}-", dir=BENCH_DIR / "out"))
    try:
        t0 = time.perf_counter()
        workloads.setup(name, seed, workdir)
        elapsed = time.perf_counter() - t0
        scale = hostspeed.scale_now()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed), repr(scale))
