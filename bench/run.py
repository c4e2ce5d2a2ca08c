"""Benchmark of hausdorff_bergman, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; progress and failed operations go to standard error.

Every time in the end-to-end metrics is scaled to a reference host speed
(hostspeed.py): a fixed kernel is timed between operations, at least every
CALIBRATE_EVERY_S, and each operation's time is multiplied by
REFERENCE_S over the mean of the kernel's times just before and just after it.

--trace 0 reports the end-to-end metrics:
  setup_s      median of SETUP_SAMPLES scaled cold set-ups (this process and
               fresh child processes): import, inputs through the CLI's
               parsers, one warm-up operation
  wall_s       time of the workload's fixed operation list: the sum over
               its operations of each one's scaled time, its interquartile
               mean over the rounds
  op_p50_ms    median over the operation list of those times
  cpu_s        the same sum for process CPU time, all threads
  peak_rss_mb  peak resident set size of this process after the timed rounds
--trace 1 times the same rounds, then runs one more round with spans on the
library's module boundaries (tracing.py) and reports the per-layer metrics,
whose times are not scaled.

Rounds are repeated until --seconds have passed.  Every operation's outcome
must repeat bitwise in every round (the library promises deterministic
refinement); the first round's outcomes are then checked against oracles
(workloads.py, oracles.py) after all timing has ended.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
CALIBRATE_EVERY_S = 0.2
# library callables that verify's harness calls at module level
# (harness.<name>); the kernel may run before each
VERIFY_CHECKPOINTS = (
    "bergman_norm_p", "bergman_norm_p_power", "as_function",
    "run_gnorm_experiment", "run_sharpness_sweep", "run_truncated_norm_experiment",
    "run_sector_experiment", "run_boundedness_matrix", "run_growth_decay_check",
    "run_lower_bound_experiment", "run_feps_norm_experiment", "run_quasi_equivalence",
    "run_minkowski_samples",
)

sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402  (numpy loads on first use, after set-up)
import workloads  # noqa: E402  (standard library only; the library loads in setup)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def same(a, b) -> bool:
    """Bitwise equality of outcomes made of tuples, lists, dicts, scalars and arrays."""
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if hasattr(a, "shape"):
        import numpy as np

        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b or (a != a and b != b)


@dataclass(frozen=True)
class Raised:
    """Outcome of an operation that raised."""

    message: str


def timed_setup(name: str, seed: int, workdir: Path):
    """The operation list, and the scaled time of building it (see setup_probe.py)."""
    t0 = time.perf_counter()
    ops = workloads.setup(name, seed, workdir)
    elapsed = time.perf_counter() - t0
    return ops, elapsed * hostspeed.scale_now()


def probe_setups(name: str, seed: int, n: int) -> list[float]:
    """Scaled cold set-up times from n fresh interpreters, one after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, scale = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append(elapsed * scale)
    return times


def time_op(op):
    """Start and end of one operation on the wall and CPU clocks, and its outcome."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res = op.run()
    except Exception as exc:  # a raising operation is a failed one
        res = exc
    t1 = time.perf_counter()
    c1 = time.process_time()
    outcome = (Raised(f"{type(res).__name__}: {res}")
               if isinstance(res, Exception) else op.outcome(res))
    return (t0, t1, c0, c1), outcome


class HostClock:
    """Runs of the host-speed kernel on the wall-clock timeline, and the
    scaled length of any interval between them."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float, float]] = []  # (start, end, CPU time)
        self.kernel: list[float] = []  # the kernel's own times

    def calibrate(self) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.kernel.append(hostspeed.kernel_s())
        self.runs.append((t0, time.perf_counter(), time.process_time() - c0))

    def checkpoint(self) -> None:
        """Run the kernel if CALIBRATE_EVERY_S have passed since its last run."""
        if not self.runs or time.perf_counter() - self.runs[-1][1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scaled(self, span, first: int, stop: int,
               pieces: bool = True) -> tuple[float, float, float, float]:
        """(wall, scaled wall, CPU, scaled CPU) of a span (t0, t1, c0, c1)
        inside which the kernel ran as runs[first:stop].

        The kernel's runs cut the span into pieces, and their own time is left
        out.  Each piece is multiplied by REFERENCE_S over the mean of the
        kernel runs just before and just after it, or with pieces=False, the
        whole span by the kernel runs just before and just after it.  CPU time
        is multiplied by the wall time's mean scale."""
        t0, t1, c0, c1 = span
        cuts = [t0] + [t for a, b, _ in self.runs[first:stop] for t in (a, b)] + [t1]
        k = self.kernel
        wall = scaled = 0.0
        for j, i in enumerate(range(first - 1, stop)):
            piece = cuts[2 * j + 1] - cuts[2 * j]
            wall += piece
            if pieces:
                scaled += piece * 2.0 * hostspeed.REFERENCE_S / (k[i] + k[i + 1])
        if not pieces:
            scaled = wall * 2.0 * hostspeed.REFERENCE_S / (k[first - 1] + k[stop])
        cpu = (c1 - c0) - sum(c for _, _, c in self.runs[first:stop])
        return wall, scaled, cpu, cpu * (scaled / wall if wall > 0 else 1.0)


@contextlib.contextmanager
def checkpoints(clock: HostClock, points):
    """Let the kernel run at each call of the (module, name) callables in
    points, so that a long operation is scaled piece by piece."""

    def hooked(fn):
        def call(*args, **kwargs):
            clock.checkpoint()
            return fn(*args, **kwargs)

        return call

    saved = []
    for module, name in points:
        fn = getattr(module, name, None)
        if callable(fn):
            saved.append((module, name, fn))
            setattr(module, name, hooked(fn))
    try:
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def checkpoint_points(workload: str) -> list:
    """Where the kernel may run inside an operation: in a verify pass, at the
    harness's experiments and at the norms and pairings they compute."""
    if workload != "verify_suite":
        return []
    from hausdorff_bergman import harness

    return [(harness, name) for name in VERIFY_CHECKPOINTS]


class Rounds:
    """Timed rounds, the host-speed kernel runs between and inside them, and
    the bitwise comparison of their outcomes."""

    def __init__(self, ops, points=()) -> None:
        self.ops = ops
        self.points = points
        self.clock = HostClock()
        self.spans: list[list[tuple]] = []  # [round][op]: (span, first, stop)
        self.first: list | None = None
        self.mismatches: list[str] = []

    def run_round(self) -> None:
        spans, outcomes = [], []
        runs = self.clock.runs
        for op in self.ops:
            self.clock.checkpoint()
            first = len(runs)
            span, outcome = time_op(op)
            spans.append((span, first, len(runs)))
            outcomes.append(outcome)
        self.spans.append(spans)
        if self.first is None:
            self.first = outcomes
            return
        for op, a, b in zip(self.ops, self.first, outcomes):
            if not same(a, b):
                self.mismatches.append(op.name)

    def run_for(self, seconds: float) -> None:
        self.clock.calibrate()
        start = time.perf_counter()
        with checkpoints(self.clock, self.points):
            while not self.spans or time.perf_counter() - start < seconds:
                self.run_round()
        self.clock.calibrate()  # every operation has a kernel run after it

    def midmeans(self, pieces: bool = True) -> list[tuple[float, float, float, float]]:
        """Each operation's (wall, scaled wall, CPU, scaled CPU), each the
        interquartile mean over the rounds."""
        table = [[self.clock.scaled(*sample, pieces=pieces) for sample in row]
                 for row in self.spans]
        return [tuple(midmean(column) for column in zip(*op_samples))
                for op_samples in zip(*table)]


def midmean(values) -> float:
    """The mean of the middle half of the values (all of them below four).

    On the scaled times it is steadier between runs than the median or the
    least value: it averages over more rounds, and drops the rounds that
    the kernel did not bracket well."""
    v = sorted(values)
    q = len(v) // 4
    return statistics.fmean(v[q:len(v) - q])


def check_ops(ops, outcomes) -> list[str]:
    """Names and reasons of the operations whose outcome fails its check."""
    failures = []
    for op, out in zip(ops, outcomes):
        reason = out.message if isinstance(out, Raised) else op.check(out)
        if reason:
            failures.append(f"{op.name}: {reason}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ops, setup_first = timed_setup(args.workload, args.seed, workdir)
        rounds = Rounds(ops, checkpoint_points(args.workload))
        rounds.run_for(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        means = rounds.midmeans()
        walls = [m[1] for m in means]

        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_ops = workloads.setup(args.workload, args.seed, workdir, warm_up=False)
                tracer.reset()
                clock = HostClock()
                traced = []
                for op in traced_ops:
                    clock.checkpoint()
                    traced.append((time_op(op), len(clock.runs)))
                clock.calibrate()
            finally:
                tracer.uninstall()
            for op, a, ((_, b), _) in zip(ops, rounds.first, traced):
                if not same(a, b):
                    rounds.mismatches.append(op.name)
            # The traced round less the untraced list time, each operation scaled
            # by the kernel runs on either side of it only: a kernel run inside
            # an operation would land inside the spans.
            traced_s = sum(clock.scaled(span, n, n, pieces=False)[1]
                           for (span, _), n in traced)
            untraced_s = sum(m[1] for m in rounds.midmeans(pieces=False))
            metrics = tracer.metrics(traced_s - untraced_s)
            tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            setups = [setup_first] + probe_setups(args.workload, args.seed, SETUP_SAMPLES - 1)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": sum(walls), "unit": "s"},
                "op_p50_ms": {"value": 1e3 * statistics.median(walls), "unit": "ms"},
                "cpu_s": {"value": sum(m[3] for m in means), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }

        failures = check_ops(ops, rounds.first)
        n_rounds = len(rounds.spans) + args.trace  # the traced round is attempted too
        for f in failures:
            log(f"FAILED {f}")
        for op, m in zip(ops, means):
            log(f"  {1e3 * m[1]:9.2f} ms scaled {1e3 * m[0]:9.2f} ms raw  {op.name}")
        kernel = rounds.clock.kernel
        for name in sorted(set(rounds.mismatches)):
            log(f"NOT REPEATED: outcome of {name} changed between rounds")
        log(f"{args.workload}: {n_rounds} rounds of {len(ops)} operations, "
            f"{len(failures)} failing per round; raw round times "
            + " ".join(f"{sum(rounds.clock.scaled(*sample)[0] for sample in row):.3f}"
                       for row in rounds.spans)
            + f"; kernel {1e3 * min(kernel):.2f}-{1e3 * max(kernel):.2f} ms "
            f"over {len(kernel)} runs")
        result = {
            "correct": not rounds.mismatches,
            "attempted": n_rounds * len(ops),
            "failed": n_rounds * len(failures),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
