"""Lattice work of one round of the benchmark's operations.

    python3 tools/lattice_work.py --workload closed_form --seed 5501
    python3 tools/lattice_work.py --seed 1101        # every workload

Run from the repository root, with the library imported from ./src and the
operation lists from bench/workloads.py (built with warm_up=False, so each
operation runs exactly once).  For each workload it prints the lattice runs
(`_LogPolarNorm.run` calls), the levels they complete, the evaluations
of a lattice (`_LogPolarNorm._level` calls) at each level and in all, the
family evaluations the runs count against their budget, and the
convolution kernels built (`_Side._conv_kernel` calls).  The counters wrap
those three methods from outside while the round runs and restore them
after it; nothing under src/ or bench/ is changed, and the outcomes are not
checked.
"""

from __future__ import annotations

import argparse
import collections
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def lattice_work(ops) -> dict:
    """Run each operation's `run` once and count the lattice work it does:
    runs, levels (completed levels, summed over the runs), calls
    (`_level` calls, each one evaluation of a lattice, per level index),
    evals (family evaluations) and kernels (convolution kernels built)."""
    from hausdorff_bergman.logpolar import _LogPolarNorm, _Side

    work = {"runs": 0, "levels": 0, "calls": collections.Counter(), "evals": 0,
            "kernels": 0}
    run, level, conv_kernel = _LogPolarNorm.run, _LogPolarNorm._level, _Side._conv_kernel

    def counted_run(self):
        res = run(self)
        work["runs"] += 1
        work["levels"] += res.subdivisions_used
        work["evals"] += self.evals
        return res

    def counted_level(self, lvl, *args, **kwargs):
        work["calls"][lvl] += 1
        return level(self, lvl, *args, **kwargs)

    def counted_kernel(self, *args, **kwargs):
        work["kernels"] += 1
        return conv_kernel(self, *args, **kwargs)

    _LogPolarNorm.run, _LogPolarNorm._level = counted_run, counted_level
    _Side._conv_kernel = counted_kernel
    try:
        for op in ops:
            op.run()
    finally:
        _LogPolarNorm.run, _LogPolarNorm._level = run, level
        _Side._conv_kernel = conv_kernel
    return work


def format_work(name: str, work: dict) -> str:
    calls = work["calls"]
    per_level = " ".join(f"{lvl}:{calls[lvl]}" for lvl in sorted(calls))
    return (f"{name:14s} runs {work['runs']:4d}  levels {work['levels']:5d}  "
            f"_level calls {sum(calls.values()):5d} ({per_level or 'none'})  "
            f"evals {work['evals']:,}  kernel builds {work['kernels']}")


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                    help="a workload to probe (repeatable); all of them by default")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for name in args.workload or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=f"lattice-{name}-") as tmp:
            ops = workloads.setup(name, args.seed, Path(tmp), warm_up=False)
            print(format_work(name, lattice_work(ops)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
