"""Lattice work of one round of the benchmark's operations.

    python3 tools/lattice_work.py --workload closed_form --seed 5501
    python3 tools/lattice_work.py --seed 1101        # every workload

Run from the repository root, with the library imported from ./src and the
operation lists from bench/workloads.py (built with warm_up=False, so each
operation runs exactly once).  For each workload it prints the lattice runs
(`_LogPolarNorm.run` calls), the levels they complete, the evaluations
of a lattice (`_LogPolarNorm._level` calls) at each level and in all, the
family evaluations the runs count against their budget, those evaluations
by kind, and the convolution kernels built (`_Side._conv_kernel` calls).
The kinds are the copies of the source under the atoms, under the Gauss
nodes of the level's rule and under those of the rule one lower, and the
rows convolved with the kernels; they add up to the evaluations.  The
counters wrap those three methods and `_Side.level` from outside while the
round runs and restore them after it; nothing under src/ or bench/ is
changed, and the outcomes are not checked.
"""

from __future__ import annotations

import argparse
import collections
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


KINDS = ("atoms", "gauss", "lower", "kernel rows")


def _kinds(lv, n_v: int) -> tuple:
    """Family evaluations per theta node of one side's _SideLevel on n_v
    rows, per kind of KINDS."""
    n_lower = len(lv.shifts) - lv.n_atoms - lv.n_gauss
    return (n_v * lv.n_atoms, n_v * lv.n_gauss, n_v * n_lower,
            sum(n_v + len(kr.a) - 1 for kr in lv.kernels))


def lattice_work(ops) -> dict:
    """Run each operation's `run` once and count the lattice work it does:
    runs, levels (completed levels, summed over the runs), calls
    (`_level` calls, each one evaluation of a lattice, per level index),
    evals (family evaluations), kinds (those evaluations per kind of KINDS)
    and kernels (convolution kernels built)."""
    from hausdorff_bergman.logpolar import _LogPolarNorm, _Side, _theta_rule

    work = {"runs": 0, "levels": 0, "calls": collections.Counter(), "evals": 0,
            "kinds": dict.fromkeys(KINDS, 0), "kernels": 0}
    run, level, conv_kernel = _LogPolarNorm.run, _LogPolarNorm._level, _Side._conv_kernel
    side_level = _Side.level
    built = []  # _kinds of each side of the _level call under way

    def counted_run(self):
        res = run(self)
        work["runs"] += 1
        work["levels"] += res.subdivisions_used
        work["evals"] += self.evals
        return res

    def counted_level(self, lvl, *args, **kwargs):
        work["calls"][lvl] += 1
        built.clear()
        out = level(self, lvl, *args, **kwargs)  # evaluates nothing over budget
        n_theta = len(_theta_rule(lvl, self.mirror is not None)[0])
        for counts in built:
            for kind, n in zip(KINDS, counts):
                work["kinds"][kind] += n_theta * n
        return out

    def counted_side_level(self, rule, h, n_v, *args, **kwargs):
        lv = side_level(self, rule, h, n_v, *args, **kwargs)
        built.append(_kinds(lv, n_v))
        return lv

    def counted_kernel(self, *args, **kwargs):
        work["kernels"] += 1
        return conv_kernel(self, *args, **kwargs)

    _LogPolarNorm.run, _LogPolarNorm._level = counted_run, counted_level
    _Side.level, _Side._conv_kernel = counted_side_level, counted_kernel
    try:
        for op in ops:
            op.run()
    finally:
        _LogPolarNorm.run, _LogPolarNorm._level = run, level
        _Side.level, _Side._conv_kernel = side_level, conv_kernel
    return work


def format_work(name: str, work: dict) -> str:
    calls = work["calls"]
    per_level = " ".join(f"{lvl}:{calls[lvl]}" for lvl in sorted(calls))
    kinds = " / ".join(f"{kind} {n:,}" for kind, n in work["kinds"].items())
    return (f"{name:14s} runs {work['runs']:4d}  levels {work['levels']:5d}  "
            f"_level calls {sum(calls.values()):5d} ({per_level or 'none'})  "
            f"evals {work['evals']:,} ({kinds})  kernel builds {work['kernels']}")


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
