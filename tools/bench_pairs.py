"""Alternating before/after runs of bench/run.py on two commits.

    python3 tools/bench_pairs.py PARENT CHANGE --tag TAG --seed N --seconds S \
        --pairs apply_batch=10 --pairs operator_norm=5 ...
    python3 tools/bench_pairs.py --summarize BENCH_TAG.json

Run from the repository root, with the standard library only.  Each side
runs from a `git archive` copy of its commit in a temporary directory, so
nothing is written under bench/ or anywhere else in the working tree.  For
each workload the pairs alternate which side runs first (odd pairs the
parent first), each run `bench/run.py --workload W --seed N --seconds S
--trace 0`, and the last JSON line of every run is kept.  The result goes
to BENCH_<tag>.json: the commits with their src line counts, and per
workload the pair count, each side's medians and every run.

--summarize prints each side's src line count and their difference, then,
per workload and end-to-end metric, each side's median and quartiles, the change's wins (pairs where it reads better; ties count
for neither) and the parent's interquartile range, the spread a claimed
gain must exceed.  A metric whose change median lies above the parent's
upper quartile is marked WORSE.  Next to peak_rss_mb it prints each side's
median `attempted`, the operations a run timed: bench/run.py keeps a record
per timed operation, so a side that fits more rounds into its seconds reads
a higher peak.  Under each workload's name it prints each side's failed
share (failed over attempted operations, over all its runs) and its runs
that read `correct: false`, marked FAILED where either side has any of
either: bench/run.py exits 0 on such a run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# end-to-end metrics of bench/run.py; every one reads better when lower
METRICS = ("setup_s", "wall_s", "op_p50_ms", "cpu_s", "peak_rss_mb")


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by statistics.quantiles'
    exclusive method; a single value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(bench: dict) -> dict:
    """Per workload and metric: each side's (q1, median, q3), the change's
    wins over the pairs, the pair count, the parent's interquartile range
    and whether the change's median lies above the parent's upper quartile
    (worse).  Pairs are the runs of the same index on both sides."""
    out = {}
    for name, wl in bench["workloads"].items():
        rows = {}
        for metric in METRICS:
            parent = [r["metrics"][metric]["value"] for r in wl["runs"]["parent"]]
            change = [r["metrics"][metric]["value"] for r in wl["runs"]["change"]]
            p_q, c_q = quartiles(parent), quartiles(change)
            rows[metric] = {
                "parent": p_q,
                "change": c_q,
                "wins": sum(c < p for p, c in zip(parent, change)),
                "pairs": min(len(parent), len(change)),
                "parent_iqr": p_q[2] - p_q[0],
                "worse": c_q[1] > p_q[2],
            }
        out[name] = rows
    return out


def attempted(bench: dict) -> dict:
    """Per workload: each side's median `attempted` (operations timed in a run)."""
    return {name: {side: statistics.median(r["attempted"] for r in runs)
                   for side, runs in wl["runs"].items()}
            for name, wl in bench["workloads"].items()}


def failures(bench: dict) -> dict:
    """Per workload and side: (failed share of the attempted operations over
    all runs, runs not correct, runs)."""
    return {name: {side: (sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs)),
                          sum(not r["correct"] for r in runs), len(runs))
                   for side, runs in wl["runs"].items()}
            for name, wl in bench["workloads"].items()}


def format_src_lines(bench: dict) -> str:
    """Each side's src line count and the change's difference."""
    parent, change = bench["parent"]["src_lines"], bench["change"]["src_lines"]
    return f"src_lines    parent {parent}  change {change}  {change - parent:+d}"


def format_summary(summary: dict, counts: dict, failed: dict) -> str:
    """The summary's lines, with each side's failed share and incorrect runs
    (failed, from failures) under the workload's name and its median
    operation count (counts, from attempted) after the peak_rss_mb line."""
    lines = []
    for name, rows in summary.items():
        lines.append(name)
        sides = failed[name]
        lines.append(f"  {'failed':12s} " + "  ".join(
            f"{side} {share:.3%}, {bad}/{n} runs incorrect"
            for side, (share, bad, n) in sides.items())
            + ("  FAILED" if any(share or bad for share, bad, _ in sides.values()) else ""))
        for metric, r in rows.items():
            (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
            rel = (cm - pm) / pm if pm else float("nan")
            lines.append(f"  {metric:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
                         f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {rel:+.1%}  "
                         f"wins {r['wins']}/{r['pairs']}  parent IQR {r['parent_iqr']:.3g}"
                         + ("  WORSE" if r["worse"] else ""))
            if metric == "peak_rss_mb":
                n = counts[name]
                lines.append(f"  {'attempted':12s} parent {n['parent']:g}  change {n['change']:g}"
                             f"  {(n['change'] - n['parent']) / n['parent']:+.1%}")
    return "\n".join(lines)


def _archive(rev: str, dest: Path) -> tuple[str, int]:
    """Extract commit rev into dest; return its full hash and src line count."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", commit],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (dest / "src").rglob("*.py"))
    return commit, src_lines


def _run(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a copy; its last line of standard output."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py {workload} in {copy} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip() or "unknown"
    return (f"{os.cpu_count()} CPUs ({cpu}), Python {platform.python_version()}, "
            f"numpy {numpy}; times host-scaled by bench/hostspeed.py")


def run_pairs(parent: str, change: str, pairs: dict, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies, sides = {}, {}
        for side, rev in (("parent", parent), ("change", change)):
            copies[side] = Path(tmp) / side
            commit, src_lines = _archive(rev, copies[side])
            sides[side] = {"commit": commit, "src_lines": src_lines}
        workloads = {}
        for workload, n in pairs.items():
            runs = {"parent": [], "change": []}
            for i in range(1, n + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for side in order:
                    print(f"{workload} pair {i}/{n}: {side}", file=sys.stderr, flush=True)
                    runs[side].append(_run(copies[side], workload, seed, seconds))
            workloads[workload] = {
                "pairs": n,
                "median": {side: {m: statistics.median(r["metrics"][m]["value"] for r in rs)
                                  for m in METRICS} for side, rs in runs.items()},
                "runs": runs,
            }
    return {
        "what": (f"bench/run.py --workload W --seed {seed} --seconds {seconds:g} --trace 0, "
                 "the last JSON line of each run, parent and change alternating (odd pairs "
                 "parent first); each side from a git archive of its commit "
                 "(tools/bench_pairs.py)"),
        "machine": _machine(),
        "seed": seed,
        "seconds": seconds,
        **sides,
        "workloads": workloads,
    }


def _pair_count(text: str) -> tuple[str, int]:
    name, _, n = text.partition("=")
    if not name or not n.isdigit() or int(n) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {text!r}")
    return name, int(n)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--summarize", metavar="FILE", help="print the summary of a BENCH_*.json")
    ap.add_argument("parent", nargs="?", help="the commit measured as the parent")
    ap.add_argument("change", nargs="?", help="the commit measured as the change")
    ap.add_argument("--tag", help="writes BENCH_<tag>.json")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--pairs", type=_pair_count, action="append", metavar="WORKLOAD=PAIRS")
    args = ap.parse_args(argv)

    if args.summarize:
        bench = json.loads(Path(args.summarize).read_text(encoding="utf-8"))
        print(format_src_lines(bench))
        print(format_summary(summarize(bench), attempted(bench), failures(bench)))
        return 0
    missing = [k for k in ("parent", "change", "tag", "seed", "seconds", "pairs")
               if getattr(args, k) is None]
    if missing:
        ap.error("without --summarize, need " + ", ".join(missing))
    bench = run_pairs(args.parent, args.change, dict(args.pairs), args.seed, args.seconds)
    out = Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(format_src_lines(bench))
    print(format_summary(summarize(bench), attempted(bench), failures(bench)))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
