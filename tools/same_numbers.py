"""Bitwise outcomes of the benchmark's operations, and their comparison.

    python3 tools/same_numbers.py dump --seed 5501 OUT.json
    python3 tools/same_numbers.py dump --seed 5501 --workload apply_batch OUT.json
    python3 tools/same_numbers.py compare A.json B.json

dump runs every operation of bench/workloads.py once (built with
warm_up=False) with the library imported from the src/ next to this file's
tools/, and writes each one's outcome and check to OUT as JSON: every float
as float.hex (a complex as its two parts), so that two dumps compare
bitwise.  To dump another commit, run a copy of this file from a checkout
of it, such as a `git archive` of the commit.  An operation that raises
records the exception in place of its outcome.  Nothing under src/ or
bench/ is changed.

compare prints, per workload, how many operations' outcomes are bitwise
equal, and the worst relative difference of a value, |a - b| / max(|a|, |b|),
with the operation and the place in its outcome where it occurs; then for
each operation that is not equal, each place where it differs, with the
worst difference there and the number of values that differ (the values of
an array share one place, [*]); then each check that fails, or operation
that raises, in either dump.  Outcomes of different structure count as a
relative difference of inf.  It exits 1 unless every operation compared is
bitwise equal, raises on neither side and passes its check on both.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def encode(x):
    """x as JSON-ready data: a float as {"hex": float.hex}, a complex as
    {"re": ..., "im": ...} in hex, arrays, tuples and lists as lists, dicts
    with their values encoded; bools, ints, strings and None stay."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if hasattr(x, "tolist"):  # a numpy array or scalar
        return encode(x.tolist())
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return {"hex": x.hex()}
    if isinstance(x, complex):
        return {"re": x.real.hex(), "im": x.imag.hex()}
    if isinstance(x, dict):
        return {str(k): encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    raise TypeError(f"cannot encode {type(x).__name__}")


def _number(x):
    """The float or complex an encoded leaf holds, else None."""
    if isinstance(x, dict) and set(x) == {"hex"}:
        return float.fromhex(x["hex"])
    if isinstance(x, dict) and set(x) == {"re", "im"}:
        return complex(float.fromhex(x["re"]), float.fromhex(x["im"]))
    return None


def _rel(a, b) -> float:
    if a == b or (a != a and b != b):  # equal, or both nan
        return 0.0
    scale = max(abs(a), abs(b))
    diff = abs(a - b)
    return diff / scale if math.isfinite(diff) and scale > 0.0 else math.inf


def differences(a, b, path: str = ""):
    """(path, relative difference) of each leaf where two encoded outcomes
    differ in their bits: a leaf that differs in its bits only, such as 0.0
    and -0.0, reads 0.0, and one whose structure differs reads inf.  The
    index into a list of numbers reads [*], so an array's values share one
    path."""
    if a == b:
        return
    na, nb = _number(a), _number(b)
    if na is not None and nb is not None:
        yield path, _rel(na, nb)
    elif isinstance(a, dict) and isinstance(b, dict) and set(a) == set(b):
        for k in a:
            yield from differences(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        numbers = all(_number(u) is not None for u in a)
        for i, (u, v) in enumerate(zip(a, b)):
            yield from differences(u, v, f"{path}[{'*' if numbers else i}]")
    else:
        yield path, math.inf


def record(ops) -> list:
    """Each operation's name, encoded outcome (or error) and check result."""
    out = []
    for op in ops:
        try:
            outcome = op.outcome(op.run())
        except Exception as exc:  # recorded, so that the other operations still run
            out.append({"name": op.name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        out.append({"name": op.name, "outcome": encode(outcome), "check": op.check(outcome)})
    return out


def compare(a: dict, b: dict) -> dict:
    """Per workload present in both dumps: the operations compared and the
    bitwise equal ones; the worst relative difference (value, operation,
    path); per operation not equal, per path the worst difference and the
    number of leaves that differ there; and the failing checks (or errors)
    of either side."""
    result = {}
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ops_a = {r["name"]: r for r in a["workloads"][name]}
        ops_b = {r["name"]: r for r in b["workloads"][name]}
        names = list(ops_a) + [op for op in ops_b if op not in ops_a]
        equal, worst, unequal, failing = 0, (0.0, "", ""), {}, []
        for op in names:
            ra, rb = ops_a.get(op), ops_b.get(op)
            for side, r in (("A", ra), ("B", rb)):
                if r is None or "error" in r or r["check"] is not None:
                    failing.append((side, op, "missing" if r is None
                                    else r.get("error") or r["check"]))
            if ra is not None and rb is not None and ra.get("outcome", ra) == rb.get("outcome", rb):
                equal += 1
                continue
            if ra is None or rb is None or "outcome" not in ra or "outcome" not in rb:
                diffs = [("", math.inf)]
            else:
                diffs = differences(ra["outcome"], rb["outcome"])
            paths = unequal.setdefault(op, {})
            for path, rel in diffs:
                top, n = paths.get(path, (0.0, 0))
                paths[path] = (max(top, rel), n + 1)
                if rel > worst[0] or not worst[1]:
                    worst = (rel, op, path)
        result[name] = {"equal": equal, "total": len(names), "worst": worst,
                        "unequal": unequal, "failing": failing}
    return result


def same(result: dict) -> bool:
    """Whether every operation of a comparison is bitwise equal, with no
    failing check or error on either side."""
    return all(r["equal"] == r["total"] and not r["failing"] for r in result.values())


def format_comparison(result: dict) -> str:
    lines = []
    for name, r in result.items():
        rel, op, path = r["worst"]
        where = f" at {op} {path or 'outcome'}" if op else ""
        lines.append(f"{name}: {r['equal']}/{r['total']} bitwise equal, "
                     f"worst relative difference {rel:.3g}{where}")
        for op, paths in r["unequal"].items():
            lines.append(f"  not equal: {op}")
            lines += [f"    {path or 'outcome'}: {top:.3g} ({n} value{'s' * (n > 1)})"
                      for path, (top, n) in paths.items()]
        lines += [f"  check fails in {side}: {op}: {why}" for side, op, why in r["failing"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    dump = sub.add_parser("dump", help="run each operation once and write its outcome")
    dump.add_argument("--seed", type=int, required=True)
    dump.add_argument("--workload", action="append",
                      help="a workload to dump (repeatable); all of them by default")
    dump.add_argument("out", type=Path)
    cmp_ = sub.add_parser("compare", help="compare two dumps")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = ap.parse_args(argv)

    if args.command == "compare":
        docs = [json.loads(p.read_text(encoding="utf-8")) for p in (args.a, args.b)]
        result = compare(*docs)
        print(format_comparison(result))
        return 0 if same(result) else 1

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    doc = {"seed": args.seed, "workloads": {}}
    for name in args.workload or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=f"same-numbers-{name}-") as tmp:
            ops = workloads.setup(name, args.seed, Path(tmp), warm_up=False)
            doc["workloads"][name] = record(ops)
        print(f"{name}: {len(doc['workloads'][name])} operations", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
