import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(wall_s: float, **others: float) -> dict:
    """A run line of bench/run.py whose metrics read wall_s, or others[m]."""
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m: {"value": others.get(m, wall_s), "unit": "s"}
                        for m in bench_pairs.METRICS}}


def test_summary_of_alternating_pairs():
    # five pairs: the change reads better in four, ties in one; quartiles by
    # the exclusive method, the parent's IQR is the spread a gain must beat
    # the parent's upper quartile (4.5) is the most a change's median may
    # read before it is marked WORSE: cpu_s reads 5.0 there, setup_s 4.5
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 1.5, 3.0, 3.5, 4.5]
    slower = {"cpu_s": [4.0, 4.5, 5.0, 5.5, 6.0], "setup_s": [3.5, 4.0, 4.5, 5.0, 5.5]}
    runs = [_run(v, **{m: vals[i] for m, vals in slower.items()}) for i, v in enumerate(change)]
    bench = {"workloads": {"w": {"pairs": 5, "runs": {"parent": [_run(v) for v in parent],
                                                       "change": runs}}}}
    summary = bench_pairs.summarize(bench)
    assert set(summary) == {"w"} and set(summary["w"]) == set(bench_pairs.METRICS)
    row = summary["w"]["wall_s"]
    assert row["parent"] == pytest.approx((1.5, 3.0, 4.5))
    assert row["change"] == pytest.approx((1.0, 3.0, 4.0))
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert row["parent_iqr"] == pytest.approx(3.0)
    assert [m for m, r in summary["w"].items() if r["worse"]] == ["cpu_s"]
    text = bench_pairs.format_summary(summary)
    assert "wall_s" in text and "wins 4/5" in text
    marked = [line.split()[0] for line in text.splitlines() if line.endswith("WORSE")]
    assert marked == ["cpu_s"]


def test_summarize_prints_the_src_line_counts(tmp_path, capsys):
    bench = {"parent": {"commit": "a", "src_lines": 4126},
             "change": {"commit": "b", "src_lines": 4100},
             "workloads": {"w": {"pairs": 1, "runs": {"parent": [_run(2.0)],
                                                       "change": [_run(1.0)]}}}}
    path = tmp_path / "BENCH_t.json"
    path.write_text(json.dumps(bench), encoding="utf-8")
    assert bench_pairs.main(["--summarize", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["src_lines", "parent", "4126", "change", "4100", "-26"]
    assert lines[1] == "w"
