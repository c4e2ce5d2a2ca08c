import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(wall_s: float) -> dict:
    """A run line of bench/run.py whose metrics all read wall_s."""
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m: {"value": wall_s, "unit": "s"} for m in bench_pairs.METRICS}}


def test_summary_of_alternating_pairs():
    # five pairs: the change reads better in four, ties in one; quartiles by
    # the exclusive method, the parent's IQR is the spread a gain must beat
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 1.5, 3.0, 3.5, 4.5]
    bench = {"workloads": {"w": {"pairs": 5, "runs": {"parent": [_run(v) for v in parent],
                                                       "change": [_run(v) for v in change]}}}}
    summary = bench_pairs.summarize(bench)
    assert set(summary) == {"w"} and set(summary["w"]) == set(bench_pairs.METRICS)
    row = summary["w"]["wall_s"]
    assert row["parent"] == pytest.approx((1.5, 3.0, 4.5))
    assert row["change"] == pytest.approx((1.0, 3.0, 4.0))
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert row["parent_iqr"] == pytest.approx(3.0)
    text = bench_pairs.format_summary(summary)
    assert "wall_s" in text and "wins 4/5" in text
