import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
lattice_work = _load("lattice_work")
same_numbers = _load("same_numbers")


def _run(wall_s: float, attempted: int = 10, failed: int = 0, correct: bool = True,
         **others: float) -> dict:
    """A run line of bench/run.py whose metrics read wall_s, or others[m]."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
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
    text = bench_pairs.format_summary(summary, bench_pairs.attempted(bench),
                                      bench_pairs.failures(bench))
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
    assert not lines[2].endswith("FAILED")  # every run correct, none failed


def test_summarize_prints_the_operation_counts_next_to_the_peak(tmp_path, capsys):
    # the median `attempted` of each side: 30 and 40 of 20, 30, 50 and 40, 40, 60
    runs = {"parent": [_run(1.0, n) for n in (20, 30, 50)],
            "change": [_run(0.9, n) for n in (40, 40, 60)]}
    bench = {"parent": {"commit": "a", "src_lines": 10},
             "change": {"commit": "b", "src_lines": 10},
             "workloads": {"w": {"pairs": 3, "runs": runs}}}
    assert bench_pairs.attempted(bench) == {"w": {"parent": 30, "change": 40}}
    path = tmp_path / "BENCH_t.json"
    path.write_text(json.dumps(bench), encoding="utf-8")
    assert bench_pairs.main(["--summarize", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    peak = next(i for i, line in enumerate(lines) if line.split()[0] == "peak_rss_mb")
    assert lines[peak + 1].split() == ["attempted", "parent", "30", "change", "40", "+33.3%"]
    # src_lines, the workload, its failed line, the metrics and attempted
    assert len(lines) == 3 + len(bench_pairs.METRICS) + 1


@pytest.mark.parametrize("change, marked", [
    # 2 of 100 operations failed in one run: a share of 1%
    ([_run(0.9, 100, failed=2), _run(0.9, 100)], True),
    # a run whose outcomes did not match, with no operation failing
    ([_run(0.9, 100), _run(0.9, 100, correct=False)], True),
    ([_run(0.9, 100), _run(0.9, 100)], False),
])
def test_summarize_flags_failed_and_incorrect_runs(tmp_path, capsys, change, marked):
    # bench/run.py exits 0 on such runs; the summary prints each side's failed
    # share and incorrect runs under the workload's name, marked FAILED
    runs = {"parent": [_run(1.0, 100), _run(1.0, 100)], "change": change}
    bench = {"parent": {"commit": "a", "src_lines": 10},
             "change": {"commit": "b", "src_lines": 10},
             "workloads": {"w": {"pairs": 2, "runs": runs}}}
    failed = bench_pairs.failures(bench)["w"]
    assert failed["parent"] == (0.0, 0, 2)
    share = sum(r["failed"] for r in change) / 200
    assert failed["change"] == (share, sum(not r["correct"] for r in change), 2)
    path = tmp_path / "BENCH_t.json"
    path.write_text(json.dumps(bench), encoding="utf-8")
    assert bench_pairs.main(["--summarize", str(path)]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert line.split()[:2] == ["failed", "parent"]
    assert f"change {share:.3%}" in line
    assert line.endswith("FAILED") == marked


def test_lattice_work_counts_a_small_operation_list():
    # two norms, a pairing and the norm of an image under e^-t dt: four
    # lattice runs, each with one _level call at level 0 and at least one
    # per later level it completes.  Only the image has a kernel, one on its
    # one side, built with each of its _level calls.  The evaluations add up
    # by kind: the plain functions' copies under the unit atom and the
    # image's kernel rows; an image under uniform[1, 2] has the Gauss nodes
    # of its rule and, until it is held, fewer of the rule one lower.  The
    # counters come off after the block
    from hausdorff_bergman import (HausdorffOperator, QuadratureConfig, as_function,
                                   bergman_norm_p_power, measure_from_json, pairing,
                                   rational_power)
    from hausdorff_bergman.logpolar import _LogPolarNorm, _Side

    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
    f, g = rational_power(1.0, 1.5), rational_power(0.5, 1.5)
    exp = measure_from_json({"atoms": [], "segments": [
        {"lo": 0.0, "hi": "inf", "density": {"kind": "exp", "params": [1.0, 1.0]},
         "exp_lo": 0.0, "exp_hi": "-inf"}]})
    uniform = measure_from_json({"atoms": [], "segments": [
        {"lo": 1.0, "hi": 2.0, "density": {"kind": "const", "params": [1.0]}}]})
    hf = as_function(HausdorffOperator(exp, 2.0), rational_power(1.0, 2.0))
    hu = as_function(HausdorffOperator(uniform, 2.0), rational_power(1.0, 2.0))
    results = []

    class Op:
        def __init__(self, run):
            self.run = lambda: results.append(run())

    run, level, conv_kernel = _LogPolarNorm.run, _LogPolarNorm._level, _Side._conv_kernel
    side_level = _Side.level
    image = lattice_work.lattice_work([Op(lambda: bergman_norm_p_power(hf, 2.0, cfg))])
    gauss = lattice_work.lattice_work([Op(lambda: bergman_norm_p_power(hu, 2.0, cfg))])
    work = lattice_work.lattice_work([
        Op(lambda: bergman_norm_p_power(f, 2.0, cfg)),
        Op(lambda: bergman_norm_p_power(g, 4.0, cfg)),
        Op(lambda: pairing(f, g, cfg)),
        Op(lambda: bergman_norm_p_power(hf, 2.0, cfg)),
    ])
    assert (_LogPolarNorm.run, _LogPolarNorm._level, _Side._conv_kernel, _Side.level) == (
        run, level, conv_kernel, side_level)
    assert all(r.converged for r in results)
    assert work["runs"] == 4
    assert work["levels"] == sum(r.subdivisions_used for r in results[2:])
    calls = work["calls"]
    assert calls[0] == 4 and set(calls) == set(range(max(calls) + 1))
    assert sum(calls.values()) >= work["levels"]
    assert work["evals"] > 0
    assert work["kernels"] == image["kernels"] == sum(image["calls"].values()) > 0
    for w in (work, image, gauss):
        assert sum(w["kinds"].values()) == w["evals"]
    kinds = work["kinds"]
    assert kinds["gauss"] == kinds["lower"] == 0
    assert kinds["kernel rows"] == image["kinds"]["kernel rows"] == image["evals"]
    assert kinds["atoms"] == work["evals"] - image["evals"] > 0
    held = gauss["kinds"]
    assert held["atoms"] == held["kernel rows"] == 0 and 0 < held["lower"] < held["gauss"]
    line = lattice_work.format_work("w", work)
    assert line.split()[:5] == ["w", "runs", "4", "levels", str(work["levels"])]
    assert f"(atoms {kinds['atoms']:,} / gauss 0 / lower 0 / kernel rows" in line
    assert line.endswith(f"kernel builds {work['kernels']}")


def test_lattice_work_shows_runs_that_stop_early():
    # one bisection a 1-D integral, 10,000 family evaluations a lattice run:
    # the starved norms stop "budget", and the line says so next to the
    # converged one
    from hausdorff_bergman import QuadratureConfig, bergman_norm_p_power, rational_power

    starved = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=1)
    f = rational_power(1.0, 1.5)

    class Op:
        def run(self):
            return bergman_norm_p_power(f, 2.0, starved)

    class Converged:
        def run(self):
            return bergman_norm_p_power(f, 2.0, QuadratureConfig())

    work = lattice_work.lattice_work([Op(), Converged(), Op()])
    assert work["stops"] == {"budget": 2, "converged": 1}
    assert "  stops budget 2 / converged 1  " in lattice_work.format_work("w", work)


def test_same_numbers_compares_outcomes_bitwise():
    # outcomes keep every bit through JSON: a last-bit change and -0.0 for
    # 0.0 are not equal, an array's values share one place, a report's
    # fields have theirs, and a failing check or a raising operation shows
    import numpy as np

    class Op:
        def __init__(self, name, value, check=None):
            self.name, self.check = name, lambda out: check
            self.run = value if callable(value) else lambda: value
            self.outcome = lambda v: (v, 1e-3, True)

    def raises():
        raise ValueError("no value")

    z = np.array([1.0 + 2.0j, 3.0])
    a = [Op("same", z), Op("array", np.array([1.0, 2.0, 3.0])), Op("zero", 0.0),
         Op("report", {"k": 0.5, "name": "r"})]
    b = [Op("same", z.copy()), Op("array", np.array([1.0, np.nextafter(2.0, 3.0), 3.0 + 3e-12])),
         Op("zero", -0.0), Op("report", {"k": 0.5 + 1e-9, "name": "r"}, check="bad"),
         Op("raising", raises)]
    docs = [json.loads(json.dumps({"workloads": {"w": same_numbers.record(ops)}}))
            for ops in (a, b)]
    assert docs[0]["workloads"]["w"][0]["outcome"][0][0] == {
        "re": (1.0).hex(), "im": (2.0).hex()}
    result = same_numbers.compare(*docs)["w"]
    assert (result["equal"], result["total"]) == (1, 5)
    assert result["worst"] == (math.inf, "raising", "")
    assert result["unequal"]["array"] == {"[0][*]": (pytest.approx(1e-12), 2)}
    assert result["unequal"]["zero"] == {"[0]": (0.0, 1)}
    assert result["unequal"]["report"] == {"[0].k": (pytest.approx(2e-9), 1)}
    assert result["failing"] == [("B", "report", "bad"), ("A", "raising", "missing"),
                                 ("B", "raising", "ValueError: no value")]
    lines = same_numbers.format_comparison({"w": result}).splitlines()
    assert lines[0] == "w: 1/5 bitwise equal, worst relative difference inf at raising outcome"
    assert "    [0][*]: 1e-12 (2 values)" in lines
    assert lines[-1] == "  check fails in B: raising: ValueError: no value"


def test_same_numbers_compare_exits_1_unless_every_operation_is_the_same(tmp_path, capsys):
    # exit 0 only when every operation is bitwise equal, raises on neither
    # side and passes its check on both
    def op(value, check=None):
        return {"name": "op", "outcome": same_numbers.encode(value), "check": check}

    cases = {"equal": (op(1.0), 0), "last bit": (op(math.nextafter(1.0, 2.0)), 1),
             "check fails": (op(1.0, check="bad"), 1),
             "raises": ({"name": "op", "error": "ValueError: no value"}, 1)}
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"workloads": {"w": [op(1.0)]}}), encoding="utf-8")
    for name, (record, code) in cases.items():
        b = tmp_path / f"{name}.json"
        b.write_text(json.dumps({"workloads": {"w": [record]}}), encoding="utf-8")
        assert same_numbers.main(["compare", str(a), str(b)]) == code, name
        assert capsys.readouterr().out.startswith("w: ")
