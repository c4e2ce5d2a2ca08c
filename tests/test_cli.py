import csv
import json
import math

import numpy as np
import pytest

from hausdorff_bergman import (
    DensitySegment,
    Measure,
    measure_from_json,
    measure_to_json,
    pushforward_inverse,
    truncate,
)
from hausdorff_bergman import harness
from hausdorff_bergman.cli import format_complex, main, parse_complex

ATOM1 = {"atoms": [{"t": 1.0, "w": 1.0}], "segments": []}
SEG12 = {
    "atoms": [],
    "segments": [
        {"lo": 1.0, "hi": 2.0, "density": {"kind": "const", "params": [1.0]}}
    ],
}
DIVERGENT = {
    "atoms": [],
    "segments": [
        {"lo": 0.0, "hi": "inf", "density": {"kind": "const", "params": [1.0]},
         "exp_lo": 0.0, "exp_hi": 0.0}
    ],
}


@pytest.fixture
def measures(tmp_path):
    paths = {}
    for name, doc in (("atom1", ATOM1), ("seg12", SEG12), ("divergent", DIVERGENT)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


# ---------------------------------------------------------------------------
# complex parsing / formatting
# ---------------------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("-0.25+0i") == -0.25
    assert parse_complex("0.3+1.2i") == 0.3 + 1.2j
    assert parse_complex("1e-3-2.5e+1i") == complex(1e-3, -25.0)


def test_parse_complex_rejects_bad_forms():
    for bad in ("1", "i", "1+i", "1 + 2i", "2i", "abc"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_complex_snaps_noise():
    assert format_complex(complex(-0.25, -3e-17)) == "-0.25+0i"
    assert format_complex(complex(0.3, 1.2)) == "0.3+1.2i"


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_identity_atom(measures, capsys):
    code = main(["apply", "-m", measures["atom1"], "-f", "ratpow:shift=1,exp=2",
                 "-z", "0+1i"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "-0.25+0i"


def test_apply_uniform_segment(measures, capsys):
    code = main(["apply", "-m", measures["seg12"], "-f", "ratpow:shift=1,exp=2",
                 "-z", "0+1i"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    value = float(out[0].split("+")[0])
    np.testing.assert_allclose(value, -(math.log(1.5) - 1.0 / 6.0), rtol=1e-8)


def test_apply_divergent_needs_delta(measures, capsys):
    code = main(["apply", "-m", measures["divergent"], "-f",
                 "ratpow:shift=1,exp=2", "-z", "0+1i"])
    err = capsys.readouterr().err
    assert code == 1
    assert "moment diverges" in err


def test_apply_tail_failure_exits_1(tmp_path, capsys):
    # a constant density on [1, inf) without exponents: boundedness is
    # inconclusive, so the operator evaluates, and its inner integral's
    # tail does not converge
    path = tmp_path / "flat.json"
    path.write_text('{"atoms": [], "segments": [{"lo": 1.0, "hi": "inf", '
                    '"density": {"kind": "const", "params": [1.0]}}]}', encoding="utf-8")
    code = main(["apply", "-m", str(path), "-f", "ratpow:shift=1,exp=2", "-z", "0+1i"])
    assert code == 1
    assert "tail fails to converge" in capsys.readouterr().err


def test_apply_divergent_with_delta(measures, capsys):
    code = main(["apply", "-m", measures["divergent"], "-f",
                 "ratpow:shift=1,exp=2", "-z", "0+1i", "--delta", "0.25"])
    assert code == 0


def test_apply_batch_csv(measures, tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0+1i\n# comment\n1+2i\n")
    code = main(["apply", "-m", measures["seg12"], "-f", "ratpow:shift=1,exp=2",
                 "--points", str(pts)])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["x", "y", "re", "im", "err"]
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.0 and float(rows[1][1]) == 1.0
    # with -o the same rows go to DIR/apply.csv, whose path is printed
    outdir = tmp_path / "applydir"
    code = main(["apply", "-m", measures["seg12"], "-f", "ratpow:shift=1,exp=2",
                 "--points", str(pts), "-o", str(outdir)])
    assert code == 0
    assert capsys.readouterr().out == f"{outdir / 'apply.csv'}\n"
    with open(outdir / "apply.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == rows


def test_apply_missing_points_file_is_usage_error(measures, tmp_path, capsys):
    code = main(["apply", "-m", measures["seg12"], "-f", "ratpow:shift=1,exp=2",
                 "--points", str(tmp_path / "nope.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read points file") and err.count("\n") == 1


def test_apply_requires_point(measures, capsys):
    code = main(["apply", "-m", measures["atom1"], "-f", "ratpow:shift=1,exp=2"])
    assert code == 2


def test_apply_negative_real_point(measures, capsys):
    code = main(["apply", "-m", measures["atom1"], "-f", "ratpow:shift=1,exp=2",
                 "-z", "-5+2i"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    expected = (complex(-5, 2) + 1j) ** -2
    assert parse_complex(out[0]) == pytest.approx(expected, rel=1e-10)


def test_apply_quasi(measures, capsys):
    code = main(["apply", "-m", measures["atom1"], "-f", "ratpow:shift=1,exp=2",
                 "-z", "0+1i", "--quasi"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "-0.25+0i"  # identity atom


@pytest.mark.parametrize("argv", [
    ["classify", "-m", "{seg12}", "-p", "nan"],
    ["classify", "-m", "{seg12}", "-p", "inf"],
    ["apply", "-m", "{seg12}", "-f", "ratpow:shift=1,exp=3", "-z", "1+1i", "-p", "nan"],
    ["norm", "-f", "ratpow:shift=1,exp=3", "-p", "nan"],
    ["norm", "-f", "ratpow:shift=1,exp=3", "-p", "inf"],
    ["moment", "-m", "{seg12}", "--alpha", "nan"],
    ["moment", "-m", "{seg12}", "-p", "nan"],
    ["moment", "-m", "{seg12}", "-p", "0"],
    ["sweep", "-m", "{seg12}", "-p", "nan", "-o", "{out}"],
    ["norm", "-f", "ratpow:shift=1,exp=3", "--rel-tol", "nan"],
    ["norm", "-f", "ratpow:shift=1,exp=3", "--rel-tol", "inf"],
    ["moment", "-m", "{seg12}", "--alpha", "0", "--abs-tol", "inf"],
    # points outside the upper half-plane, or not finite
    ["apply", "-m", "{seg12}", "-f", "ratpow:shift=1,exp=3", "-z", "1-0.5i"],
    ["apply", "-m", "{seg12}", "-f", "ratpow:shift=1,exp=3", "-z", "0-1i"],
    ["apply", "-m", "{seg12}", "-f", "ratpow:shift=1,exp=3", "-z", "1+0i"],
    ["apply", "-m", "{seg12}", "-f", "ratpow:shift=1,exp=3", "-z", "1e999+1i"],
    ["apply", "-m", "{atom1}", "-f", "ratpow:shift=1,exp=3", "-z", "1-1i", "--quasi"],
], ids=lambda argv: " ".join(argv))
def test_out_of_domain_input_is_a_usage_error(argv, measures, tmp_path, capsys):
    code = main([a.format(out=tmp_path / "out", **measures) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


# ---------------------------------------------------------------------------
# norm / moment / classify
# ---------------------------------------------------------------------------


def test_norm_of_rational(capsys):
    code = main(["norm", "-f", "ratpow:shift=1,exp=2", "-p", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    np.testing.assert_allclose(float(out[0]), 0.5, rtol=1e-6)


def test_norm_of_a_huge_value_has_a_finite_error(capsys):
    # ||(z + 1e-250 i)^-1.5||_2 = sqrt(2 / pi) 1e125: its error was formed as
    # error * norm / (p * norm^p), whose product overflowed to "error inf"
    # with exit 1, although the p-th power converged
    code = main(["norm", "-f", "ratpow:shift=1e-250,exp=1.5", "-p", "2"])
    out = capsys.readouterr().out.split()
    assert code == 0
    value, err = float(out[0]), float(out[2])
    exact = math.sqrt(2.0 / math.pi) * 1e125
    assert abs(value - exact) <= err <= 1e-8 * exact


def test_norm_root_converged_on_abs_tol(capsys):
    # ||(z + 1000 i)^-2||_2 = 1/2000: the p-th power, some 2.5e-7, converged
    # on abs_tol, its root's error (3.4e-9) missed the root's tolerance
    # 5e-10 and the command exited 1
    code = main(["norm", "-f", "ratpow:shift=1000,exp=2", "-p", "2"])
    out = capsys.readouterr().out.split()
    assert code == 0
    value, err = float(out[0]), float(out[2])
    assert abs(value - 5e-4) <= err <= 5e-10


@pytest.mark.parametrize("spec", [
    "ratpow:shift=nan,exp=2", "ratpow:shift=1,exp=inf", "ratpow:shift=inf,exp=2",
    "ratpow:shift=1,exp=nan", "gmod:lambda=inf,delta=1,p=2", "gmod:lambda=1,delta=nan,p=2",
    "test:p=2,eps=nan", "test:p=inf,eps=0.1",
])
def test_non_finite_family_parameter_is_usage_error(spec, capsys):
    # these once printed a norm of 0 (exit 0), ended in a traceback or
    # printed "error inf" (exit 1)
    code = main(["norm", "-f", spec, "-p", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["apply", "-m", "{atom1}", "-f", "ratpow:shift=1", "-z", "0+1i"],
    ["norm", "-f", "ratpow:shift=1"],
    ["norm", "-f", "nope:x=1"],
    ["norm", "-f", "ratpow:shift=1,exp=2,exp=3"],
], ids=lambda argv: " ".join(argv))
def test_malformed_function_spec_is_usage_error(argv, measures, capsys):
    code = main([a.format(**measures) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: bad function spec")


def test_moment_alpha(measures, capsys):
    code = main(["moment", "-m", measures["seg12"], "--alpha", "0"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    np.testing.assert_allclose(float(out[0]), 1.0, rtol=1e-10)


def test_moment_infinite(measures, capsys):
    code = main(["moment", "-m", measures["divergent"], "-p", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "inf"


def test_classify(measures, capsys):
    code = main(["classify", "-m", measures["divergent"], "-p", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Unbounded"
    code = main(["classify", "-m", measures["seg12"], "-p", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Bounded"


def test_missing_measure_file_is_usage_error(capsys):
    code = main(["moment", "-m", "/nonexistent.json", "--alpha", "0"])
    assert code == 2


def _expr_measure(tmp_path, source) -> str:
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({"atoms": [], "segments": [
        {"lo": 1.0, "hi": 2.0, "density": {"kind": "expr", "params": [source]}}]}))
    return str(path)


@pytest.mark.parametrize("source", [
    "np.save({target!r}, t)",
    "t.real",
    "__import__('os').getcwd()",
    "(lambda s: s)(t)",
])
def test_expr_density_outside_arithmetic_is_usage_error(tmp_path, capsys, source):
    # a measure file is untrusted: its density may not reach numpy, attributes,
    # builtins or new functions, and is refused before anything is evaluated
    target = tmp_path / "written.npy"
    code = main(["moment", "-m", _expr_measure(tmp_path, source.format(target=str(target))),
                 "--alpha", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load measure") and err.count("\n") == 1
    assert "density expression may use only" in err
    assert not target.exists()


def test_expr_densities_of_the_library_still_load(tmp_path, capsys):
    pushed = pushforward_inverse(Measure(segments=(DensitySegment.from_spec(
        0.5, 1.0, ("exp", (1.0, 1.0))),)))
    pushed_source = measure_to_json(pushed)["segments"][0]["density"]["params"][0]
    assert pushed_source == "(1.0)*exp(-(1.0)/t)*t**-2.0"
    for source in ("t**2 * exp(-t)", pushed_source):
        assert main(["moment", "-m", _expr_measure(tmp_path, source), "--alpha", "0"]) == 0
        assert float(capsys.readouterr().out.split()[0]) > 0.0


@pytest.mark.parametrize("source", ["9**9**9 * t", "t + 10**400", "exp(2**2**2**2**2)", "1/0"])
def test_expr_density_with_an_unbounded_constant_is_usage_error(tmp_path, capsys, source):
    # constant arithmetic is done in doubles when the measure is read: a
    # constant beyond them is refused instead of being computed with Python
    # integers at every density call
    code = main(["moment", "-m", _expr_measure(tmp_path, source), "--alpha", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load measure") and err.count("\n") == 1
    assert "is not a finite real double" in err


@pytest.mark.parametrize("lo, hi, density", [
    (1.0, 2.0, {"kind": "const", "params": [-1.0]}),
    (0.5, 3.0, {"kind": "power", "params": [-0.7, 1.3]}),
    (1.0, 4.0, {"kind": "exp", "params": [-2.0, 1.0]}),
    (1.0, 2.0, {"kind": "expr", "params": ["t - 1.5"]}),
    (0.0, 1.0, {"kind": "expr", "params": ["log(t)"]}),
])
def test_negative_density_is_usage_error(tmp_path, capsys, lo, hi, density):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"atoms": [], "segments": [
        {"lo": lo, "hi": hi, "density": density, "exp_lo": 0.0}]}))
    code = main(["moment", "-m", str(path), "--alpha", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load measure") and err.count("\n") == 1
    assert "takes negative values" in err


@pytest.mark.parametrize("density", [
    {"kind": "power", "params": [1.0, [2]]},
    {"kind": "const", "params": [math.inf]},
    {"kind": "exp", "params": [1.0]},
    {"kind": "const", "params": ["1.0"]},
])
def test_malformed_density_params_are_usage_error(tmp_path, capsys, density):
    # params are read when the measure loads, not at the first density call
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"atoms": [], "segments": [
        {"lo": 1.0, "hi": 2.0, "density": density}]}))
    code = main(["moment", "-m", str(path), "--alpha", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load measure") and err.count("\n") == 1
    assert "finite number" in err


@pytest.mark.parametrize("doc, reason", [
    ([], "must be a JSON object"),
    # t^-3 on [1, inf) does not decay faster than every power
    ({"atoms": [], "segments": [{"lo": 1.0, "hi": "inf",
                                 "density": {"kind": "power", "params": [1.0, -3.0]},
                                 "exp_hi": "-inf"}]}, "exp_hi = -inf contradicts the density"),
])
def test_untrusted_measure_document_is_usage_error(tmp_path, capsys, doc, reason):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(doc))
    code = main(["classify", "-m", str(path), "-p", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot load measure") and err.count("\n") == 1
    assert reason in err


# ---------------------------------------------------------------------------
# sweep + plotdata
# ---------------------------------------------------------------------------


def test_sweep_and_plotdata(measures, tmp_path, capsys):
    out = tmp_path / "sweepdir"
    code = main(["sweep", "-m", measures["seg12"], "-p", "2",
                 "--epsilons", "0.2,0.1,0.05", "-o", str(out)])
    assert code == 0
    capsys.readouterr()
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["schema_version"] == 1
    assert len(doc["ratios"]) == 3
    assert doc["passed"] is True

    code = main(["plotdata", "--report", str(out / "sweep.json"), "-o", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = (out / "sweep_plot.dat").read_text().splitlines()
    # target line equals the report target to the digit
    assert float(lines[0].split()[-1]) == doc["target"]
    data = [line.split() for line in lines[1:]]
    assert [float(e) for e, _ in data] == doc["epsilons"]
    assert [float(r) for _, r in data] == doc["ratios"]


def test_sweep_unconverged_norm_exits_1(measures, tmp_path, capsys):
    code = main(["sweep", "-m", measures["seg12"], "-p", "2",
                 "--epsilons", "0.2,0.1,0.05", "--rel-tol", "1e-9",
                 "--abs-tol", "1e-14", "--max-subdiv", "1",
                 "-o", str(tmp_path / "sweepdir")])
    assert code == 1
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "sweepdir" / "sweep.json").exists()


def test_sweep_at_p1_with_default_epsilons(measures, tmp_path, capsys):
    # at eps = 0.025 |F| decays like e^(-0.025 v): the image norm's far edge
    # closes with that exact rate
    code = main(["sweep", "-m", measures["seg12"], "-p", "1", "-o", str(tmp_path / "sw")])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert doc["passed"] is True and len(doc["ratios"]) == len(harness.DEFAULT_EPSILONS)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sweep_delta_is_the_sweep_of_the_truncated_measure(measures, tmp_path, capsys, p):
    # --delta truncates the Lebesgue measure to [1/4, 4] and sweeps that
    code = main(["sweep", "-m", measures["divergent"], "-p", str(p), "--delta", "0.25",
                 "--epsilons", "0.2,0.1,0.05", "-o", str(tmp_path / "sw")])
    capsys.readouterr()
    doc = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    rep = harness.run_sharpness_experiment(
        truncate(measure_from_json(DIVERGENT), 0.25), p, (0.2, 0.1, 0.05),
        harness.default_config())
    assert doc["kind"] == "truncated" and doc["delta"] == 0.25
    assert doc["ratios"] == rep.details["ratios"]
    assert (doc["target"], doc["extrapolated"]) == (rep.expected, rep.computed)
    assert doc["passed"] == rep.passed
    assert code == (0 if rep.passed else 1)


def test_plotdata_missing_report(tmp_path, capsys):
    code = main(["plotdata", "--report", str(tmp_path / "none.json")])
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def small_suite(extra=None):
    experiments = [
        {"kind": "gnorm", "lambdas": [1.0], "deltas": [1.0], "p": 2.0},
        {"kind": "sector", "case": "I", "p": 6.0, "eps": 0.05, "samples": 500},
        {"kind": "sharpness", "p": 2.0, "epsilons": [0.2, 0.1, 0.05],
         "measure": SEG12},
    ]
    if extra:
        experiments.extend(extra)
    return {"experiments": experiments}


def test_verify_suite_passes(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(small_suite()))
    out = tmp_path / "reports"
    code = main(["verify", "--suite", str(suite), "-o", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    doc = json.loads((out / "reports.json").read_text())
    assert doc["schema_version"] == 1
    assert all(r["passed"] for r in doc["reports"])
    assert "PASS" in stdout
    with open(out / "reports.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "experiment"
    assert len(rows) == len(doc["reports"]) + 1


def test_verify_suite_with_measure_paths(tmp_path, capsys):
    (tmp_path / "m.json").write_text(json.dumps(SEG12))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"experiments": [
        {"kind": "sharpness", "p": 2.0, "epsilons": [0.2, 0.1, 0.05],
         "measure": "m.json"},
        {"kind": "boundedness", "ps": [2.0], "measures": ["m.json"]},
    ]}))
    out = tmp_path / "reports"
    code = main(["verify", "--suite", str(suite), "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((out / "reports.json").read_text())
    assert all(r["passed"] for r in doc["reports"])


def test_norm_of_truncated_operator_image(measures, capsys):
    code = main(["norm", "-f", "ratpow:shift=1,exp=2", "-m", measures["divergent"],
                 "--delta", "0.25", "-p", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert float(out[0]) > 0.0


def test_verify_designed_failure(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(small_suite(
        [{"kind": "sharpness", "p": 2.0, "epsilons": [0.2, 0.1, 0.05],
          "measure": DIVERGENT}]
    )))
    out = tmp_path / "reports"
    code = main(["verify", "--suite", str(suite), "-o", str(out)])
    stdout = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in stdout
    doc = json.loads((out / "reports.json").read_text())
    assert any(not r["passed"] for r in doc["reports"])


def test_verify_empty_suite(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"experiments": []}))
    out = tmp_path / "reports"
    code = main(["verify", "--suite", str(suite), "-o", str(out)])
    assert code == 0
    doc = json.loads((out / "reports.json").read_text())
    assert doc["reports"] == []


def test_verify_bad_config(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text("{not json")
    assert main(["verify", "--suite", str(suite)]) == 2
    suite.write_text(json.dumps({"experiments": [{"kind": "bogus"}]}))
    assert main(["verify", "--suite", str(suite)]) == 2
    # case III of the sector inequality needs theta0
    suite.write_text(json.dumps({"experiments": [
        {"kind": "sector", "case": "III", "p": 1.0, "eps": 0.05, "samples": 10}]}))
    capsys.readouterr()
    assert main(["verify", "--suite", str(suite)]) == 2
    assert capsys.readouterr().err.startswith("error: experiment parameters out of range")


@pytest.mark.parametrize("argv,doc", [
    (["plotdata", "--report"], [1, 2]),
    (["plotdata", "--report"], {"epsilons": 3, "ratios": [1], "target": 1}),
    (["verify", "--suite"], [1, 2]),
    (["verify", "--suite"], {"experiments": 5}),
], ids=["report-list", "report-scalar-field", "suite-list", "suite-scalar-field"])
def test_json_of_the_wrong_shape_is_usage_error(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(argv + [str(path), "-o", str(tmp_path / "out")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_builtin_suite_passes(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["verify", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((out / "reports.json").read_text())
    assert len(doc["reports"]) == 20
    assert all(r["passed"] for r in doc["reports"])


@pytest.mark.parametrize("entry", [
    {"kind": "sharpness", "p": 2.0, "epsilons": [0.2, 0.1, 0.05], "measure": "missing.json"},
    {"kind": "boundedness", "ps": [2.0], "measures": ["nope.json"]},
])
def test_verify_unreadable_suite_measure_is_usage_error(tmp_path, capsys, entry):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"experiments": [entry]}))
    assert main(["verify", "--suite", str(suite), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cannot load measure" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_function_that_is_not_a_string_is_usage_error(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"experiments": [
        {"kind": "growth", "function": 5, "p": 2.0}]}))
    assert main(["verify", "--suite", str(suite), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad function spec 5" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_mistyped_key_is_usage_error(tmp_path, capsys):
    # a sharpness entry takes no delta: the truncated kind truncates
    for key, entry in (
            ("sample", {"kind": "sector", "case": "I", "p": 6.0, "eps": 0.05, "sample": 50}),
            ("delta", {"kind": "sharpness", "p": 2.0, "epsilons": [0.2, 0.1, 0.05],
                       "measure": SEG12, "delta": 0.25})):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"experiments": [entry]}))
        assert main(["verify", "--suite", str(suite), "-o", str(tmp_path / "out")]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_verify_truncated_epsilons_must_decrease(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"experiments": [
        {"kind": "truncated", "p": 1.0, "delta": 0.25, "epsilons": [0.1, 0.2],
         "measure": DIVERGENT}]}))
    assert main(["verify", "--suite", str(suite), "-o", str(tmp_path / "out")]) == 2
    assert "strictly decreasing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_calls_runners_through_the_harness_module(tmp_path, capsys, monkeypatch):
    # a tracer times each experiment kind by replacing harness.<runner>
    calls = []
    original = harness.run_gnorm_experiment

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_gnorm_experiment", spy)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(small_suite()))
    assert main(["verify", "--suite", str(suite), "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == [1]


def test_unknown_flag_exits_2(measures):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-m", measures["seg12"], "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["classify", "-m", "{seg12}", "--rel-tol", "1e-6"],
    ["classify", "-m", "{seg12}", "--rel-tol", "nan"],
    ["classify", "-m", "{seg12}", "-o", "{out}"],
    ["plotdata", "--report", "{out}/sweep.json", "--max-subdiv", "5"],
    ["norm", "-f", "ratpow:shift=1,exp=3", "-o", "{out}"],
    ["moment", "-m", "{seg12}", "-o", "{out}"],
], ids=lambda argv: " ".join(argv))
def test_flags_a_command_would_ignore_exit_2(argv, measures, tmp_path):
    # each command is offered only the flags it reads: quadrature flags
    # where it integrates, -o where it writes files
    with pytest.raises(SystemExit) as exc:
        main([a.format(out=tmp_path / "out", **measures) for a in argv])
    assert exc.value.code == 2


def test_cli_deterministic(measures, capsys):
    main(["apply", "-m", measures["seg12"], "-f", "test:p=2,eps=0.1",
          "-z", "0.3+1.2i"])
    first = capsys.readouterr().out
    main(["apply", "-m", measures["seg12"], "-f", "test:p=2,eps=0.1",
          "-z", "0.3+1.2i"])
    second = capsys.readouterr().out
    assert first == second
