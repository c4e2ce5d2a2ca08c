import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hausdorff_bergman import (
    DensitySegment,
    DivergentIntegral,
    Measure,
    ParameterOutOfRange,
    QuadratureConfig,
    QuadratureFailure,
)
from hausdorff_bergman import harness, logpolar
from hausdorff_bergman.halfplane import ModulusFunction, TestFunction

CFG = harness.default_config()

# closed-form oracle -(1+t)exp(-t) evaluated on [1/4, 4]:
# 1.25*exp(-0.25) - 5*exp(-4) = 0.8819227843955852
EXP_TRUNC_ORACLE = 1.25 * math.exp(-0.25) - 5.0 * math.exp(-4.0)


def uniform_12() -> Measure:
    return Measure(segments=(DensitySegment.from_spec(1.0, 2.0, ("const", (1.0,))),))


def exp_tail() -> Measure:
    seg = DensitySegment.from_spec(
        0.0, math.inf, ("exp", (1.0, 1.0)), exp_lo=0.0, exp_hi=-math.inf
    )
    return Measure(segments=(seg,))


def lebesgue() -> Measure:
    seg = DensitySegment.from_spec(0.0, math.inf, ("const", (1.0,)),
                                   exp_lo=0.0, exp_hi=0.0)
    return Measure(segments=(seg,))


# ---------------------------------------------------------------------------
# modulus-family norms
# ---------------------------------------------------------------------------


def test_gnorm_experiment_passes_and_scales():
    reports = harness.run_gnorm_experiment([1.0], [1.0, 2.0], 2.0, CFG)
    assert all(r.passed for r in reports)
    by_delta = {r.parameters["delta"]: r for r in reports}
    lo1, up1 = by_delta[1.0].expected
    lo2, up2 = by_delta[2.0].expected
    np.testing.assert_allclose([lo2, up2], [lo1 / 2.0, up1 / 2.0], rtol=1e-14)


def test_gnorm_against_tighter_oracle():
    reports = harness.run_gnorm_experiment([1.0], [1.0], 2.0, CFG)
    value = reports[0].computed
    tight = harness.run_gnorm_experiment(
        [1.0], [1.0], 2.0,
        QuadratureConfig(rel_tol=CFG.rel_tol / 10.0, abs_tol=CFG.abs_tol / 10.0),
    )[0].computed
    assert abs(value - tight) <= 10.0 * CFG.rel_tol * abs(tight)


# ---------------------------------------------------------------------------
# sharpness sweeps
# ---------------------------------------------------------------------------


def test_sweep_identity_atom_is_exactly_one():
    sweep = harness.run_sharpness_sweep(
        Measure.from_atoms((1.0, 1.0)), 2.0, (0.2, 0.1, 0.05), CFG
    )
    assert sweep.ratios == (1.0, 1.0, 1.0)
    assert sweep.extrapolated == 1.0


def test_sweep_single_atom_hits_dilation_ratio():
    s, p = 2.0, 4.0
    sweep = harness.run_sharpness_sweep(
        Measure.from_atoms((s, 1.0)), p, (0.2, 0.1, 0.05), CFG
    )
    target = s ** (2.0 / p - 1.0)
    for ratio in sweep.ratios:
        np.testing.assert_allclose(ratio, target, rtol=1e-5)
    np.testing.assert_allclose(sweep.extrapolated, target, rtol=1e-2)


def test_sweep_uniform_density_converges_to_mass():
    sweep = harness.run_sharpness_sweep(uniform_12(), 2.0, (0.2, 0.1, 0.05), CFG)
    assert sweep.target == pytest.approx(1.0, rel=1e-10)
    assert all(a < b for a, b in zip(sweep.ratios, sweep.ratios[1:]))
    assert sweep.ceiling_ok(CFG.rel_tol)
    assert 0.95 <= sweep.extrapolated <= 1.0 + 10.0 * CFG.rel_tol


def test_sweep_requires_decreasing_epsilons():
    with pytest.raises(ValueError):
        harness.run_sharpness_sweep(uniform_12(), 2.0, (0.1, 0.2), CFG)


def test_sweep_unbounded_raises():
    with pytest.raises(DivergentIntegral):
        harness.run_sharpness_sweep(lebesgue(), 2.0, (0.2, 0.1, 0.05), CFG)


def test_sweep_unconverged_norm_raises():
    # one subdivision leaves the eps = 0.05 image norm unconverged; a ratio
    # built from it must not enter the sweep
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-14, max_subdivisions=1)
    with pytest.raises(QuadratureFailure):
        harness.run_sharpness_sweep(uniform_12(), 2.0, (0.2, 0.1, 0.05), cfg)


def test_extrapolation_requires_contraction():
    # solid halving contraction extrapolates past the last point
    assert harness._extrapolate([0.8, 0.9, 0.95]) == pytest.approx(1.0, rel=1e-12)
    # no contraction (rho ~ 0.85): stay at the last computed ratio
    seq = [0.05042, 0.05331, 0.05578]
    assert harness._extrapolate(seq) == seq[-1]
    # constant sequences are already converged
    assert harness._extrapolate([1.0, 1.0, 1.0]) == 1.0


def test_sweep_report_roundtrip():
    sweep = harness.run_sharpness_sweep(
        Measure.from_atoms((1.0, 1.0)), 2.0, (0.2, 0.1, 0.05), CFG
    )
    report = harness.sweep_to_report(sweep, CFG, 12)
    assert report.passed
    payload = json.dumps(report.to_dict())
    assert "ratios" in payload


# ---------------------------------------------------------------------------
# truncated operator
# ---------------------------------------------------------------------------


def test_truncated_norm_experiment_exp_density():
    rep = harness.run_truncated_norm_experiment(
        exp_tail(), 1.0, 0.25, (0.2, 0.1, 0.05), CFG
    )
    np.testing.assert_allclose(rep.expected, EXP_TRUNC_ORACLE, rtol=1e-9)
    assert rep.passed
    assert all(rep.details["bound_satisfied"])
    assert all(b > 0 for b in rep.details["perturbation_bounds"])


def test_truncated_norm_empty_truncation():
    rep = harness.run_truncated_norm_experiment(
        Measure.from_atoms((3.0, 1.0)), 2.0, 0.5, (0.2, 0.1), CFG
    )
    assert rep.expected == 0.0
    assert rep.details["ratios"] == [0.0, 0.0]
    assert rep.passed


def test_truncated_norm_requires_decreasing_epsilons():
    with pytest.raises(ValueError, match="strictly decreasing"):
        harness.run_truncated_norm_experiment(exp_tail(), 1.0, 0.25, (0.1, 0.2), CFG)


def test_truncated_targets_increase_to_full_norm():
    mu = exp_tail()
    p = 1.0
    targets = [
        harness.theoretical_norm(harness.truncate(mu, d), p, CFG).value
        for d in (0.5, 0.25, 0.1, 0.01)
    ]
    assert all(b > a for a, b in zip(targets, targets[1:]))
    full = harness.theoretical_norm(mu, p, CFG).value
    assert targets[-1] <= full
    assert full - targets[-1] < 0.05 * full


# ---------------------------------------------------------------------------
# sector experiments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case,p,eps,theta0",
    [
        ("I", 6.0, 0.05, None),
        ("II", 2.0, 0.4, None),
        ("III", 1.0, 0.05, math.pi / 32.0),
    ],
)
def test_sector_experiment_zero_violations(case, p, eps, theta0):
    rep = harness.run_sector_experiment(case, p, eps, 10_000, theta0=theta0)
    assert rep.computed == 0
    assert rep.passed
    assert rep.details["boundary_violations"] == 0


def test_sector_experiment_bad_parameters():
    with pytest.raises(ParameterOutOfRange):
        harness.run_sector_experiment("I", 2.0, 0.1, 100)


# ---------------------------------------------------------------------------
# boundedness matrix
# ---------------------------------------------------------------------------


def test_boundedness_matrix():
    sqrt_inv = Measure(segments=(
        DensitySegment.from_spec(0.0, 1.0, ("power", (1.0, -0.5)), exp_lo=-0.5),
    ))
    reports = harness.run_boundedness_matrix(
        [lebesgue(), sqrt_inv, Measure.from_atoms((2.0, 0.5))], [2.0], CFG
    )
    assert all(r.passed for r in reports)
    verdicts = [r.details["classification"] for r in reports]
    assert verdicts == ["Unbounded", "Bounded", "Bounded"]
    # Lebesgue truncated moments are 1/delta - delta
    leb = reports[0]
    np.testing.assert_allclose(
        leb.computed, [1.0 / d - d for d in (0.1, 0.01, 0.001)], rtol=1e-9
    )
    # sqrt density: target int_0^1 t^-1/2 dt = 2
    assert reports[1].details["target"] == pytest.approx(2.0, rel=1e-8)
    # atom: norm w*s^(2/p-1) = 0.5
    assert reports[2].details["target"] == pytest.approx(0.5, rel=1e-12)


def test_zero_measure_trivially_passes():
    reports = harness.run_boundedness_matrix([Measure()], [1.0, 2.0], CFG)
    assert all(r.passed for r in reports)
    sweep = harness.run_sharpness_sweep(Measure(), 2.0, (0.2, 0.1, 0.05), CFG)
    assert sweep.target == 0.0
    assert sweep.ratios == (0.0, 0.0, 0.0)
    rep = harness.sweep_to_report(sweep, CFG, 1)
    assert rep.passed


# ---------------------------------------------------------------------------
# growth/decay, lower bound, norm equivalence
# ---------------------------------------------------------------------------


def test_growth_decay_families():
    for fam, p in ((TestFunction(2.0, 0.5), 2.0), (ModulusFunction(1.0, 1.0, 2.0), 2.0)):
        rep = harness.run_growth_decay_check(fam, p)
        assert rep.passed
        assert all(rep.computed["sequences_ok"].values())


@pytest.mark.parametrize("p,eps,theta0", [
    (4.0, 0.25, None),
    (2.0, 0.3, None),
    (1.0, 0.2, math.pi / 32.0),
])
def test_lower_bound_experiment(p, eps, theta0):
    rep = harness.run_lower_bound_experiment(
        Measure.from_atoms((1.0, 1.0)), p, eps, theta0=theta0, cfg=CFG
    )
    assert rep.passed
    assert rep.computed >= rep.expected["at_least"]


def test_lower_bound_constant_closed_forms():
    # case I at p = 4: int_0^(pi/2) cos^4 = 3 pi / 16, from the Gamma
    # function's closed form to a few ulps
    _, k4 = harness.lower_bound_constant(4.0, 0.25, None, CFG)
    np.testing.assert_allclose(
        k4, 2.0 ** (-4 * 1.25) * (3 * math.pi / 16) / (4 * math.pi), rtol=2e-15
    )
    # case III closed form
    _, k1 = harness.lower_bound_constant(1.0, 0.2, math.pi / 32.0, CFG)
    np.testing.assert_allclose(
        k1, 2.0 ** (-1.2) * (1 - math.cos(math.pi / 32)) / (4 * math.pi), rtol=1e-12
    )


def test_lower_bound_constant_refuses_an_unconverged_integral():
    # one bisection cannot reach rel_tol 1e-300 on case II's
    # int_(pi/4)^(pi/2) sin^1.5: a bound that must hold outright may not
    # rest on the value
    cfg = QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=1)
    with pytest.raises(QuadratureFailure, match="sin"):
        harness.lower_bound_constant(1.5, 0.25, None, cfg)


def test_feps_norm_experiment():
    reports = harness.run_feps_norm_experiment(2.0, (0.2, 0.1), CFG)
    assert all(r.passed for r in reports)
    for r in reports:
        lo, hi = r.expected
        assert lo < r.computed < hi


# ---------------------------------------------------------------------------
# randomized suites (small sizes for unit tests)
# ---------------------------------------------------------------------------


def test_minkowski_samples_small():
    rep = harness.run_minkowski_samples(n_samples=8, seed=5, cfg=CFG)
    assert rep.passed
    assert rep.computed["breaches"] == 0


def test_minkowski_unconverged_samples_are_counted_apart(monkeypatch):
    # with a lattice budget of 10,000 family evaluations no sample's norm
    # converges: none is a breach, none feeds the worst ratio, and a report
    # that checked nothing fails.  Only the lattice is starved: with one
    # subdivision the moment's Kronrod pool would fail first
    monkeypatch.setattr(logpolar, "_EVALS_PER_SUBDIVISION", 5000)
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10, max_subdivisions=2)
    rep = harness.run_minkowski_samples(n_samples=6, seed=2, cfg=cfg)
    assert rep.computed == {"breaches": 0, "worst_ratio_over_norm": 0.0,
                            "unconverged": 6}
    assert not rep.passed


def test_quasi_equivalence_small():
    rep = harness.run_quasi_equivalence(n_samples=15, seed=5)
    assert rep.passed
    assert rep.computed["worst_route_difference"] <= 1e-10


def test_builtin_suite_lattice_work(monkeypatch):
    # one pass of the built-in suite: every report passes within 750,000
    # family evaluations on the log-polar lattice (1.42 M while a run took
    # its last level difference as its error)
    evals = []
    run = logpolar._LogPolarNorm.run

    def counted(self):
        res = run(self)
        evals.append(self.evals)
        return res

    monkeypatch.setattr(logpolar._LogPolarNorm, "run", counted)
    reports = [rep for entry in harness.BUILTIN_SUITE["experiments"]
               for rep in harness.run_suite_entry(entry, Path("."), CFG)]
    assert all(rep.passed for rep in reports), [rep.experiment for rep in reports
                                                if not rep.passed]
    assert 0 < sum(evals) <= 750_000


def test_builtin_suite_uses_every_registered_kind():
    assert {e["kind"] for e in harness.BUILTIN_SUITE["experiments"]} == set(harness.SUITE)


def test_readme_suite_table_matches_suite():
    # each row of README's suite-kind table names its kind's runner, and its
    # backticked keys are that runner's keyword parameters, cfg aside
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[1].startswith("`run_"):
            kind, runner = cells[0].strip("`"), cells[1].strip("`")
            rows[kind] = (runner, set(re.findall(r"`(\w+)`", cells[2])))
    assert set(rows) == set(harness.SUITE)
    for kind, (runner, keys) in rows.items():
        assert runner == harness.SUITE[kind].__name__, kind
        params = set(inspect.signature(harness.SUITE[kind]).parameters) - {"cfg"}
        assert keys == params, kind


def test_reports_are_jsonable():
    rep = harness.run_sector_experiment("I", 6.0, 0.05, 100)
    doc = rep.to_dict()
    json.dumps(doc)
    assert doc["experiment"] == "sector_case_I"
    assert isinstance(doc["runtime_ms"], int)
