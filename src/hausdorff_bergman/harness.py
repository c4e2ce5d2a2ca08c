"""Verification experiments: quantitative statements as runnable checks.

Each experiment returns one or more VerificationReport records; reports are
self-contained (parameters, computed and expected values, tolerance,
pass/fail, runtime) and serialize to JSON/CSV for the CLI front end.

This module is the one home of the suite format that `hausdorff-bergman
verify` reads: SUITE maps each experiment kind to its runner, whose keyword
parameters are the kind's keys and hold their defaults, run_suite_entry
converts and runs one entry, and BUILTIN_SUITE is the suite run without
--suite.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DivergentIntegral, NumericsError, ParameterOutOfRange, QuadratureFailure
from .halfplane import (
    HalfPlaneFunction,
    ModulusFunction,
    TestFunction,
    case_constant,
    check_sector_inequality,
    parse_function_spec,
    rational_power,
    sample_sector,
    sector_for_case,
)
from .hausdorff import HausdorffOperator, as_function
from .measure import (
    Boundedness,
    Measure,
    classify_boundedness,
    load_measure,
    measure_from_json,
    moment,
    restrict,
    theoretical_norm,
    truncate,
)
from .quadrature import QuadratureConfig, bergman_norm_p, bergman_norm_p_power, integrate_segment

__all__ = [
    "VerificationReport",
    "SharpnessSweep",
    "DEFAULT_EPSILONS",
    "default_config",
    "SUITE",
    "BUILTIN_SUITE",
    "run_suite_entry",
    "run_gnorm_experiment",
    "run_sharpness_sweep",
    "run_sharpness_experiment",
    "run_truncated_norm_experiment",
    "run_sector_experiment",
    "run_boundedness_matrix",
    "run_growth_decay_check",
    "run_lower_bound_experiment",
    "run_feps_norm_experiment",
    "run_minkowski_samples",
    "run_quasi_equivalence",
    "sweep_to_report",
]

DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.025)

# extrapolated sharpness must land within 5% below the exact norm; the
# Minkowski ceiling is exact up to quadrature noise
SHARPNESS_REL_TOL = 0.05
CEILING_NOISE_FACTOR = 10.0


def default_config() -> QuadratureConfig:
    """Tolerances used by the experiment suite (norm-level quadratures)."""
    return QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)


@dataclass
class VerificationReport:
    """Structured outcome of one experiment."""

    experiment: str
    parameters: dict
    computed: object
    expected: object
    tolerance: float
    passed: bool
    runtime_ms: int
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": _jsonable(self.parameters),
            "computed": _jsonable(self.computed),
            "expected": _jsonable(self.expected),
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "runtime_ms": int(self.runtime_ms),
            "details": _jsonable(self.details),
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, Boundedness):
        return x.value
    return x


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = int(round(1000.0 * (time.perf_counter() - self.t0)))
        return False


@dataclass
class SharpnessSweep:
    """Rayleigh-type ratios against the extremal family, with the
    extrapolated limit and the exact-norm target."""

    p: float
    epsilons: tuple[float, ...]
    ratios: tuple[float, ...]
    target: float
    extrapolated: float

    def ceiling_ok(self, rel_tol: float) -> bool:
        lid = self.target * (1.0 + CEILING_NOISE_FACTOR * rel_tol)
        return all(r <= lid for r in self.ratios)

    def passed(self, rel_tol: float) -> bool:
        """The extrapolated ratio lies in [target (1 - 5%), ceiling] and no
        ratio is above the ceiling; for a zero target every ratio is 0."""
        if self.target == 0.0:
            return all(r == 0.0 for r in self.ratios)
        return (self.target * (1.0 - SHARPNESS_REL_TOL) <= self.extrapolated
                <= self.target * (1.0 + CEILING_NOISE_FACTOR * rel_tol)
                and self.ceiling_ok(rel_tol))


def _decreasing(epsilons) -> tuple[float, ...]:
    """epsilons as floats; ValueError unless strictly decreasing (a halving sweep)."""
    epsilons = tuple(float(e) for e in epsilons)
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    return epsilons


def _extrapolate(ratios) -> float:
    """Richardson-type limit from the last three points of a halving sweep.

    Falls back to the last ratio when the differences show no solid
    contraction (ratio >= 0.75): outside the asymptotic regime the
    geometric step only amplifies curvature, e.g. for measures whose
    support spans many more decades than the smallest eps resolves.
    """
    if len(ratios) < 3:
        return ratios[-1]
    r0, r1, r2 = ratios[-3:]
    d1, d2 = r1 - r0, r2 - r1
    if d1 == 0.0 or d2 == 0.0:
        return r2
    rho = d2 / d1
    if not 0.0 < rho < 0.75:
        return r2
    return r2 + d2 * rho / (1.0 - rho)


def _norm(f: HalfPlaneFunction, p: float, cfg: QuadratureConfig) -> float:
    """||f||_p; raises QuadratureFailure rather than return an unconverged value."""
    return float(bergman_norm_p(f, p, cfg).require_converged("Bergman norm").value)


def _ratio(op: HausdorffOperator, f: HalfPlaneFunction, p: float,
           cfg: QuadratureConfig) -> float:
    return _norm(as_function(op, f), p, cfg) / _norm(f, p, cfg)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_gnorm_experiment(lambdas, deltas, p: float = 2.0,
                         cfg: QuadratureConfig | None = None) -> list[VerificationReport]:
    """Numeric modulus-family norms against their closed-form sandwich."""
    cfg = cfg or default_config()
    reports = []
    for lam in lambdas:
        for delta in deltas:
            g = ModulusFunction(float(lam), float(delta), float(p))
            lower, upper = g.norm_bounds()
            with _Timer() as tm:
                res = bergman_norm_p_power(g.as_function(), p, cfg)
            value = float(np.real(res.value))
            inside = lower < value < upper
            reports.append(
                VerificationReport(
                    experiment="gnorm_bounds",
                    parameters={"lambda": lam, "delta": delta, "p": p},
                    computed=value,
                    expected=[lower, upper],
                    tolerance=cfg.rel_tol,
                    passed=bool(inside and res.converged),
                    runtime_ms=tm.ms,
                    details={"error_estimate": res.error_estimate,
                             "converged": res.converged},
                )
            )
    return reports


def run_sharpness_sweep(mu: Measure, p: float, epsilons=DEFAULT_EPSILONS,
                        cfg: QuadratureConfig | None = None) -> SharpnessSweep:
    """Operator-norm sharpness: ratios built from the eps-shifted extremal
    family converge to the moment target as eps decreases.

    The smallest eps must resolve the measure's support: for mass spread
    over many decades the default eps list converges too slowly and the
    sweep reports an honest shortfall rather than extrapolating noise.
    """
    cfg = cfg or default_config()
    epsilons = _decreasing(epsilons)
    if classify_boundedness(mu, p) is Boundedness.UNBOUNDED:
        raise DivergentIntegral(
            "measure is unbounded on this space; truncate before sweeping"
        )
    target = theoretical_norm(mu, p, cfg).value
    op = HausdorffOperator(mu, p=p)
    ratios = tuple(
        _ratio(op, TestFunction(p, eps).as_function(), p, cfg) for eps in epsilons
    )
    return SharpnessSweep(
        p=p,
        epsilons=epsilons,
        ratios=ratios,
        target=float(target),
        extrapolated=_extrapolate(ratios),
    )


def sweep_to_report(sweep: SharpnessSweep, cfg: QuadratureConfig,
                    runtime_ms: int) -> VerificationReport:
    return VerificationReport(
        experiment="sharpness",
        parameters={"p": sweep.p, "epsilons": list(sweep.epsilons)},
        computed=sweep.extrapolated,
        expected=sweep.target,
        tolerance=SHARPNESS_REL_TOL,
        passed=sweep.passed(cfg.rel_tol),
        runtime_ms=runtime_ms,
        details={"ratios": list(sweep.ratios)},
    )


def run_sharpness_experiment(measure: Measure, p: float, epsilons=DEFAULT_EPSILONS,
                             cfg: QuadratureConfig | None = None) -> VerificationReport:
    """The sharpness sweep of measure as a report."""
    cfg = cfg or default_config()
    with _Timer() as tm:
        sweep = run_sharpness_sweep(measure, p, epsilons, cfg)
    return sweep_to_report(sweep, cfg, tm.ms)


def run_truncated_norm_experiment(measure: Measure, p: float, delta: float,
                                  epsilons=DEFAULT_EPSILONS,
                                  cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Truncated-operator norm via the unit-shift family (z+i)^-(2/p+eps).

    The operator is that of truncate(measure, delta) and the sweep target
    its moment.  The sweep passes as a sharpness sweep does, and each ratio
    deviation is checked against the perturbation bound
    target * (eps*delta^(eps-2)*||g_{p eps,delta}|| +
              (2/p+eps)*(1/delta)^(eps+1)*||g_{p(eps+1),delta}||) / ||f_eps||.
    """
    cfg = cfg or default_config()
    epsilons = _decreasing(epsilons)
    clipped = truncate(measure, delta)
    target = theoretical_norm(clipped, p, cfg).value
    op = HausdorffOperator(clipped, p=p)

    with _Timer() as tm:
        ratios = []
        bounds = []
        bound_ok = []
        for eps in epsilons:
            f = rational_power(1.0, 2.0 / p + eps)
            f_norm = _norm(f, p, cfg)
            ratios.append(_norm(as_function(op, f), p, cfg) / f_norm)
            g1 = ModulusFunction(p * eps, delta, p).as_function()
            g2 = ModulusFunction(p * (eps + 1.0), delta, p).as_function()
            bound = target * (
                eps * delta ** (eps - 2.0) * _norm(g1, p, cfg)
                + (2.0 / p + eps) * (1.0 / delta) ** (eps + 1.0) * _norm(g2, p, cfg)
            ) / f_norm
            bounds.append(bound)
            slack = 100.0 * cfg.rel_tol * max(1.0, target) + 10.0 * cfg.abs_tol
            bound_ok.append(abs(ratios[-1] - target) <= bound * (1.0 + 1e-6) + slack)
        sweep = SharpnessSweep(p, epsilons, tuple(ratios), target, _extrapolate(ratios))

    passed = sweep.passed(cfg.rel_tol) and all(bound_ok)
    return VerificationReport(
        experiment="truncated_norm",
        parameters={"p": p, "delta": delta, "epsilons": list(epsilons)},
        computed=sweep.extrapolated,
        expected=target,
        tolerance=SHARPNESS_REL_TOL,
        passed=passed,
        runtime_ms=tm.ms,
        details={"ratios": ratios, "perturbation_bounds": bounds,
                 "bound_satisfied": bound_ok},
    )


def run_sector_experiment(case: str, p: float, eps: float,
                          samples: int = 10_000,
                          theta0: float | None = None,
                          seed: int = 20240801) -> VerificationReport:
    """Sample the case sector and count inequality violations (expect 0).

    Ties within 1e-14 are compliant; closed angular endpoints contribute
    explicit boundary rays whose violations (if any) are reported separately.
    """
    tf = TestFunction(p, eps)
    sector = sector_for_case(case, theta0)
    rng = np.random.default_rng(seed)
    with _Timer() as tm:
        z = sample_sector(sector, samples, rng)
        ok = check_sector_inequality(case, tf, z, theta0=theta0)
        violations = int(np.sum(~ok))
        n_edge = len(z) - samples
        edge_violations = int(np.sum(~ok[samples:])) if n_edge else 0
    details = {"n_points": int(len(z)), "boundary_points": int(n_edge),
               "boundary_violations": edge_violations}
    if case == "II":
        details["comparison_constant"] = case_constant(p, eps)
    return VerificationReport(
        experiment=f"sector_case_{case}",
        parameters={"p": p, "eps": eps, "theta0": theta0,
                    "n_samples": samples, "seed": seed},
        computed=violations,
        expected=0,
        tolerance=0.0,
        passed=violations == 0,
        runtime_ms=tm.ms,
        details=details,
    )


def run_boundedness_matrix(measures, ps, cfg: QuadratureConfig | None = None,
                           epsilons=(0.2, 0.1, 0.05)) -> list[VerificationReport]:
    """Classify each (measure, p) pair and corroborate the verdict.

    Bounded pairs get a short sharpness sweep that must respect the moment
    ceiling; unbounded pairs must show monotone divergence of the truncated
    moments over delta in {0.1, 0.01, 0.001}.
    """
    cfg = cfg or default_config()
    reports = []
    for i, mu in enumerate(measures):
        for p in ps:
            with _Timer() as tm:
                verdict = classify_boundedness(mu, p)
                details: dict = {"classification": verdict.value}
                if verdict is Boundedness.BOUNDED:
                    sweep = run_sharpness_sweep(mu, p, epsilons, cfg)
                    details["ratios"] = list(sweep.ratios)
                    details["target"] = sweep.target
                    passed = sweep.ceiling_ok(cfg.rel_tol)
                    computed: object = sweep.ratios[-1]
                    expected: object = sweep.target
                elif verdict is Boundedness.UNBOUNDED:
                    deltas = (0.1, 0.01, 0.001)
                    moments = [
                        moment(truncate(mu, d), 2.0 / p - 1.0, cfg).value
                        for d in deltas
                    ]
                    details["deltas"] = list(deltas)
                    passed = all(
                        b > a * 1.01 for a, b in zip(moments, moments[1:])
                    )
                    computed = moments
                    expected = "monotone divergence"
                else:
                    passed = True
                    computed = verdict.value
                    expected = "n/a"
            reports.append(
                VerificationReport(
                    experiment="boundedness",
                    parameters={"measure_index": i, "p": p},
                    computed=computed,
                    expected=expected,
                    tolerance=CEILING_NOISE_FACTOR * cfg.rel_tol,
                    passed=bool(passed),
                    runtime_ms=tm.ms,
                    details=details,
                )
            )
    return reports


def run_growth_decay_check(function, p: float, n_steps: int = 24) -> VerificationReport:
    """Boundary decay of (Im z)^2 |f(z)|^p along z -> real axis and z -> inf.

    Checks finiteness on a sample grid and eventual monotone decrease along
    geometric sequences approaching the boundary and infinity.
    """
    func = function.as_function() if hasattr(function, "as_function") else function

    def quantity(z):
        return np.imag(z) ** 2 * np.abs(np.asarray(func(z))) ** p

    with _Timer() as tm:
        scales = 2.0 ** np.arange(1, n_steps + 1)
        seqs = {
            "to_axis_at_0": 1j / scales,
            "to_axis_at_1": 1.0 + 1j / scales,
            "to_inf_vertical": 1j * scales,
            "to_inf_diagonal": (1.0 + 1j) / math.sqrt(2.0) * scales,
        }
        rng = np.random.default_rng(7)
        grid = rng.uniform(-50, 50, 400) + 1j * np.exp(rng.uniform(-6, 6, 400))
        sup_grid = float(np.max(quantity(grid)))
        seq_ok = {}
        tail_decreasing = {}
        for name, zs in seqs.items():
            vals = quantity(zs)
            tail = vals[n_steps // 2:]
            tail_decreasing[name] = bool(np.all(np.diff(tail) < 0.0))
            seq_ok[name] = bool(
                tail_decreasing[name] and vals[-1] < 1e-3 * max(np.max(vals), 1e-300)
            )
        passed = math.isfinite(sup_grid) and all(seq_ok.values())
    return VerificationReport(
        experiment="growth_decay",
        parameters={"p": p, "family": type(function).__name__},
        computed={"sup_on_grid": sup_grid, "sequences_ok": seq_ok},
        expected="finite sup; decay to 0 along boundary sequences",
        tolerance=0.0,
        passed=bool(passed),
        runtime_ms=tm.ms,
        details={"tail_decreasing": tail_decreasing},
    )


def lower_bound_constant(p: float, eps: float, theta0: float | None,
                         cfg: QuadratureConfig | None = None) -> tuple[str, float]:
    """The case constant k(p) of the norm lower bound, from its closed form.

    Case I (p > 2):      2^(-p(eps+1)) * int_0^(pi/2) cos^p / (4 pi)
    Case II (1 < p <= 2): C(p) * 2^(-p(eps+1)) * int_(pi/4)^(pi/2) sin^p / (4 pi)
    Case III (p = 1):    2^(-(eps+1)) * (1 - cos(theta0)) / (4 pi)

    The case I integral is sqrt(pi) Gamma((p+1)/2) / (2 Gamma(p/2 + 1)),
    taken through lgamma so that no Gamma value overflows at large p.  The
    case II integral is numeric, and the bound must hold outright, so it
    counts its value less its error estimate, and raises QuadratureFailure
    unless converged.  It runs at rel_tol 1e-12 and abs_tol 1e-15 or cfg's,
    whichever is tighter, so that k stays within about 1e-12 of its closed
    form.
    """
    if p > 2.0:
        case = "I"
        cos_integral = 0.5 * math.exp(0.5 * math.log(math.pi) + math.lgamma((p + 1.0) / 2.0)
                                      - math.lgamma(p / 2.0 + 1.0))
        k = 2.0 ** (-p * (eps + 1.0)) * cos_integral / (4.0 * math.pi)
    elif p > 1.0:
        case = "II"
        cfg = cfg or QuadratureConfig()
        tight = replace(cfg, rel_tol=min(cfg.rel_tol, 1e-12), abs_tol=min(cfg.abs_tol, 1e-15))
        res = integrate_segment(lambda th: np.sin(th) ** p, math.pi / 4.0, math.pi / 2.0, tight)
        res.require_converged(f"k(p) integral of sin^{p:g}")
        k = (
            case_constant(p, eps)
            * 2.0 ** (-p * (eps + 1.0))
            * (float(np.real(res.value)) - res.error_estimate)
            / (4.0 * math.pi)
        )
    else:
        case = "III"
        if theta0 is None:
            raise ParameterOutOfRange("p = 1 needs theta0")
        k = 2.0 ** (-(eps + 1.0)) * (1.0 - math.cos(theta0)) / (4.0 * math.pi)
    return case, float(k)


def run_lower_bound_experiment(measure: Measure, p: float, eps: float,
                               theta0: float | None = None,
                               cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Guaranteed lower bound on the operator-norm p-th power:

        ||H f_eps||_p^p >= k(p) * (moment of t^(2/p+eps-1) over (0, 1/eps])^p / (p eps)

    with k(p) from the closed form of the matching case.  The bound is loose
    but must hold outright.
    """
    cfg = cfg or default_config()
    case, k = lower_bound_constant(p, eps, theta0, cfg)
    # hypotheses of the sector inequality backing each case
    probe = math.pi / 4.0 if case != "III" else math.pi / 2.0 + (theta0 or 0.0) / 2.0
    check_sector_inequality(case, TestFunction(p, eps),
                            2.0 * np.exp(1j * probe), theta0=theta0)
    with _Timer() as tm:
        op = HausdorffOperator(measure, p=p)
        f = TestFunction(p, eps).as_function()
        lhs = float(np.real(bergman_norm_p_power(as_function(op, f), p, cfg).value))
        clipped = restrict(measure, 0.0, 1.0 / eps)
        m = moment(clipped, 2.0 / p + eps - 1.0, cfg).value
        rhs = k * m**p / (p * eps)
        passed = lhs >= rhs * (1.0 - 100.0 * cfg.rel_tol)
    details = {"case": case, "k": k, "moment": m}
    if case == "II":
        details["note"] = (
            "case II applied on its (p, eps) hypothesis 1 < 2/p + eps < 2, "
            "i.e. 1 < p <= 2"
        )
    return VerificationReport(
        experiment="lower_bound",
        parameters={"p": p, "eps": eps, "theta0": theta0},
        computed=lhs,
        expected={"at_least": rhs},
        tolerance=100.0 * cfg.rel_tol,
        passed=bool(passed),
        runtime_ms=tm.ms,
        details=details,
    )


def run_feps_norm_experiment(p: float, epsilons=(0.2, 0.1, 0.05),
                             cfg: QuadratureConfig | None = None) -> list[VerificationReport]:
    """Norm growth of the extremal family: ||f_eps||_p^p * (p eps eps^(p eps))
    stays inside the modulus-family sandwich [(1/2)^(2+p eps), 2^((2+p eps)/2)]."""
    cfg = cfg or default_config()
    reports = []
    for eps in epsilons:
        tf = TestFunction(p, float(eps))
        lam = p * eps
        lower, upper = 0.5 ** (2.0 + lam), 2.0 ** ((2.0 + lam) / 2.0)
        with _Timer() as tm:
            power = float(
                np.real(bergman_norm_p_power(tf.as_function(), p, cfg).value)
            )
            normalized = power * (p * eps * eps ** (p * eps))
        reports.append(
            VerificationReport(
                experiment="feps_norm_equivalence",
                parameters={"p": p, "eps": eps},
                computed=normalized,
                expected=[lower, upper],
                tolerance=cfg.rel_tol,
                passed=bool(lower < normalized < upper),
                runtime_ms=tm.ms,
                details={"norm_power": power},
            )
        )
    return reports


def _random_bounded_measure(rng: np.random.Generator, p: float,
                            quasi_safe: bool = False) -> Measure:
    """A random measure with finite moment for the given p; with
    quasi_safe the inverted moment is kept finite as well."""
    from .measure import Atom, DensitySegment

    atoms = []
    locations: set[float] = set()
    for _ in range(rng.integers(0, 4)):
        t = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        if t in locations:
            continue
        locations.add(t)
        atoms.append(Atom(t, float(rng.uniform(0.1, 2.0))))
    segments = []
    for _ in range(rng.integers(0, 3)):
        kind = rng.choice(["const", "power", "exp_tail", "power_at_zero"])
        if kind == "exp_tail":
            lo = float(rng.uniform(0.1, 1.0))
            segments.append(
                DensitySegment.from_spec(
                    lo, math.inf, ("exp", (float(rng.uniform(0.2, 1.5)),
                                           float(rng.uniform(0.5, 2.0)))),
                    exp_lo=None, exp_hi=-math.inf,
                )
            )
        elif kind == "power_at_zero":
            a0_floor = abs(1.0 - 2.0 / p) - 1.0 if quasi_safe else -2.0 / p
            a0 = float(rng.uniform(a0_floor + 0.2, 0.5))
            segments.append(
                DensitySegment.from_spec(
                    0.0, float(rng.uniform(0.5, 2.0)),
                    ("power", (float(rng.uniform(0.2, 1.5)), a0)),
                    exp_lo=a0,
                )
            )
        else:
            a = float(rng.uniform(0.2, 2.0))
            b = a + float(rng.uniform(0.5, 4.0))
            if kind == "const":
                spec = ("const", (float(rng.uniform(0.2, 1.5)),))
            else:
                spec = ("power", (float(rng.uniform(0.2, 1.5)),
                                  float(rng.uniform(-1.0, 1.0))))
            segments.append(DensitySegment.from_spec(a, b, spec))
    if not atoms and not segments:
        atoms.append(Atom(1.0, 1.0))
    return Measure(atoms=tuple(atoms), segments=tuple(segments))


def _random_function(rng: np.random.Generator, p: float) -> HalfPlaneFunction:
    shift = float(rng.uniform(0.3, 2.0))
    exponent = 2.0 / p + float(rng.uniform(0.4, 2.0))
    return rational_power(shift, exponent)


def run_minkowski_samples(n_samples: int = 50, seed: int = 20240801,
                          cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Random (measure, function, p) triples never beat the moment ceiling:
    every measured ratio stays below theoretical_norm * (1 + 1e-4).

    A sample whose norm does not converge bounds nothing either way: it is
    counted as unconverged, not as a breach, and leaves the worst ratio
    alone.  The report passes only if some sample converged."""
    cfg = cfg or default_config()
    rng = np.random.default_rng(seed)
    worst = 0.0
    breaches = 0
    unconverged = 0
    with _Timer() as tm:
        for _ in range(n_samples):
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
            mu = _random_bounded_measure(rng, p)
            f = _random_function(rng, p)
            target = theoretical_norm(mu, p, cfg).value
            try:
                ratio = _ratio(HausdorffOperator(mu, p=p), f, p, cfg)
            except QuadratureFailure:
                unconverged += 1
                continue
            rel = ratio / target if target > 0 else 0.0
            worst = max(worst, rel)
            if ratio > target * (1.0 + 1e-4):
                breaches += 1
    return VerificationReport(
        experiment="minkowski_ceiling",
        parameters={"n_samples": n_samples, "seed": seed},
        computed={"breaches": breaches, "worst_ratio_over_norm": worst,
                  "unconverged": unconverged},
        expected={"breaches": 0},
        tolerance=1e-4,
        passed=breaches == 0 and unconverged < n_samples,
        runtime_ms=tm.ms,
        details={},
    )


def run_quasi_equivalence(n_samples: int = 100, seed: int = 20240801,
                          atol: float = 1e-10) -> VerificationReport:
    """Direct quadrature of the adjoint operator against the push-forward
    route at random (measure, function, point) triples, plus the adjoint
    norm formula on atoms."""
    from .hausdorff import apply_quasi
    from .measure import pushforward_inverse

    rng = np.random.default_rng(seed)
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-13)
    norm_cfg = default_config()
    worst = 0.0
    with _Timer() as tm:
        for _ in range(n_samples):
            p = float(rng.choice([1.0, 2.0, 4.0]))
            mu = _random_bounded_measure(rng, p, quasi_safe=True)
            f = _random_function(rng, p)
            z = complex(rng.uniform(-3.0, 3.0), float(np.exp(rng.uniform(-1.5, 1.5))))
            direct = apply_quasi(mu, f, z, cfg, p=p, route="direct")
            pushed = apply_quasi(mu, f, z, cfg, p=p, route="pushforward")
            worst = max(worst, abs(direct - pushed))
        # adjoint norm formula attained on atoms
        norm_rel_err = 0.0
        for s, w, p in ((2.0, 1.0, 2.0), (0.5, 1.5, 4.0), (3.0, 0.5, 1.0)):
            mu = Measure.from_atoms((s, w))
            f = _random_function(rng, p)
            nu = pushforward_inverse(mu)
            ratio = _ratio(HausdorffOperator(nu, p=p), f, p, norm_cfg)
            expected = moment(mu, 1.0 - 2.0 / p).value
            norm_rel_err = max(norm_rel_err, abs(ratio / expected - 1.0))
    passed = worst <= atol and norm_rel_err <= 1e-5
    return VerificationReport(
        experiment="quasi_equivalence",
        parameters={"n_samples": n_samples, "seed": seed},
        computed={"worst_route_difference": worst,
                  "worst_atom_norm_rel_err": norm_rel_err},
        expected={"route_difference_at_most": atol,
                  "atom_norm_rel_err_at_most": 1e-5},
        tolerance=atol,
        passed=bool(passed),
        runtime_ms=tm.ms,
        details={},
    )


# ---------------------------------------------------------------------------
# the suite format
# ---------------------------------------------------------------------------

# kind -> runner.  An entry's keys, "kind" aside, are its runner's keyword
# arguments, so the runner's signature lists the kind's keys and holds their
# defaults; cfg comes from the command line, never from the entry.
SUITE = {
    "gnorm": run_gnorm_experiment,
    "sharpness": run_sharpness_experiment,
    "truncated": run_truncated_norm_experiment,
    "sector": run_sector_experiment,
    "boundedness": run_boundedness_matrix,
    "growth": run_growth_decay_check,
    "lower_bound": run_lower_bound_experiment,
    "feps_norm": run_feps_norm_experiment,
    "quasi": run_quasi_equivalence,
    "minkowski": run_minkowski_samples,
}

# keys an entry may leave out that its runner requires, as suite JSON
_SUITE_DEFAULTS = {"lower_bound": {"measure": {"atoms": [{"t": 1.0, "w": 1.0}]}}}


def _suite_measure(spec, base: Path) -> Measure:
    """Inline measure JSON, or the path of a measure file relative to base."""
    if not isinstance(spec, str):
        return measure_from_json(spec)
    try:
        return load_measure(base / spec)
    except OSError as exc:
        raise ValueError(f"cannot load measure {spec}: {exc}") from exc


_SUITE_CONVERSIONS = {
    "measure": _suite_measure,
    "measures": lambda specs, base: [_suite_measure(s, base) for s in specs],
    "function": lambda spec, base: parse_function_spec(spec),
}


def run_suite_entry(entry: dict, base: Path,
                    cfg: QuadratureConfig) -> list[VerificationReport]:
    """The reports of one suite entry, its runner called with the entry's
    keys and cfg; measure paths resolve against base, the suite file's
    directory.

    A malformed entry (unknown kind, unknown or missing key, unreadable
    measure) raises KeyError, TypeError or ValueError; a numerical failure
    is returned as a failed report."""
    t0 = time.perf_counter()
    kind = entry["kind"]
    if kind not in SUITE:
        raise ValueError(f"unknown experiment kind {kind!r}")
    params = inspect.signature(SUITE[kind]).parameters
    accepted = set(params) - {"cfg"}
    args = {**_SUITE_DEFAULTS.get(kind, {}), **entry}
    del args["kind"]
    unknown = sorted(set(args) - accepted)
    if unknown:
        raise ValueError(f"{kind} takes no key {', '.join(map(repr, unknown))} "
                         f"(its keys: {', '.join(sorted(accepted))})")
    # called through the module attribute, not the SUITE entry, so that a
    # wrapper installed there (a tracer's) sees the call
    runner = globals()[SUITE[kind].__name__]
    try:
        for key, convert in _SUITE_CONVERSIONS.items():
            if key in args:
                args[key] = convert(args[key], base)
        if "cfg" in params:
            args["cfg"] = cfg
        out = runner(**args)
    except NumericsError as exc:
        # a numerically impossible experiment is a failed report, not a crash
        return [VerificationReport(
            experiment=kind,
            parameters={k: v for k, v in entry.items()
                        if k not in ("measure", "measures")},
            computed=f"error: {exc}",
            expected="experiment completes",
            tolerance=0.0,
            passed=False,
            runtime_ms=int(round(1000 * (time.perf_counter() - t0))),
        )]
    return out if isinstance(out, list) else [out]


BUILTIN_SUITE = {
    "experiments": [
        {"kind": "gnorm", "lambdas": [1.0], "deltas": [1.0, 2.0], "p": 2.0},
        {"kind": "sharpness", "p": 2.0, "epsilons": [0.2, 0.1, 0.05],
         "measure": {"atoms": [], "segments": [
             {"lo": 1.0, "hi": 2.0,
              "density": {"kind": "const", "params": [1.0]}}]}},
        {"kind": "truncated", "p": 1.0, "delta": 0.25,
         "epsilons": [0.2, 0.1, 0.05],
         "measure": {"atoms": [], "segments": [
             {"lo": 0.0, "hi": "inf",
              "density": {"kind": "exp", "params": [1.0, 1.0]},
              "exp_lo": 0.0, "exp_hi": "-inf"}]}},
        {"kind": "sector", "case": "I", "p": 6.0, "eps": 0.05, "samples": 4000},
        {"kind": "sector", "case": "II", "p": 2.0, "eps": 0.4, "samples": 4000},
        {"kind": "sector", "case": "III", "p": 1.0, "eps": 0.05,
         "theta0": math.pi / 32.0, "samples": 4000},
        {"kind": "boundedness", "ps": [1.0, 2.0], "measures": [
            {"atoms": [], "segments": [
                {"lo": 0.0, "hi": "inf",
                 "density": {"kind": "const", "params": [1.0]},
                 "exp_lo": 0.0, "exp_hi": 0.0}]},
            {"atoms": [{"t": 2.0, "w": 0.5}], "segments": []},
        ]},
        {"kind": "growth", "function": "test:p=2,eps=0.5", "p": 2.0},
        {"kind": "lower_bound", "p": 4.0, "eps": 0.25},
        {"kind": "lower_bound", "p": 2.0, "eps": 0.3},
        {"kind": "lower_bound", "p": 1.0, "eps": 0.2,
         "theta0": math.pi / 32.0},
        {"kind": "feps_norm", "p": 2.0, "epsilons": [0.2, 0.1, 0.05]},
        {"kind": "quasi", "n_samples": 25},
        {"kind": "minkowski", "n_samples": 10},
    ]
}
