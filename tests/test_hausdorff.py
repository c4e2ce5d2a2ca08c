import cmath
import math
import warnings

import numpy as np
import pytest

from hausdorff_bergman import (
    Atom,
    DensitySegment,
    DivergentIntegral,
    HausdorffOperator,
    IntegralResult,
    Measure,
    QuadratureConfig,
    QuadratureFailure,
    adjoint_pairing_check,
    apply,
    apply_quasi,
    apply_with_error,
    as_function,
    bergman_norm_p,
    pairing,
    quasi_as_function,
    rational_power,
    theoretical_norm,
    truncate,
)
from hausdorff_bergman import hausdorff
from hausdorff_bergman.halfplane import UNIT, HalfPlaneFunction, ModulusFunction, Term

CFG = QuadratureConfig()
LOG_ORACLE = math.log(1.5) - 1.0 / 6.0

F = rational_power(1.0, 2.0)


def uniform_12() -> Measure:
    return Measure(segments=(DensitySegment.from_spec(1.0, 2.0, ("const", (1.0,))),))


def lebesgue() -> Measure:
    seg = DensitySegment.from_spec(0.0, math.inf, ("const", (1.0,)),
                                   exp_lo=0.0, exp_hi=0.0)
    return Measure(segments=(seg,))


# ---------------------------------------------------------------------------
# pointwise application
# ---------------------------------------------------------------------------


def test_identity_atom_is_exact():
    op = HausdorffOperator(Measure.from_atoms((1.0, 1.0)), p=2.0)
    rng = np.random.default_rng(2)
    z = rng.uniform(-3, 3, 50) + 1j * np.exp(rng.uniform(-2, 2, 50))
    np.testing.assert_array_equal(apply(op, F, z, CFG), np.asarray(F(z)))


def test_single_atom_dilation_value():
    op = HausdorffOperator(Measure.from_atoms((2.0, 1.0)), p=2.0)
    val = apply(op, F, 1j, CFG)
    np.testing.assert_allclose(val, -2.0 / 9.0, atol=1e-15)


def test_integer_power_under_atoms_against_mpmath():
    # under atoms H (z + i)^-2 is the finite sum of (w/t) (z/t + i)^-2,
    # each term from the integer phase: within 1e-14 of the sum of the
    # terms' moduli, with error estimate 0, at points with y from 1e-3 to 1e3
    mpmath = pytest.importorskip("mpmath")
    atoms = ((0.5, 0.3), (2.0, 1.2), (7.0, 0.25))
    rng = np.random.default_rng(41)
    z = rng.uniform(-10.0, 10.0, 50) + 1j * np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 50))
    res = apply_with_error(HausdorffOperator(Measure.from_atoms(*atoms), 2.0), F, z)
    assert res.error_estimate == 0.0
    with mpmath.workdps(40):
        for zz, got in zip(z, res.value):
            terms = [w / t * (mpmath.mpc(zz.real, zz.imag) / t + 1j) ** -2 for t, w in atoms]
            assert abs(mpmath.mpc(complex(got)) - sum(terms)) <= 1e-14 * sum(abs(x) for x in terms)


def test_uniform_segment_value():
    # oracle: -(ln 1.5 - 1/6) via the antiderivative of -t/(1+t)^2
    op = HausdorffOperator(uniform_12(), p=2.0)
    val = apply(op, F, 1j, CFG)
    np.testing.assert_allclose(val, -LOG_ORACLE, rtol=1e-8)


def test_apply_with_error_reports():
    op = HausdorffOperator(uniform_12(), p=2.0)
    res = apply_with_error(op, F, 1j, CFG)
    assert res.converged
    assert abs(res.value - (-LOG_ORACLE)) <= max(res.error_estimate, 1e-10)


def test_apply_with_error_counts_the_subdivisions_of_its_segments():
    # the result is the inner quadrature's IntegralResult: over an atom and
    # two segments its subdivisions are those of the segments, summed
    tail = DensitySegment.from_spec(2.0, math.inf, ("exp", (1.0, 0.5)), exp_hi=-math.inf)
    z = np.array([0.3 + 0.01j, -2.0 + 0.5j, 4.0 + 3.0j])
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
    parts = [apply_with_error(HausdorffOperator(mu), F, z, cfg)
             for mu in (uniform_12(), Measure(segments=(tail,)))]
    both = Measure(atoms=(Atom(0.5, 1.0),), segments=uniform_12().segments + (tail,))
    res = apply_with_error(HausdorffOperator(both), F, z, cfg)
    assert isinstance(res, IntegralResult)
    assert all(r.subdivisions_used > 0 for r in parts)
    assert res.subdivisions_used == sum(r.subdivisions_used for r in parts)
    assert res.converged and res.unit == "subdivisions" and res.failure_reason is None


def test_additivity_in_measure():
    mu1 = Measure.from_atoms((0.5, 1.0))
    mu2 = uniform_12()
    both = Measure(atoms=mu1.atoms, segments=mu2.segments)
    z = 0.3 + 0.8j
    v = apply(HausdorffOperator(both, p=2.0), F, z, CFG)
    v1 = apply(HausdorffOperator(mu1, p=2.0), F, z, CFG)
    v2 = apply(HausdorffOperator(mu2, p=2.0), F, z, CFG)
    np.testing.assert_allclose(v, v1 + v2, atol=1e-12)


def test_linearity_in_function():
    op = HausdorffOperator(uniform_12(), p=2.0)
    g = rational_power(2.0, 3.0)
    z = np.array([0.5 + 0.5j, -1.0 + 2.0j, 3.0 + 0.1j])
    lhs = apply(op, 2.0 * F + (-1.5) * g, z, CFG)
    rhs = 2.0 * apply(op, F, z, CFG) - 1.5 * apply(op, g, z, CFG)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_divergent_measure_raises():
    op = HausdorffOperator(lebesgue(), p=2.0)
    with pytest.raises(DivergentIntegral):
        apply(op, F, 1j, CFG)


def test_truncation_rescues_divergent_measure():
    op = HausdorffOperator(truncate(lebesgue(), 0.25), p=2.0)
    val = apply(op, F, 1j, CFG)
    # oracle: -int_{1/4}^{4} t/(1+t)^2 dt = -(ln 4 - 0.6) via ln(1+t) + 1/(1+t)
    np.testing.assert_allclose(val, -(math.log(4.0) - 0.6), rtol=1e-9)


def test_operator_validation():
    with pytest.raises(ValueError):
        HausdorffOperator(uniform_12(), p=0.5)
    with pytest.raises(ValueError):
        truncate(uniform_12(), 1.5)


# ---------------------------------------------------------------------------
# as_function and norms
# ---------------------------------------------------------------------------


def test_as_function_identity():
    op = HausdorffOperator(Measure.from_atoms((1.0, 1.0)), p=2.0)
    hf = as_function(op, F, CFG)
    z = np.array([1j, 0.5 + 2j, -2.0 + 0.3j])
    np.testing.assert_array_equal(hf(z), np.asarray(F(z)))


@pytest.mark.parametrize("s,w,p", [(2.0, 1.0, 2.0), (4.0, 1.0, 4.0), (0.5, 2.0, 2.0)])
def test_dilation_norm_exactness(s, w, p):
    op = HausdorffOperator(Measure.from_atoms((s, w)), p=p)
    hf = as_function(op, F, CFG)
    num = bergman_norm_p(hf, p, CFG).value
    den = bergman_norm_p(F, p, CFG).value
    np.testing.assert_allclose(num / den, w * s ** (2.0 / p - 1.0), rtol=1e-6)


def test_minkowski_ceiling_samples():
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
    rng = np.random.default_rng(31)
    for _ in range(5):
        mu = Measure(
            atoms=(Atom(float(np.exp(rng.uniform(-1.5, 1.5))),
                        float(rng.uniform(0.2, 1.5))),),
            segments=uniform_12().segments,
        )
        p = float(rng.choice([1.5, 2.0, 3.0]))
        f = rational_power(float(rng.uniform(0.5, 1.5)), 2.0 / p + 0.8)
        hf = as_function(HausdorffOperator(mu, p=p), f, cfg.tighter())
        ratio = bergman_norm_p(hf, p, cfg).value / bergman_norm_p(f, p, cfg).value
        assert ratio <= theoretical_norm(mu, p, cfg).value * (1.0 + 10.0 * cfg.rel_tol)


def test_truncation_monotonicity_for_positive_family():
    g = ModulusFunction(1.0, 1.0, 2.0).as_function()
    mu = Measure(atoms=(Atom(0.05, 1.0), Atom(1.0, 0.5), Atom(12.0, 0.75)),
                 segments=())
    norms = []
    for delta in (0.5, 0.2, 0.04, 0.01):
        op = HausdorffOperator(truncate(mu, delta), p=2.0)
        hf = as_function(op, g, CFG)
        norms.append(bergman_norm_p(hf, 2.0, CFG).value)
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_zero_measure_gives_zero_operator():
    op = HausdorffOperator(Measure(), p=2.0)
    assert apply(op, F, 1j, CFG) == 0.0
    hf = as_function(op, F, CFG)
    assert bergman_norm_p(hf, 2.0, CFG).value == 0.0
    np.testing.assert_array_equal(hf(np.array([1j, 2.0 + 1j])), 0.0)


def test_sum_of_images_under_one_measure_is_one_inner_quadrature():
    # as_function puts one measure on every term, and point values run one
    # inner quadrature per measure: the first panel's density nodes are
    # evaluated once per point batch, not once per term
    calls = []

    def density(t):
        calls.append(np.array(t, copy=True))
        return np.ones_like(t)

    seg = DensitySegment(1.0, 2.0, ("const", (1.0,)), density=density)
    op = HausdorffOperator(Measure(segments=(seg,)), p=2.0)
    f, g = rational_power(1.0, 2.0), rational_power(0.5, 3.0)
    inner = CFG.tighter()
    both = as_function(op, f + g, inner)
    assert len(both.sides) == 1
    z = np.array([0.3 + 1j, -2.0 + 0.5j, 4.0 + 3.0j])
    calls.clear()
    total = both(z)
    assert sum(np.array_equal(c, calls[0]) for c in calls) == 1
    apart = as_function(op, f, inner)(z) + as_function(op, g, inner)(z)
    np.testing.assert_allclose(total, apart, rtol=inner.rel_tol)


def test_image_of_a_cancelling_pair_against_mpmath():
    # H((z+i)^-1 - (z+2i)^-1) under uniform[1,2] is
    # -i log((z+2i)/(z+i)) + (i/2) log((z+4i)/(z+2i)).  At 1e6 (0.3 + i) the
    # pair cancels to 1e-6 of each term, whose rounding, summed term by term,
    # was 1.46e-10 of the value: above the inner rel_tol
    mpmath = pytest.importorskip("mpmath")
    rel_tol = 1e-10
    pair = rational_power(1.0, 1.0) - rational_power(2.0, 1.0)
    hf = as_function(HausdorffOperator(uniform_12(), p=2.0), pair,
                     QuadratureConfig(rel_tol=rel_tol))
    z = 1e6 * (0.3 + 1j)
    with mpmath.workdps(60):
        zm = mpmath.mpc(z.real, z.imag)
        exact = complex(-1j * (mpmath.log(zm + 2j) - mpmath.log(zm + 1j))
                        + 0.5j * (mpmath.log(zm + 4j) - mpmath.log(zm + 2j)))
    assert abs(hf(z) - exact) <= rel_tol * abs(exact)


@pytest.mark.parametrize("z", [1e307j, 3e307 + 1e307j])
@pytest.mark.parametrize("family,a", [
    ("ratpow", 0.5), ("ratpow", 2.0), ("gmod", 0.5), ("gmod", 2.0)])
def test_image_where_z_over_t_overflows(family, a, z):
    # under uniform[0.01, 1], z/t would leave the float range for small t;
    # the inner nodes reach the kernel as (z, -log t), so the value is
    # finite, no warning escapes, and it lies within its error estimate of
    # the integral
    mpmath = pytest.importorskip("mpmath")
    f = HalfPlaneFunction((Term(1.0, UNIT, family, 1.0, a),))
    mu = Measure(segments=(DensitySegment.from_spec(0.01, 1.0, ("const", (1.0,))),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = apply_with_error(HausdorffOperator(mu, 2.0), f, z)
    assert cmath.isfinite(res.value)
    with mpmath.workdps(30):
        zm = mpmath.mpc(z.real, z.imag)

        def integrand(t):
            w = zm / t + 1j
            return (w ** -a if family == "ratpow" else abs(w) ** -a) / t

        exact = complex(mpmath.quad(integrand, [0.01, 0.1, 1.0]))  # 0 below the float range
    assert abs(res.value - exact) <= res.error_estimate


# (1/2) (z/2 + i)^-0.5 at z = 1.5e308 + 1.5e308i, from mpmath
HALVED_AT_HUGE_Z = 4.485359110830383e-155 - 1.857896575819671e-155j


@pytest.mark.parametrize("route", ["apply", "direct", "pushforward"])
def test_point_whose_modulus_overflows(route):
    # |z| overflows to inf (every route read 0); the point enters as
    # (z/2, log 2).  The atom (2, 1) gives H f(z) = f(z/2) / 2, and the
    # adjoint under the atom (0.5, 1) the same value
    z, f = 1.5e308 + 1.5e308j, rational_power(1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if route == "apply":
            value = apply_with_error(HausdorffOperator(Measure.from_atoms((2.0, 1.0))), f, z).value
        else:
            value = apply_quasi(Measure.from_atoms((0.5, 1.0)), f, z, route=route)
    assert abs(value - HALVED_AT_HUGE_Z) <= 1e-12 * abs(HALVED_AT_HUGE_Z)


# a density segment of each improper kind: the segment, its density in
# mpmath (given the module) and the breakpoints of mpmath's quadrature
IMPROPER = {
    "(0, 1]": (DensitySegment.from_spec(0.0, 1.0, ("power", (1.0, -0.5)), exp_lo=-0.5),
               lambda mp, t: t ** -0.5, [0, 1]),
    "[1, inf)": (DensitySegment.from_spec(1.0, math.inf, ("power", (1.0, -3.0)), exp_hi=-3.0),
                 lambda mp, t: t ** -3, [1, 10, "inf"]),
    "(0, inf)": (DensitySegment.from_spec(0.0, math.inf, ("exp", (1.0, 1.0)),
                                          exp_lo=0.0, exp_hi=-math.inf),
                 lambda mp, t: mp.exp(-t), [0, 1, 10, "inf"]),
}

@pytest.mark.parametrize("kind", IMPROPER)
@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
def test_improper_segments_against_mpmath(kind, rel_tol):
    # the inner quadrature substitutes t = b e^-u or a e^u on an improper
    # segment, whose Jacobian the integrand takes into its one real column:
    # every value of a batch lies within the estimate of H f = integral of
    # (1/t) f(z/t) rho(t) dt
    mpmath = pytest.importorskip("mpmath")
    seg, density, points = IMPROPER[kind]
    z = np.array([0.3 + 1j, -2.0 + 0.5j, 4.0 + 3.0j, 1e-3j])
    res = apply_with_error(HausdorffOperator(Measure(segments=(seg,)), 2.0), F, z,
                           QuadratureConfig(rel_tol=rel_tol, abs_tol=1e-15))
    with mpmath.workdps(30):
        exact = np.array([complex(mpmath.quad(
            lambda t, zm=mpmath.mpc(zz.real, zz.imag): density(mpmath, t) / t * (zm / t + 1j) ** -2,
            [mpmath.mpf(x) for x in points])) for zz in z])
    assert res.converged
    assert np.all(np.abs(res.value - exact) <= res.error_estimate)


def test_operator_integral_failures_raise():
    # a budget failure of the inner quadrature raises QuadratureFailure; a
    # tail failure (const density on [1, inf), whose boundedness is
    # inconclusive without exponents, so the operator evaluates) raises
    # DivergentIntegral
    wide = Measure(segments=(DensitySegment.from_spec(1e-3, 1e3, ("const", (1.0,))),))
    with pytest.raises(QuadratureFailure, match="reason: budget"):
        apply_with_error(HausdorffOperator(wide), F, 1j, QuadratureConfig(max_subdivisions=1))
    flat = Measure(segments=(DensitySegment.from_spec(1.0, math.inf, ("const", (1.0,))),))
    with pytest.raises(DivergentIntegral, match="tail"):
        apply_with_error(HausdorffOperator(flat), F, 1j)


# ---------------------------------------------------------------------------
# quasi (adjoint) operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("route", ["direct", "pushforward"])
@pytest.mark.parametrize("family", ["ratpow", "gmod"])
def test_quasi_where_tz_overflows(family, route):
    # at z = 3e307 + 1e307i under uniform[1, 100], tz leaves the float
    # range for t > 5.7 on the direct route, and z/s for s < 0.18 under the
    # push-forward; the nodes reach the kernel as (z, +-log t), so both
    # routes land on the integral (they read 1.3e-153 and 1.4e-153 for
    # 1.2e-151 when those terms took their limit 0).  The value is some
    # 1e-151, so abs_tol goes below it
    mpmath = pytest.importorskip("mpmath")
    z = 3e307 + 1e307j
    f = HalfPlaneFunction((Term(1.0, UNIT, family, 1.0, 0.5),))
    mu = Measure(segments=(DensitySegment.from_spec(1.0, 100.0, ("const", (1.0,))),))
    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = apply_quasi(mu, f, z, cfg, route=route)
    with mpmath.workdps(30):
        zm = mpmath.mpc(z.real, z.imag)

        def integrand(t):
            w = zm * t + 1j
            return (w ** -0.5 if family == "ratpow" else abs(w) ** -0.5) * t

        exact = complex(mpmath.quad(integrand, [1.0, 10.0, 100.0]))
    assert abs(value - exact) <= 1e-9 * abs(exact)


def test_quasi_identity_atom():
    mu = Measure.from_atoms((1.0, 1.0))
    z = 0.3 + 1.2j
    np.testing.assert_allclose(apply_quasi(mu, F, z, CFG), F(z), rtol=1e-15)


def test_quasi_atom_value():
    mu = Measure.from_atoms((2.0, 1.0))
    val = apply_quasi(mu, F, 1j, CFG)
    np.testing.assert_allclose(val, -2.0 / 9.0, atol=1e-15)  # 2 f(2i) = 2(3i)^-2


def test_quasi_routes_agree():
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-13)
    seg = DensitySegment.from_spec(0.5, 3.0, ("power", (0.7, 1.3)))
    mu = Measure(atoms=(Atom(1.7, 0.4),), segments=(seg,))
    rng = np.random.default_rng(77)
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), float(np.exp(rng.uniform(-1, 1))))
        f = rational_power(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.5, 3.0)))
        a = apply_quasi(mu, f, z, cfg, route="pushforward")
        b = apply_quasi(mu, f, z, cfg, route="direct")
        assert abs(a - b) <= 1e-10


def test_quasi_unknown_route():
    with pytest.raises(ValueError):
        apply_quasi(Measure.from_atoms((1.0, 1.0)), F, 1j, CFG, route="bogus")


@pytest.mark.parametrize("route", ["pushforward", "direct"])
@pytest.mark.parametrize("z", [1 - 0.5j, -1j, 2.0, complex(math.nan, 1.0),
                               [1j, 1 + 1j, 1 - 1j]])
def test_points_outside_the_half_plane_are_refused(route, z):
    mu = uniform_12()
    with pytest.raises(ValueError, match="Im z > 0"):
        apply_quasi(mu, F, z, CFG, route=route)
    with pytest.raises(ValueError, match="Im z > 0"):
        apply_with_error(HausdorffOperator(mu), F, z, CFG)


def test_quasi_norm_formula_on_atom():
    mu = Measure.from_atoms((2.0, 1.0))
    p = 4.0
    hf = quasi_as_function(mu, F, p=p, cfg=CFG)
    ratio = bergman_norm_p(hf, p, CFG).value / bergman_norm_p(F, p, CFG).value
    np.testing.assert_allclose(ratio, 2.0 ** (1.0 - 2.0 / p), rtol=1e-6)


# ---------------------------------------------------------------------------
# adjoint pairing
# ---------------------------------------------------------------------------


def test_adjoint_pairing_atom():
    mu = Measure.from_atoms((2.0, 1.0))
    lhs, rhs = adjoint_pairing_check(mu, F, F, CFG)
    assert abs(lhs - rhs) <= 1e-5 * abs(lhs)


def test_adjoint_pairing_empty_measure():
    lhs, rhs = adjoint_pairing_check(Measure(), F, F, CFG)
    assert lhs == 0.0 and rhs == 0.0


def test_adjoint_pairing_segment():
    mu = uniform_12()
    g = rational_power(2.0, 2.0)
    cfg = QuadratureConfig(rel_tol=1e-7, abs_tol=1e-11)
    lhs, rhs = adjoint_pairing_check(mu, F, g, cfg)
    assert abs(lhs - rhs) <= 1e-4 * abs(lhs)


def test_adjoint_pairing_refuses_unconverged_pairings(monkeypatch):
    # with one bisection and 10,000 family evaluations both pairings stop
    # "budget"; their values (0.3774923092 and 0.3774923150) were returned
    # as if converged
    starved = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=1)
    g = rational_power(0.5, 2.0)
    with pytest.raises(QuadratureFailure, match=r"^pairing of \(Hf, g\) did not converge"):
        adjoint_pairing_check(uniform_12(), F, g, starved)
    # the second pairing is required as well: let the first run at CFG
    pairings = iter([lambda f, h, cfg: pairing(f, h, CFG), pairing])
    monkeypatch.setattr(hausdorff, "pairing", lambda *args: next(pairings)(*args))
    with pytest.raises(QuadratureFailure, match=r"^pairing of \(f, H\*g\) did not converge"):
        adjoint_pairing_check(uniform_12(), F, g, starved)


def test_pairing_against_operator_norm():
    # <Hf, f> is bounded by ||Hf||_2 ||f||_2
    mu = uniform_12()
    hf = as_function(HausdorffOperator(mu, p=2.0), F, CFG)
    val = pairing(hf, F, CFG).value
    bound = bergman_norm_p(hf, 2.0, CFG).value * bergman_norm_p(F, 2.0, CFG).value
    assert abs(val) <= bound * (1.0 + 1e-8)
