import math

import numpy as np
import pytest

from hausdorff_bergman import (
    NonIntegrableAtInfinity,
    QuadratureConfig,
    QuadratureFailure,
    bergman_norm_p,
    bergman_norm_p_power,
    dilate,
    integrate_segment,
    pairing,
    rational_power,
)
from hausdorff_bergman.halfplane import ModulusFunction, TestFunction

CFG = QuadratureConfig()

# closed-form oracle: antiderivative of t/(1+t)^2 is ln(1+t) + 1/(1+t)
LOG_ORACLE = math.log(1.5) - 1.0 / 6.0  # 0.2387984414414977


def test_constant_segment():
    res = integrate_segment(lambda t: np.ones_like(t), 1.0, 2.0, CFG)
    assert res.converged
    np.testing.assert_allclose(res.value, 1.0, rtol=0, atol=1e-14)


def test_polynomial_is_near_exact():
    res = integrate_segment(lambda t: t**7 - 3 * t**2, 0.5, 3.0, CFG)
    exact = (3.0**8 - 0.5**8) / 8.0 - (3.0**3 - 0.5**3)
    np.testing.assert_allclose(res.value, exact, rtol=1e-13)


def test_gamma_two_over_halfline():
    # oracle: Gamma(2) = 1
    res = integrate_segment(lambda t: t * np.exp(-t), 0.0, math.inf, CFG)
    assert res.converged
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-8)


def test_rational_segment_against_antiderivative():
    res = integrate_segment(lambda t: t / (1.0 + t) ** 2, 1.0, 2.0, CFG)
    np.testing.assert_allclose(res.value, LOG_ORACLE, rtol=1e-12)


def test_integrable_singularity_at_zero():
    res = integrate_segment(lambda t: t**-0.5, 0.0, 1.0, CFG)
    assert res.converged
    np.testing.assert_allclose(res.value, 2.0, rtol=1e-9)


def test_full_halfline_split():
    res = integrate_segment(lambda t: np.exp(-t) / np.sqrt(t), 0.0, math.inf, CFG)
    np.testing.assert_allclose(res.value, math.sqrt(math.pi), rtol=1e-8)


def test_complex_integrand():
    res = integrate_segment(lambda t: np.exp(1j * t), 0.0, math.pi, CFG)
    np.testing.assert_allclose(res.value, 2j, atol=1e-12)


def test_vector_payload():
    res = integrate_segment(lambda t: np.stack([t, t**2], axis=-1), 0.0, 1.0, CFG)
    np.testing.assert_allclose(res.value, [0.5, 1.0 / 3.0], rtol=1e-12)


def test_budget_exhaustion_reported_not_raised():
    tiny = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
    res = integrate_segment(lambda t: np.sin(50.0 * t) ** 2 / (1e-3 + t), 1e-4, 1.0, tiny)
    assert not res.converged
    assert res.failure_reason == "budget"
    with pytest.raises(QuadratureFailure):
        res.require_converged()


def test_domain_validation():
    with pytest.raises(ValueError):
        integrate_segment(lambda t: t, -1.0, 1.0, CFG)
    with pytest.raises(ValueError):
        integrate_segment(lambda t: t, 2.0, 1.0, CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


# ---------------------------------------------------------------------------
# half-plane norms
# ---------------------------------------------------------------------------


def test_norm_of_inverse_square():
    # oracle: int_R dx/(x^2+a^2)^2 = pi/(2a^3), then (1/pi) int_0^inf
    # pi/(2(y+1)^3) dy = 1/4, so the 2-norm is 0.5
    f = rational_power(1.0, 2.0)
    res = bergman_norm_p(f, 2.0, CFG)
    assert res.converged
    np.testing.assert_allclose(res.value, 0.5, rtol=1e-6)


def test_modulus_family_inside_closed_form_bounds():
    g = ModulusFunction(1.0, 1.0, 2.0)
    lower, upper = g.norm_bounds()
    res = bergman_norm_p_power(g.as_function(), 2.0, CFG)
    assert lower < res.value < upper


def test_test_function_power_inside_bounds():
    # |f_eps| matches the modulus family at (p*eps, eps)
    tf = TestFunction(2.0, 0.5)
    lower, upper = tf.modulus().norm_bounds()
    res = bergman_norm_p_power(tf.as_function(), 2.0, CFG)
    assert lower < res.value < upper
    assert (lower, upper) == (0.5**3 / 0.5, 2.0**1.5 / 0.5)  # (0.25, 5.6568...)


def test_non_integrable_raises():
    f = rational_power(1.0, 2.0)
    with pytest.raises(NonIntegrableAtInfinity) as exc:
        bergman_norm_p(f, 1.0, CFG)
    assert "radius" not in str(exc.value)


def test_scaling_law():
    for p in (1.0, 2.0):
        f = TestFunction(p, 0.4).as_function()
        base = bergman_norm_p(f, p, CFG).value
        for s in (0.5, 2.0, 4.0):
            scaled = bergman_norm_p(dilate(f, s), p, CFG).value
            np.testing.assert_allclose(scaled, s ** (2.0 / p) * base,
                                       rtol=3.0 * CFG.rel_tol)


def test_homogeneity():
    f = rational_power(1.0, 2.0)
    base = bergman_norm_p(f, 2.0, CFG).value
    scaled = bergman_norm_p(-2.5 * f, 2.0, CFG).value
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


def test_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rational_power(rng.uniform(0.5, 2.0), rng.uniform(1.5, 3.0))
        g = rational_power(rng.uniform(0.5, 2.0), rng.uniform(1.5, 3.0))
        nf = bergman_norm_p(f, 2.0, CFG).value
        ng = bergman_norm_p(g, 2.0, CFG).value
        nfg = bergman_norm_p(f + g, 2.0, CFG).value
        assert nfg <= nf + ng + 1e-8 * (nf + ng)


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_norm_root_of_a_huge_norm_has_a_finite_error(p):
    # ||f(./s)||_p = s^(2/p) ||f||_p is 1e200 at p = 1.5 for s = 1e150: the
    # root's error, error * norm / (p * norm^p), overflowed in the product,
    # read inf and left a converged p-th power unconverged with no reason
    a, s = 2.0 / p + 0.5, 1e150
    res = bergman_norm_p(dilate(rational_power(1.0, a), s), p, CFG)
    pa = p * a
    power = math.gamma((pa - 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(pa / 2.0)) / (pa - 2.0)
    exact = s ** (2.0 / p) * power ** (1.0 / p)
    assert res.converged and res.failure_reason is None
    assert abs(res.value - exact) <= res.error_estimate <= CFG.rel_tol * exact


@pytest.mark.parametrize("f", [1e-4 * rational_power(1.0, 2.0), rational_power(1000.0, 2.0)],
                         ids=["scaled", "wide-shift"])
def test_norm_root_meets_its_own_tolerance(f):
    # ||c (z + i delta)^-2||_2 = c / (2 delta) is 5e-5 and 5e-4 here: the
    # p-th power converged on abs_tol, which left the root's error (5.3e-9
    # and 3.4e-9) above the root's tolerance, converged=False with no reason
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
    c = f.terms[0].coef
    exact = abs(c) / (2.0 * f.terms[0].shift)
    res = bergman_norm_p(f, 2.0, cfg)
    assert res.converged and res.failure_reason is None
    assert abs(res.value - exact) <= res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * exact)


def test_one_dimensional_tail_reports_error_inf():
    # 1/(1 + t) is not integrable at infinity: the sweep reaches its cap
    # with mass in its last block, and no finite error can be vouched for
    res = integrate_segment(lambda t: 1.0 / (1.0 + t), 0.0, math.inf, CFG)
    assert not res.converged and res.failure_reason == "tail"
    assert res.error_estimate == math.inf


def test_one_dimensional_budget_reports_its_error():
    # one bisection cannot resolve cos t e^(-t/50) on the sweep's blocks:
    # the sweep stops on the budget with the panels' finite error
    res = integrate_segment(lambda t: np.cos(t) * np.exp(-t / 50.0), 0.0, math.inf,
                            QuadratureConfig(max_subdivisions=1))
    assert not res.converged and res.failure_reason == "budget"
    assert 0.0 < res.error_estimate < math.inf and res.subdivisions_used == 1


def test_pairing_self_is_norm_squared():
    f = rational_power(1.0, 2.0)
    res = pairing(f, f, CFG)
    np.testing.assert_allclose(res.value, 0.25, rtol=1e-6)
    assert abs(res.value.imag) < 1e-10


def test_pairing_zero_function():
    f = rational_power(1.0, 2.0)
    res = pairing(f, 0.0 * f, CFG)
    assert abs(res.value) < 1e-14


def test_pairing_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(3):
        f = rational_power(rng.uniform(0.5, 2.0), rng.uniform(1.2, 2.5))
        g = rational_power(rng.uniform(0.5, 2.0), rng.uniform(1.2, 2.5))
        ab = pairing(f, g, CFG).value
        ba = pairing(g, f, CFG).value
        assert abs(ab - np.conj(ba)) < 1e-10


def ratpow_pairing(a: float, alpha: float, beta: float) -> float:
    """<(z + i alpha)^-a, (z + i beta)^-a> in closed form."""
    return (math.gamma(2.0 * a - 1.0) / (2.0 * (a - 1.0) * math.gamma(a) ** 2)
            * (alpha + beta) ** (2.0 - 2.0 * a))


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.5, 2.0), (0.05, 0.2)])
# "-None" keeps the test ids stable: the pairing has no truncation radius
@pytest.mark.parametrize("a", [1.5, 2.0, 3.0], ids=lambda a: f"{a}-None")
def test_pairing_against_closed_form(a, alpha, beta):
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
    res = pairing(rational_power(alpha, a), rational_power(beta, a), cfg)
    assert isinstance(res.value, complex)
    assert res.converged
    assert abs(res.value - ratpow_pairing(a, alpha, beta)) <= res.error_estimate


def test_pairing_non_integrable():
    f = rational_power(1.0, 1.0)
    with pytest.raises(NonIntegrableAtInfinity):
        pairing(f, f, QuadratureConfig())


def test_converged_certifies_error_estimate():
    cases = [
        integrate_segment(lambda t: t * np.exp(-t), 0.0, math.inf, CFG),
        integrate_segment(lambda t: t**-0.5, 0.0, 1.0, CFG),
        bergman_norm_p(rational_power(1.0, 2.0), 2.0, CFG),
        bergman_norm_p_power(TestFunction(2.0, 0.05).as_function(), 2.0,
                             QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)),
    ]
    tols = [CFG, CFG, CFG, QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)]
    for res, cfg in zip(cases, tols):
        assert res.converged
        assert res.error_estimate <= max(cfg.abs_tol,
                                         cfg.rel_tol * abs(res.value))


def test_deterministic_results():
    f = TestFunction(2.0, 0.3).as_function()
    a = bergman_norm_p(f, 2.0, CFG)
    b = bergman_norm_p(f, 2.0, CFG)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    r1 = integrate_segment(lambda t: np.exp(-t) * np.sin(t), 0.0, math.inf, CFG)
    r2 = integrate_segment(lambda t: np.exp(-t) * np.sin(t), 0.0, math.inf, CFG)
    assert r1.value == r2.value
