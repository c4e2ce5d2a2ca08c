import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from hausdorff_bergman import (
    DensitySegment,
    HausdorffOperator,
    Measure,
    ParameterOutOfRange,
    QuadratureConfig,
    Sector,
    apply_with_error,
    as_function,
    check_sector_inequality,
    dilate,
    parse_function_spec,
    rational_power,
    sample_sector,
)
from hausdorff_bergman.halfplane import (
    UNIT,
    HalfPlaneFunction,
    ModulusFunction,
    Term,
    TestFunction,
    case_constant,
)


def random_upper_halfplane(rng, n, r_lo=1e-2, r_hi=1e3):
    r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n))
    th = rng.uniform(1e-9, math.pi - 1e-9, n)
    return r * np.exp(1j * th)


# ---------------------------------------------------------------------------
# points and sectors
# ---------------------------------------------------------------------------


def test_truncated_sector_membership():
    s = Sector(0.0, math.pi / 2.0, lo_open=True, truncated=True)
    assert s.contains(1j)          # arg pi/2, |z| = 1
    assert not s.contains(0.5j)    #

    a = Sector(math.pi / 4.0, math.pi / 2.0)
    assert a.contains(1.0 + 1.0j)  # arg = pi/4 included
    assert not a.contains(2.0 + 0.1j)


def test_sector_open_flags():
    s = Sector(math.pi / 4.0, math.pi / 2.0, lo_open=True, hi_open=True)
    assert not s.contains(1.0 + 1.0j)
    assert not s.contains(1j)
    assert s.contains(0.5 + 1.0j)


def test_sector_validation():
    with pytest.raises(ValueError):
        Sector(1.0, 0.5)


# ---------------------------------------------------------------------------
# test-function family
# ---------------------------------------------------------------------------


def test_small_eps_limit_at_i():
    tf = TestFunction(2.0, 1e-9)
    assert abs(tf(1j) - (-1j)) < 1e-7


def test_direct_value_at_i():
    tf = TestFunction(2.0, 1.0)
    np.testing.assert_allclose(tf(1j), -0.25, atol=1e-15)


def test_phase_at_i():
    tf = TestFunction(2.0, 1.0)
    ph = tf.phase(1j)
    np.testing.assert_allclose(ph, -1j, atol=1e-15)
    assert np.angle(ph) == pytest.approx(-math.pi / 2.0)


def test_modulus_matches_g_family():
    rng = np.random.default_rng(101)
    z = random_upper_halfplane(rng, 10_000)
    for p, eps in ((1.0, 0.3), (2.0, 0.7), (4.0, 0.1)):
        tf = TestFunction(p, eps)
        g = ModulusFunction(p * eps, eps, p)
        np.testing.assert_allclose(np.abs(tf(z)), g(z), atol=1e-12, rtol=1e-12)


def test_phase_identity():
    rng = np.random.default_rng(17)
    z = random_upper_halfplane(rng, 10_000)
    tf = TestFunction(2.0, 0.4)
    ph = tf.phase(z)
    lhs = tf(z)
    rhs = np.exp(tf.exponent * np.log(ph)) * np.abs(tf(z))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    np.testing.assert_allclose(np.abs(ph), 1.0, atol=1e-14)


def test_phase_argument_range():
    rng = np.random.default_rng(23)
    z = random_upper_halfplane(rng, 10_000)
    ang = np.angle(TestFunction(1.0, 0.2).phase(z))
    assert np.all(ang > -math.pi)
    assert np.all(ang < 0.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        TestFunction(0.5, 0.1)
    with pytest.raises(ValueError):
        TestFunction(2.0, 0.0)
    with pytest.raises(ValueError):
        ModulusFunction(0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# modulus family and its norm bounds
# ---------------------------------------------------------------------------


def test_modulus_values():
    g = ModulusFunction(1.0, 1.0, 1.0)
    np.testing.assert_allclose(g(1j), 0.125, atol=1e-15)  # |2i|^-3
    g = ModulusFunction(2.0, 1.0, 2.0)
    np.testing.assert_allclose(g(1.0 + 1.0j), 0.2, atol=1e-15)  # |1+2i|^-2


def test_modulus_decreases_along_rays():
    g = ModulusFunction(1.5, 0.7, 2.0)
    for theta in (0.3, 1.2, 2.8):
        r = np.linspace(0.1, 50.0, 200)
        vals = g(r * np.exp(1j * theta))
        assert np.all(np.diff(vals) < 0.0)


def test_norm_bounds_values():
    np.testing.assert_allclose(
        ModulusFunction(1.0, 1.0, 2.0).norm_bounds(), (0.125, 2.0**1.5)
    )
    np.testing.assert_allclose(
        ModulusFunction(2.0, 0.5, 1.0).norm_bounds(), (0.125, 8.0)
    )


def test_norm_bounds_delta_scaling():
    for lam in (0.5, 1.0, 2.0, 3.7):
        for delta in (0.25, 1.0, 3.0):
            lo1, up1 = ModulusFunction(lam, delta, 2.0).norm_bounds()
            lo2, up2 = ModulusFunction(lam, 2.0 * delta, 2.0).norm_bounds()
            assert lo1 < up1
            np.testing.assert_allclose(lo2, lo1 * 2.0**-lam, rtol=1e-14)
            np.testing.assert_allclose(up2, up1 * 2.0**-lam, rtol=1e-14)


# ---------------------------------------------------------------------------
# sector inequalities
# ---------------------------------------------------------------------------


def test_case_I_example():
    tf = TestFunction(4.0, 0.1)
    assert check_sector_inequality("I", tf, 1.0 + 1.0j)


def test_case_II_example():
    tf = TestFunction(2.0, 0.3)
    assert check_sector_inequality("II", tf, 1j)


def test_case_III_example():
    tf = TestFunction(1.0, 0.05)
    z = 2.0 * np.exp(1j * (math.pi / 2.0 + math.pi / 64.0))
    assert check_sector_inequality("III", tf, z, theta0=math.pi / 32.0)


@pytest.mark.parametrize(
    "case,p,eps,theta0",
    [
        ("I", 6.0, 0.05, None),
        ("I", 4.0, 0.3, None),
        ("II", 2.0, 0.4, None),
        ("II", 1.5, 0.1, None),
        ("III", 1.0, 0.05, math.pi / 32.0),
        ("III", 1.0, 0.2, math.pi / 20.0),
    ],
)
def test_sector_inequality_holds_on_samples(case, p, eps, theta0):
    tf = TestFunction(p, eps)
    if case == "I":
        sector = Sector(0.0, math.pi / 2.0, lo_open=True)
    elif case == "II":
        sector = Sector(math.pi / 4.0, math.pi / 2.0)
    else:
        sector = Sector(math.pi / 2.0, math.pi / 2.0 + theta0)
    rng = np.random.default_rng(5)
    z = sample_sector(sector, 10_000, rng)
    ok = check_sector_inequality(case, tf, z, theta0=theta0)
    assert int(np.sum(~ok)) == 0


def test_case_constant_range():
    c = case_constant(2.0, 0.4)
    assert 0.0 < c <= math.sqrt(2.0) / 2.0


def test_hypothesis_enforcement():
    with pytest.raises(ParameterOutOfRange):
        check_sector_inequality("I", TestFunction(2.0, 0.1), 1.0 + 1.0j)
    with pytest.raises(ParameterOutOfRange):
        check_sector_inequality("II", TestFunction(4.0, 0.1), 1.0 + 1.0j)
    with pytest.raises(ParameterOutOfRange):
        check_sector_inequality("III", TestFunction(1.0, 0.05), 1j,
                                theta0=math.pi / 4.0)
    with pytest.raises(ParameterOutOfRange):
        check_sector_inequality("IV", TestFunction(2.0, 0.1), 1j)


def test_sample_sector_respects_bounds():
    sector = Sector(math.pi / 4.0, math.pi / 2.0, truncated=True)
    rng = np.random.default_rng(9)
    n = 2000
    z = sample_sector(sector, n, rng)
    # random bulk lies strictly inside; boundary rays may land one ulp off
    # the closed angular endpoints, so check those by angle distance
    assert np.all(sector.contains(z[:n]))
    ang = np.angle(z[n:])
    dist = np.minimum(np.abs(ang - sector.arg_lo), np.abs(ang - sector.arg_hi))
    assert np.all(dist < 1e-12)
    assert np.all(np.abs(z) >= 1.0)


# ---------------------------------------------------------------------------
# function specs and helpers
# ---------------------------------------------------------------------------


def test_parse_function_specs():
    f = parse_function_spec("test:p=2,eps=0.1")
    tf = TestFunction(2.0, 0.1)
    z = 0.7 + 1.3j
    np.testing.assert_allclose(f(z), tf(z), rtol=1e-15)

    g = parse_function_spec("gmod:lambda=1,delta=1,p=2")
    np.testing.assert_allclose(g(1j), ModulusFunction(1.0, 1.0, 2.0)(1j))

    r = parse_function_spec("ratpow:shift=1,exp=2")
    np.testing.assert_allclose(r(1j), -0.25, atol=1e-15)
    assert r.decay_hint == (2.0, 1.0)


def test_parse_function_spec_errors():
    for bad in ("nope:p=2", "test:p=2", "test:p=2,eps=0.1,extra=1", "test:p=x,eps=0.1",
                "ratpow:shift=1,exp=2,exp=3"):
        with pytest.raises(ValueError):
            parse_function_spec(bad)


def test_replaced_terms_get_their_own_evaluator():
    f = rational_power(1.0, 2.0)
    g = rational_power(2.0, 2.0)
    np.testing.assert_allclose(dataclasses.replace(f, terms=g.terms)(1j), g(1j), rtol=1e-15)


def test_evaluator_passed_in_is_kept():
    # a wrapper put in by dataclasses.replace (a tracer's, say) is what the
    # record and apply call
    f = rational_power(1.0, 2.0)
    calls = []

    def spy(zeta, lam):
        calls.append(np.size(zeta))
        return f.evaluator(zeta, lam)

    np.testing.assert_allclose(dataclasses.replace(f, evaluator=spy)(1j), f(1j), rtol=0)
    assert calls == [1]
    op = HausdorffOperator(Measure(segments=(DensitySegment(1.0, 2.0, np.ones_like),)), 2.0)
    res = apply_with_error(op, dataclasses.replace(f, evaluator=spy), np.array([1j, 2j]))
    assert len(calls) > 1
    np.testing.assert_allclose(res.value, apply_with_error(op, f, np.array([1j, 2j])).value,
                               rtol=0)


def test_dilate_out_of_float_range_is_refused():
    # coef s^exponent would overflow (10^400) or underflow to 0 (1e-400);
    # neither may become a silent infinity or the zero function
    for f, s in ((rational_power(1.0, 400.0), 10.0), (rational_power(1.0, 2.0), 1e-200)):
        with pytest.raises(ValueError, match="float range"):
            dilate(f, s)
    assert dilate(0.0 * rational_power(1.0, 400.0), 10.0).terms[0].coef == 0.0


def test_images_with_different_inner_configs_do_not_add():
    op = HausdorffOperator(Measure(segments=(DensitySegment(1.0, 2.0, np.ones_like),)), 2.0)
    f = rational_power(1.0, 2.0)
    loose, tight = QuadratureConfig(), QuadratureConfig().tighter()
    with pytest.raises(ValueError, match="inner_cfg"):
        as_function(op, f, loose) + as_function(op, f, tight)
    both = as_function(op, f, tight) + as_function(op, f, tight) + f
    assert both.inner_cfg == tight


def test_dilate_decay_hint():
    f = rational_power(0.5, 2.0)
    g = dilate(f, 4.0)
    assert g.decay_hint == (2.0, 2.0)
    np.testing.assert_allclose(g(4.0j), f(1.0j), rtol=1e-15)


def test_point_values_of_cancelling_groups_against_mpmath():
    # far out, the rsqrt second difference cancels to two orders below each
    # of its terms, and a gmod pair to one: summed term by term, the
    # rounding was 1.3e-3 of the first at 1e6 (0.3 + i) and all of it at
    # 1e8 (0.3 + i), where it read 0 for a true 6.7e-21
    mpmath = pytest.importorskip("mpmath")
    rsqrt = rational_power(1.0, 0.5) - 2.0 * rational_power(2.0, 0.5) + rational_power(3.0, 0.5)
    gmod = HalfPlaneFunction((Term(1.0, UNIT, "gmod", 1.0, 1.0),
                              Term(-1.0, UNIT, "gmod", 2.0, 1.0)))
    for r in (1e6, 1e8):
        z = r * (0.3 + 1j)
        with mpmath.workdps(60):
            zm = mpmath.mpc(z.real, z.imag)
            exact = [complex(sum(c * mpmath.exp(-0.5 * mpmath.log(zm + 1j * s))
                                 for c, s in ((1, 1), (-2, 2), (1, 3)))),
                     complex(1 / abs(zm + 1j) - 1 / abs(zm + 2j))]
        for f, ref in zip((rsqrt, gmod), exact):
            assert abs(f(z) - ref) <= 1e-12 * abs(ref), (f, z)
            np.testing.assert_allclose(f(np.full((2, 3), z)), ref, rtol=1e-12)


@pytest.mark.parametrize("family", ["ratpow", "gmod"])
@pytest.mark.parametrize("a", [-0.5, 0.0, 0.45, 2.0, 2.1, 4.05])
def test_single_term_against_mpmath(family, a):
    # a term is e^(pre - a lam) w^-a from log|w| and arctan2 of
    # w = zeta + i shift e^-lam, at z = e^lam zeta: within
    # 64 eps (1 + |a log|z + i shift||) relative, at points (scalar and
    # array) and on the lattice, for |z + i shift| from the shift up to
    # 1e300 and arg z next to 0 and pi, and on lattice rows whose e^w
    # leaves the float range (w = +-720, +-800); an exact value below the
    # float range reads 0, within a few subnormal ulps
    mpmath = pytest.importorskip("mpmath")
    shift = 0.75
    f = HalfPlaneFunction((Term(1.0, UNIT, family, shift, a),))
    eith = np.exp(1j * np.array([1e-12, 1e-6, 1.0, math.pi / 2.0,
                                 math.pi - 1e-6, math.pi - 1e-12]))
    radii = np.array([0.0, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e30, 1e150, 1e300])
    w = np.concatenate([np.log(radii[1:]), [720.0, 800.0]])
    q = a  # keeps e^(q w) |z|^-a near 1 on the lattice out to e^800
    # where e^w underflows, z + i shift is i shift to the last bit; there
    # q = 0 keeps the value's exponent small, as the bound counts the
    # rounding of a log|z + i shift|, not that of the prefactor q w
    w_below = np.array([-800.0, -720.0])
    z = radii[:, None] * eith
    no_pre = np.zeros((len(radii), 1))
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        at_z = [[mpmath.mpc(x.real, x.imag) for x in row] for row in z]

        def lattice(rows, q):
            """the points e^w e^(i theta) and prefactors lattice_values evaluates"""
            points = [[mpmath.exp(x) * mpmath.mpc(e.real, e.imag) for e in eith] for x in rows]
            return points, f.lattice_values(rows, eith, q), (q * rows)[:, None]

        cases = [(at_z, f(z), no_pre),
                 (at_z, np.array([[f(complex(x)) for x in row] for row in z]), no_pre),
                 lattice(w, q), lattice(w_below, 0.0)]
        for points, got, pre in cases:
            for i, row in enumerate(points):
                for j, x in enumerate(row):
                    wm = x + mpmath.mpc(0, shift)
                    base = wm if family == "ratpow" else abs(wm)
                    exact = mpmath.exp(mpmath.mpf(pre[i, 0]) - a * mpmath.log(base))
                    tol = 64 * eps * (1 + abs(a * mpmath.log(abs(wm))))
                    err = abs(mpmath.mpc(complex(got[i, j])) - exact)
                    assert err <= tol * abs(exact) + 4 * math.ulp(0.0), (x, got[i, j], exact)


HUGE_Z = 1.5e308 + 1.5e308j  # finite parts, |z| beyond the largest double


@pytest.mark.parametrize("build,exact", [
    (lambda: rational_power(1.0, 0.5), 6.343255686650054e-155 - 2.627462535010712e-155j),
    (lambda: ModulusFunction(1.0, 1.0, 6.0), 6.865890479690392e-155),  # exponent 0.5
])
def test_point_whose_modulus_overflows(build, exact):
    # |z| overflows to inf (it read 0); the point enters as (z/2, log 2),
    # at a scalar and inside an array, and the mpmath values of
    # (z + i)^-0.5 and |z + i|^-0.5 are met within 1e-12 relative
    f = build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar, batch = f(HUGE_Z), f(np.array([HUGE_Z, 1j]))
    assert abs(scalar - exact) <= 1e-12 * abs(exact)
    assert batch[0] == scalar and batch[1] == f(1j)


def test_kernel_rescales_a_point_whose_shift_term_overflows():
    # lam = -720: shift e^-lam overflows, so _power takes lam = 0 with zeta
    # scaled by e^-720, and z + i is i to the last bit
    got = rational_power(1.0, 0.5)._log_sum(np.array([1.0 + 1.0j]), -720.0)
    assert got[0] == 1j ** -0.5


def test_function_arithmetic():
    f = rational_power(1.0, 2.0)
    g = rational_power(2.0, 3.0)
    h = f + 2.0 * g
    z = 0.4 + 0.9j
    np.testing.assert_allclose(h(z), f(z) + 2.0 * g(z), rtol=1e-15)
    assert h.decay_hint == (2.0, 1.0)
    np.testing.assert_allclose((f - f)(z), 0.0, atol=1e-18)


def test_family_parameters_must_be_finite():
    for build in (lambda: rational_power(math.nan, 2.0), lambda: rational_power(1.0, math.inf),
                  lambda: TestFunction(2.0, math.nan), lambda: ModulusFunction(math.inf, 1.0, 2.0),
                  lambda: dilate(rational_power(1.0, 2.0), math.inf),
                  lambda: math.nan * rational_power(1.0, 2.0)):
        with pytest.raises(ValueError, match="finite|positive"):
            build()


# ---------------------------------------------------------------------------
# the mirror z -> -conj z
# ---------------------------------------------------------------------------


def test_mirror_factors():
    f = rational_power(1.0, 2.5)
    g = ModulusFunction(0.5, 2.0, 2.0).as_function()
    op = HausdorffOperator(Measure(segments=(DensitySegment.from_spec(1.0, 2.0, ("const", (1.0,))),)), 2.0)
    cases = [
        (f, -1j),                                  # e^(-5 i pi / 2)
        (g, 1.0),
        (-2.5 * f, -1j),
        (1j * f, 1j),                              # (i / -i) (-i)
        (dilate(f, 3.0), -1j),
        (as_function(op, f), -1j),                 # the measure is real
        (rational_power(1.0, 1.0) - rational_power(2.0, 1.0), -1.0),
        (rational_power(1.0, 1.0) + rational_power(2.0, 3.0), -1.0),  # a mod 2 agrees
        (rational_power(1.0, 2.0) + g, 1.0),
    ]
    for h, lam in cases:
        assert abs(h.mirror - lam) <= 1e-15, (h, h.mirror, lam)
    for h in (rational_power(1.0, 2.5) + rational_power(2.0, 3.0), f + 1j * f, f + g):
        assert h.mirror is None, h


def test_lattice_values_obey_the_mirror():
    # for random term sums with a mirror factor lam, G(w, pi - theta)
    # = lam conj G(w, theta), up to the rounding of the terms: a few ulps of
    # their size, more for larger exponents, whose phases a theta round more
    rng = np.random.default_rng(7)
    w = np.linspace(-6.0, 30.0, 37)
    eith = np.exp(1j * rng.uniform(1e-3, math.pi - 1e-3, 16))
    second_difference = (rational_power(1.0, 0.5) - 2.0 * rational_power(2.0, 0.5)
                         + rational_power(3.0, 0.5))
    functions = [second_difference]
    for _ in range(20):
        family = rng.choice(["ratpow", "gmod"])
        a = rng.integers(4, 32) / 8.0  # so that a + 2 is exact
        phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        exponents = [a + 2.0 * rng.integers(0, 2) if family == "ratpow" else a
                     for _ in range(rng.integers(1, 5))]
        functions.append(HalfPlaneFunction(tuple(
            Term(rng.uniform(-2.0, 2.0) * phase, UNIT, family, rng.uniform(0.05, 5.0), e)
            for e in exponents)))
    for f in functions:
        lam = f.mirror
        assert lam is not None
        for q in (0.5, 2.0):
            here = f.lattice_values(w, eith, q)
            there = f.lattice_values(w, -np.conj(eith), q)
            size = sum(np.abs(HalfPlaneFunction((t,)).lattice_values(w, eith, q)) for t in f.terms)
            assert np.all(np.abs(there - lam * np.conj(here)) <= 4e-15 * size), f
