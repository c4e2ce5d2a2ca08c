"""The benchmark's oracles against independent numerical integration.

    python3 -m pytest bench/test_oracles.py -q

scipy integrates the defining integrals directly (polar coordinates over the
half-plane, or the measure's own variables); none of this uses the library.
"""

import math

import numpy as np
import pytest

import oracles

integrate = pytest.importorskip("scipy.integrate")


def halfplane_integral(g, r_break=1.0):
    """(1/pi) * integral over Im z > 0 of g(z) dA, in polar coordinates."""
    def inner(th):
        def f(r):
            return g(r * complex(math.cos(th), math.sin(th))) * r

        lo = integrate.quad(f, 0.0, r_break, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        hi = integrate.quad(f, r_break, math.inf, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        return lo + hi

    return integrate.quad(inner, 0.0, math.pi, epsabs=1e-13, epsrel=1e-11, limit=200)[0] / math.pi


@pytest.mark.parametrize("p,a,eps", [(2.0, 1.1, 0.1), (1.0, 3.0, 1.0), (4.0, 0.75, 0.5)])
def test_ratpow_norm(p, a, eps):
    direct = halfplane_integral(lambda z: abs(z + 1j * eps) ** (-p * a), r_break=10 * eps)
    assert oracles.ratpow_norm(p, a, eps) == pytest.approx(direct ** (1.0 / p), rel=1e-9)


def test_gmod_norm():
    lam, delta, p = 0.5, 0.25, 2.0
    direct = halfplane_integral(lambda z: abs(z + 1j * delta) ** (-(2.0 + lam)), r_break=2.5)
    assert oracles.gmod_norm(lam, delta, p) == pytest.approx(direct ** 0.5, rel=1e-9)


@pytest.mark.parametrize("alpha,beta,a", [(1.0, 1.0, 2.0), (0.5, 2.0, 1.5), (0.2, 1.0, 3.0)])
def test_ratpow_pairing(alpha, beta, a):
    def prod(z):
        return (z + 1j * alpha) ** -a * np.conj((z + 1j * beta) ** -a)

    re = halfplane_integral(lambda z: prod(z).real, r_break=2.0)
    im = halfplane_integral(lambda z: prod(z).imag, r_break=2.0)
    assert oracles.ratpow_pairing(alpha, beta, a) == pytest.approx(re, rel=1e-9)
    assert abs(im) < 1e-9


def test_operator_norm_p2_uniform_from_closed_form_image():
    # ||H (z+i)^-2||_2 for the uniform measure on [1, 2], from its image in closed form
    direct = halfplane_integral(lambda z: abs(oracles.apply_uniform_ratpow2(z)) ** 2, r_break=3.0)
    exact = oracles.operator_norm_p2("uniform", 2.0, 1.0)
    assert exact == pytest.approx(math.sqrt(direct), rel=1e-9)


@pytest.mark.parametrize("measure", ["exp", "rsqrt", "uniform"])
@pytest.mark.parametrize("a", [1.1, 2.0])
def test_double_moment_kernel(measure, a):
    weight, lo, hi = {
        "exp": (lambda t: math.exp(-t), 0.0, math.inf),
        "rsqrt": (lambda t: t ** -0.5, 0.0, 1.0),
        "uniform": (lambda t: 1.0, 1.0, 2.0),
    }[measure]
    if measure == "rsqrt":
        # t = u^2 removes the endpoint singularity: t^-1/2 dt = 2 du
        def f(v, u):
            t, s = u * u, v * v
            return 4.0 * (t * s) ** (a - 1.0) * (t + s) ** (2.0 - 2.0 * a)

        direct = integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11)[0]
    else:
        def f(s, t):
            return (t * s) ** (a - 1.0) * (t + s) ** (2.0 - 2.0 * a) * weight(t) * weight(s)

        direct = integrate.dblquad(f, lo, hi, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
    assert oracles._double_moment_kernel(measure, a) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("measure,alpha", [("uniform", 0.0), ("uniform", -1.0), ("exp", 0.5),
                                           ("rsqrt", -1.0 / 3.0), ("rsqrt", 1.0)])
def test_moment(measure, alpha):
    weight, lo, hi = {
        "exp": (lambda t: math.exp(-t), 0.0, math.inf),
        "rsqrt": (lambda t: t ** -0.5, 0.0, 1.0),
        "uniform": (lambda t: 1.0, 1.0, 2.0),
    }[measure]
    direct = integrate.quad(lambda t: t ** alpha * weight(t), lo, hi, epsrel=1e-12)[0]
    assert oracles.moment(measure, alpha) == pytest.approx(direct, rel=1e-9)


POINTS = [0.3 + 1.2j, -3.5 + 0.02j, 2.0 + 40.0j]


def _quad_complex(g, lo, hi):
    re = integrate.quad(lambda t: g(t).real, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
    im = integrate.quad(lambda t: g(t).imag, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
    return complex(re, im)


@pytest.mark.parametrize("z", POINTS)
def test_apply_oracles(z):
    a, eps = 2.0, 1.0

    def kernel(weight):
        return lambda t: t ** (a - 1.0) * (z + 1j * eps * t) ** -a * weight(t)

    # the closed form for the uniform measure and the mpmath quadrature agree;
    # the closed form subtracts terms of size log|z|, so compare absolutely
    closed = complex(oracles.apply_uniform_ratpow2(np.array([z]))[0])
    assert abs(closed - oracles.apply_density("uniform", z, a, eps)) <= 1e-15
    cases = {
        "exp": (lambda t: math.exp(-t), 0.0, math.inf),
        "rsqrt": (lambda t: t ** -0.5, 0.0, 1.0),
        "mixed": (lambda t: t * math.exp(-t), 0.5, 4.0),
    }
    for name, (weight, lo, hi) in cases.items():
        direct = _quad_complex(kernel(weight), lo, hi)
        assert abs(oracles.apply_density(name, z, a, eps) - direct) <= 1e-9 * abs(direct), name
    atoms = ((0.5, 0.3), (3.0, 0.2))
    direct = sum(w / t * (z / t + 1j * eps) ** -a for t, w in atoms)
    assert abs(complex(oracles.apply_atoms(atoms, np.array([z]), a, eps)[0]) - direct) <= 1e-14
    quasi = _quad_complex(lambda t: t * (t * z + 1j * eps) ** -a * math.exp(-t), 0.0, math.inf)
    assert abs(oracles.apply_quasi_exp(z, a, eps) - quasi) <= 1e-9 * abs(quasi)
