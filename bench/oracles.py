"""Reference values computed apart from the library.

Nothing here imports hausdorff_bergman: every value comes from a closed form
(Gamma functions, elementary logarithms), from mpmath quadrature of the
defining integral, or from an independent Gauss-Legendre rule.  The
benchmark compares the library's outputs with these after its timed section.

Notation: f_{eps,a}(z) = (z + i*eps)^-a with the principal branch, and
Hf(z) = integral of (1/t) f(z/t) dmu(t).  For t > 0,
(1/t) f_{eps,a}(z/t) = t^(a-1) (z + i*eps*t)^-a, which every operator oracle
below uses.

Run `python3 bench/oracles.py` to print the operator-norm oracles of the
operator_norm workload.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# measures of the benchmark, by name:
#   uniform  - Lebesgue measure on [1, 2]
#   exp      - e^-t dt on (0, inf)
#   rsqrt    - t^(-1/2) dt on (0, 1)
MEASURES = ("uniform", "exp", "rsqrt")


def _gamma_ratio_norm_pp(pa: float, eps: float) -> float:
    """||(z + i eps)^-a||_p^p for pa = p*a > 2, from Gamma functions."""
    with mpmath.workdps(30):
        pa_m = mpmath.mpf(pa)
        val = (mpmath.gamma((pa_m - 1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(pa_m / 2))
               * mpmath.mpf(eps) ** (2 - pa_m) / (pa_m - 2))
        return float(val)


def ratpow_norm(p: float, a: float, eps: float) -> float:
    """Bergman p-norm of (z + i eps)^-a (needs p*a > 2)."""
    return _gamma_ratio_norm_pp(p * a, eps) ** (1.0 / p)


def gmod_norm(lam: float, delta: float, p: float) -> float:
    """Bergman p-norm of |z + i delta|^-((2+lam)/p): the case p*a = 2 + lam."""
    return _gamma_ratio_norm_pp(2.0 + lam, delta) ** (1.0 / p)


def ratpow_pairing(alpha: float, beta: float, a: float) -> float:
    """<(z + i alpha)^-a, (z + i beta)^-a> = Gamma(2a-1)/(2(a-1)Gamma(a)^2) (alpha+beta)^(2-2a).

    The pairing is real; the imaginary part of the oracle is 0."""
    with mpmath.workdps(30):
        a_m = mpmath.mpf(a)
        val = (mpmath.gamma(2 * a_m - 1) / (2 * (a_m - 1) * mpmath.gamma(a_m) ** 2)
               * (mpmath.mpf(alpha) + mpmath.mpf(beta)) ** (2 - 2 * a_m))
        return float(val)


def moment(measure: str, alpha: float) -> float:
    """Moment of t^alpha against one of the benchmark's measures."""
    if measure == "uniform":
        return (2.0 ** (alpha + 1.0) - 1.0) / (alpha + 1.0) if alpha != -1.0 else math.log(2.0)
    if measure == "exp":
        return math.gamma(alpha + 1.0)
    if measure == "rsqrt":
        return 1.0 / (alpha + 0.5)
    raise ValueError(measure)


def norm_ceiling(measure: str, p: float, a: float, eps: float) -> float:
    """The paper's bound ||Hf||_p <= moment(t^(2/p-1)) * ||f||_p."""
    return moment(measure, 2.0 / p - 1.0) * ratpow_norm(p, a, eps)


def _double_moment_kernel(measure: str, a: float) -> float:
    """D = double integral of (ts)^(a-1) (t+s)^(2-2a) dmu(t) dmu(s)."""
    if measure == "exp":
        # t + s = u, t = u x: Gamma(2) * B(a, a)
        return math.exp(2.0 * math.lgamma(a) - math.lgamma(2.0 * a))
    if measure == "uniform":
        x, w = np.polynomial.legendre.leggauss(60)
        t = 1.5 + 0.5 * x
        wt = 0.5 * w
        tt, ss = np.meshgrid(t, t, indexing="ij")
        vals = (tt * ss) ** (a - 1.0) * (tt + ss) ** (2.0 - 2.0 * a)
        return float(wt @ vals @ wt)
    if measure == "rsqrt":
        # homogeneous of degree -1: 2 * integral_0^1 x^(a-3/2) (1+x)^(2-2a) dx
        with mpmath.workdps(30):
            a_m = mpmath.mpf(a)
            val = 2 * mpmath.quad(lambda x: x ** (a_m - 1.5) * (1 + x) ** (2 - 2 * a_m), [0, 1])
            return float(val)
    raise ValueError(measure)


def operator_norm_p2(measure: str, a: float, eps: float) -> float:
    """||H f_{eps,a}||_2 exactly.

    ||Hf||_2^2 is the double integral over mu x mu of (ts)^(a-1) times the
    pairing of (z + i eps t)^-a with (z + i eps s)^-a, which is
    C_a (eps(t+s))^(2-2a) with C_a = Gamma(2a-1)/(2(a-1)Gamma(a)^2)."""
    c_a = ratpow_pairing(0.5, 0.5, a)  # (alpha + beta) = 1 leaves C_a
    return math.sqrt(c_a * eps ** (2.0 - 2.0 * a) * _double_moment_kernel(measure, a))


def apply_uniform_ratpow2(z: np.ndarray) -> np.ndarray:
    """H(z + i)^-2 for the uniform measure on [1, 2], in closed form:
    -[log(z+2i) - log(z+i) + z/(z+2i) - z/(z+i)]."""
    z = np.asarray(z, dtype=complex)
    return -(np.log(z + 2j) - np.log(z + 1j) + z / (z + 2j) - z / (z + 1j))


# densities for the mpmath apply oracles: (density, breakpoints of its support);
# "mixed" is the density part of apply_batch's atoms-plus-density measure
_DENSITIES = {
    "uniform": (lambda t: 1, [1, 2]),
    "exp": (lambda t: mpmath.exp(-t), [0, 1, mpmath.inf]),
    "rsqrt": (lambda t: 1 / mpmath.sqrt(t), [0, 1]),
    "mixed": (lambda t: t * mpmath.exp(-t), [0.5, 4]),
}


def apply_density(measure: str, z: complex, a: float, eps: float) -> complex:
    """Hf_{eps,a}(z) for the density part of a measure, by mpmath quadrature
    of t^(a-1) (z + i eps t)^-a w(t)."""
    dens, pts = _DENSITIES[measure]
    with mpmath.workdps(25):
        zz = mpmath.mpc(z.real, z.imag)
        a_m = mpmath.mpf(a)
        ie = mpmath.mpc(0, eps)

        def g(t):
            return t ** (a_m - 1) * mpmath.power(zz + ie * t, -a_m) * dens(t)

        return complex(mpmath.quad(g, pts))


def apply_atoms(atoms, z: np.ndarray, a: float, eps: float) -> np.ndarray:
    """Exact image of f_{eps,a} under an atomic measure: sum of w/t f(z/t)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for t, w in atoms:
        with mpmath.workdps(25):
            vals = [complex(w / t * mpmath.power(mpmath.mpc(zi.real, zi.imag) / t
                                                 + mpmath.mpc(0, eps), -a))
                    for zi in z.ravel()]
        out += np.array(vals).reshape(z.shape)
    return out


def apply_quasi_exp(z: complex, a: float, eps: float) -> complex:
    """Adjoint image of f_{eps,a} under e^-t dt, from its definition:
    integral over (0, inf) of t f(t z) e^-t dt."""
    with mpmath.workdps(25):
        zz = mpmath.mpc(z.real, z.imag)
        a_m = mpmath.mpf(a)
        ie = mpmath.mpc(0, eps)

        def g(t):
            return t * mpmath.power(t * zz + ie, -a_m) * mpmath.exp(-t)

        return complex(mpmath.quad(g, [0, 1, mpmath.inf]))


if __name__ == "__main__":
    for m in MEASURES:
        for a, eps in ((1.1, 0.1), (2.0, 1.0)):
            print(f"{m:8s} a={a:<4g} eps={eps:<4g} ||Hf||_2 = {operator_norm_p2(m, a, eps)!r}")
