"""The dilation-average operator and its adjoint.

The primary operator sends f to the integral of (1/t) f(z/t) against a
positive measure on (0, inf); the truncated operator is that of
truncate(mu, delta).  Its point values are halfplane.image_values, the
integral against the measure (measure.integrate) of f's values at the
dilated points, vectorized over evaluation points; apply_with_error
returns that integral's IntegralResult.  The adjoint (quasi) variant
integrates t*f(tz) and is implemented through the inversion push-forward
of the measure, with direct quadrature available as an independent
cross-check route.  Points reach the kernel as pairs (zeta, lam) standing
for z = e^lam zeta (see halfplane.py): the inner node t takes lam to
lam - log t, and to lam + log t on the adjoint's direct route, so z/t and
tz are never formed and no intermediate leaves the float range where they
would.

as_function puts the operator's measure on every term of f, and the
result's terms are grouped by measure once (HalfPlaneFunction.sides).  Its
point values run one inner quadrature per measure over a plain source, and
its Bergman norms and pairings run on the log-polar lattice (logpolar.py),
sums, multiples and dilations of images included.  Each side of the
adjoint identity pairs an image with a plain function on that lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergentIntegral
from .halfplane import HalfPlaneFunction, _as_z, _point_pair, image_values
from .measure import Boundedness, Measure, classify_boundedness, pushforward_inverse
from .quadrature import IntegralResult, QuadratureConfig, pairing

__all__ = [
    "HausdorffOperator",
    "apply",
    "apply_with_error",
    "apply_quasi",
    "as_function",
    "quasi_as_function",
    "adjoint_pairing_check",
]


@dataclass(frozen=True)
class HausdorffOperator:
    """Dilation average against `mu`, acting on the p-Bergman space.

    An operator whose measure is provably unbounded on the target space
    refuses to evaluate rather than return a silently partial value.  A
    truncated measure touches neither 0 nor infinity, so its operator is
    bounded.
    """

    mu: Measure
    p: float = 2.0

    def __post_init__(self) -> None:
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p!r}")

    def _guard(self) -> None:
        if classify_boundedness(self.mu, self.p) is Boundedness.UNBOUNDED:
            raise DivergentIntegral(
                "moment diverges; truncate the measure to [delta, 1/delta] "
                "to evaluate the truncated operator instead"
            )


def _half_plane_points(z) -> np.ndarray:
    """z as an at least 1-D complex array; ValueError unless every point is
    finite with Im z > 0."""
    zz = np.atleast_1d(np.asarray(_as_z(z), dtype=complex))
    if not np.all(np.isfinite(zz) & (zz.imag > 0.0)):
        raise ValueError("evaluation points must be finite with Im z > 0")
    return zz


def apply_with_error(op: HausdorffOperator, f: HalfPlaneFunction, z,
                     cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Operator value at z (a complex for scalar z) with the inner
    quadrature's error estimate and subdivisions (image_values)."""
    cfg = cfg or QuadratureConfig()
    op._guard()
    res = image_values(op.mu, f.evaluator, *_point_pair(_half_plane_points(z)), cfg)
    if np.ndim(_as_z(z)) == 0:
        res.value = complex(res.value[0])
    return res


def apply(op: HausdorffOperator, f: HalfPlaneFunction, z,
          cfg: QuadratureConfig | None = None):
    """Evaluate the operator at z (scalar or array of half-plane points)."""
    return apply_with_error(op, f, z, cfg).value


def apply_quasi(mu: Measure, f: HalfPlaneFunction, z,
                cfg: QuadratureConfig | None = None, p: float = 2.0,
                route: str = "pushforward"):
    """Evaluate the adjoint operator (integral of t*f(tz)) at z.

    The default route rewrites it as the dilation average against the
    inversion push-forward of mu; route="direct" integrates t*f(tz)
    directly and exists as an independent cross-check.
    """
    cfg = cfg or QuadratureConfig()
    if route == "pushforward":
        op = HausdorffOperator(pushforward_inverse(mu), p=p)
        return apply(op, f, z, cfg)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")

    vals = image_values(mu, f.evaluator, *_point_pair(_half_plane_points(z)), cfg, sign=1).value
    return complex(vals[0]) if np.ndim(_as_z(z)) == 0 else vals


def as_function(op: HausdorffOperator, f: HalfPlaneFunction,
                cfg: QuadratureConfig | None = None) -> HalfPlaneFunction:
    """The operator output as a half-plane function: f's terms with op's
    measure put on each.  Its Bergman norms and pairings are computed from
    those terms; cfg is the inner quadrature of its point values.  f must
    be plain: an image of an image is not a term."""
    op._guard()
    if not all(t.plain for t in f.terms):
        raise ValueError("as_function takes a plain function, not an operator image")
    return HalfPlaneFunction(tuple(replace(t, measure=op.mu) for t in f.terms), cfg)


def quasi_as_function(mu: Measure, f: HalfPlaneFunction, p: float = 2.0,
                      cfg: QuadratureConfig | None = None) -> HalfPlaneFunction:
    """The adjoint operator output as an evaluable function (push-forward route)."""
    return as_function(HausdorffOperator(pushforward_inverse(mu), p=p), f, cfg)


def adjoint_pairing_check(mu: Measure, f: HalfPlaneFunction, g: HalfPlaneFunction,
                          cfg: QuadratureConfig | None = None) -> tuple[complex, complex]:
    """Both sides of the adjoint identity at p = 2.

    Returns (pairing of (Hf, g), pairing of (f, H*g)); callers compare the
    two for equality within quadrature tolerance.
    """
    cfg = cfg or QuadratureConfig()
    hf = as_function(HausdorffOperator(mu, p=2.0), f)
    hstar_g = quasi_as_function(mu, g, p=2.0)
    lhs = pairing(hf, g, cfg).value
    rhs = pairing(f, hstar_g, cfg).value
    return lhs, rhs
