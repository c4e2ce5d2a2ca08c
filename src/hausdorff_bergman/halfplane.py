"""Geometry and function families on the upper half-plane.

A HalfPlaneFunction is a tuple of terms (see Term); a plain function is
its own image under the unit atom.  Sums concatenate terms, multiples scale
coefficients, and a dilation by s maps each term to (coef s^exponent,
s shift), images included, as H commutes with dilations.  The terms are
grouped by measure once (HalfPlaneFunction.sides), and one log-space
kernel evaluates every plain source (HalfPlaneFunction._log_sum): on the
lattice of norms and pairings, and at points, directly or inside an
image's inner quadrature.  The decay hint and the mirror factor are
derived from the terms too.

Every point reaches the kernel as a pair (zeta, lam) standing for
z = e^lam zeta (complex zeta of the points' shape, real lam broadcasting
against it): point values pass lam = 0 (lam = log 2 and zeta = z/2 at a
point whose modulus overflows, _point_pair), an image's inner nodes
lam - log t and a lattice row lam = max(w, 0) with
zeta = e^(w - lam) e^(i theta), so z/t and e^w are never formed.  The
kernel takes each term from w = zeta + i shift e^-lam, as
z + i shift = e^lam w: e^(pre - a lam - a log|w|) e^(-i a arg w), in real
ufuncs (_power), and no intermediate leaves the float range for finite
zeta and lam, even where z would.  arg w comes from arctan2, in
(-pi, pi]: complex powers always follow the principal branch, and no
other branch is used anywhere in the package.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ParameterOutOfRange
from .measure import Measure
from .quadrature import QuadratureConfig

__all__ = [
    "Sector",
    "TestFunction",
    "ModulusFunction",
    "HalfPlaneFunction",
    "rational_power",
    "dilate",
    "check_sector_inequality",
    "sector_for_case",
    "sample_sector",
    "parse_function_spec",
]

UNIT = Measure.from_atoms((1.0, 1.0))  # the measure of the identity operator
_SERIES_RATIO = 0.25  # a group with vanishing moments is expanded at most
                      # where its largest shift over |z| is below this
_EXP_MAX = 700.0  # e^x is finite for x <= this (the largest double is e^709.78)


def _as_z(z):
    """Accept complex scalars or array-likes of complex."""
    arr = np.asarray(z)
    return complex(arr) if arr.ndim == 0 else arr


def _point_pair(z):
    """Points z (a complex scalar or array) as the pair (zeta, lam) of the
    point format (see the module docstring): (z, 0), except that a point
    whose modulus overflows passes (z/2, log 2), as |z|/2 is below the
    largest double wherever both parts of z are.  Done once per call at the
    entry points: the kernel (_power) takes |zeta| as it is."""
    z = _as_z(z)
    big = np.isinf(np.abs(z))
    if not big.any():
        return z, 0.0
    return np.where(big, 0.5 * z, z), np.where(big, math.log(2.0), 0.0)


@dataclass(frozen=True)
class Sector:
    """An angular sector of the upper half-plane, optionally truncated to
    |z| >= 1.  Angles are principal arguments in (-pi, pi]."""

    arg_lo: float
    arg_hi: float
    lo_open: bool = False
    hi_open: bool = False
    truncated: bool = False

    def __post_init__(self) -> None:
        if not (-math.pi < self.arg_lo <= math.pi):
            raise ValueError("arg_lo outside (-pi, pi]")
        if not (-math.pi < self.arg_hi <= math.pi):
            raise ValueError("arg_hi outside (-pi, pi]")
        if not (self.arg_lo < self.arg_hi):
            raise ValueError("need arg_lo < arg_hi")

    def contains(self, z) -> bool | np.ndarray:
        z = _as_z(z)
        ang = np.angle(z)
        lo_ok = ang > self.arg_lo if self.lo_open else ang >= self.arg_lo
        hi_ok = ang < self.arg_hi if self.hi_open else ang <= self.arg_hi
        ok = lo_ok & hi_ok
        if self.truncated:
            ok = ok & (np.abs(z) >= 1.0)
        return bool(ok) if np.ndim(ok) == 0 else ok


@dataclass(frozen=True)
class Term:
    """coef * H g, with g = (z + i shift)^-exponent (family "ratpow") or
    |z + i shift|^-exponent ("gmod") and H the dilation average against
    measure; plain under the unit atom."""

    coef: complex
    measure: Measure
    family: str
    shift: float
    exponent: float

    def __post_init__(self) -> None:
        if self.family not in ("ratpow", "gmod"):
            raise ValueError(f"unknown family {self.family!r}")
        if not (cmath.isfinite(self.coef) and math.isfinite(self.exponent)):
            raise ValueError(f"coefficient {self.coef!r} and exponent {self.exponent!r} "
                             "must be finite")
        if not 0.0 < self.shift < math.inf:
            raise ValueError(f"shift must be positive and finite, got {self.shift!r}")

    @property
    def plain(self) -> bool:
        return self.measure == UNIT

    @property
    def mirror(self) -> complex:
        """lam with term(-conj z) = lam conj term(z), for a nonzero
        coefficient c.  z -> -conj z maps z + i shift to -conj(z + i shift),
        whose principal logarithm is i pi + conj log(z + i shift), so ratpow
        gives (c / conj c) e^(-i pi a) and gmod c / conj c.  An image's
        measure is real, so it gives the same.  a is reduced modulo 2 first,
        exactly."""
        c = complex(self.coef)
        lam = c / c.conjugate()
        if self.family == "ratpow":
            lam *= cmath.exp(-1j * math.pi * math.fmod(self.exponent, 2.0))
        return lam


def common_mirror(lams) -> complex | None:
    """The common value of some mirror factors, equal within a few ulps
    (their ratios are rounded); None if one is None or two differ, and 1 for
    none at all."""
    common = None
    for lam in lams:
        if lam is None:
            return None
        if common is None:
            common = lam
        elif abs(lam - common) > 4.0 * sys.float_info.epsilon:
            return None
    return 1.0 if common is None else common


def _power(zeta, lam, shift: float, a: float, pre, phase: bool):
    """e^pre (z + i shift)^-a if phase (ratpow), else e^pre |z + i shift|^-a
    (gmod), at the points z = e^lam zeta; lam and pre (None or an array)
    broadcast against zeta, which has the points' shape.  With
    w = zeta + i shift e^-lam, the modulus is e^(pre - a lam - a log|w|)
    and the phase e^(-i a arg w), arg w from arctan2 in (-pi, pi]: the
    principal e^(pre - a log(z + i shift)), in real ufuncs, into three
    arrays of the points' shape.  A point whose shift e^-lam or e^-lam
    would overflow takes lam = max(log shift, 0) first, its zeta scaled by
    e^(lam - that)."""
    lam = np.asarray(lam, dtype=float)
    top = max(math.log(shift), 0.0)
    if lam.min(initial=top) < top - _EXP_MAX:
        mu = np.where(lam < top - _EXP_MAX, top, lam)
        zeta, lam = zeta * np.exp(lam - mu), mu
    w = zeta.copy()
    w.imag += shift * np.exp(-lam)  # a real sum: numpy's complex one is slower
    mag = np.empty(w.shape)
    np.abs(w, out=mag)
    np.log(mag, out=mag)
    mag *= -a
    mag += -a * lam if pre is None else pre - a * lam
    np.exp(mag, out=mag)
    if not phase:
        return mag[()]  # a numpy scalar for 0-d z, as a ufunc would return
    theta = np.empty(w.shape)
    np.arctan2(w.imag, w.real, out=theta)
    theta *= a
    np.cos(theta, out=w.real)
    w.real *= mag
    np.sin(theta, out=theta)
    theta *= mag
    np.negative(theta, out=w.imag)
    return w[()]


def _moments(terms, scale: float = 1.0):
    """The moments sum of coef (shift / scale)^j, j = 0, 1, ..., as exact
    (real part, imaginary part) Fractions."""
    # imported here: fractions loads decimal, some 0.3 MB of resident memory
    # that only a sum of two or more terms of one family and exponent needs
    from fractions import Fraction

    data = [(Fraction(complex(t.coef).real), Fraction(complex(t.coef).imag),
             Fraction(t.shift) / Fraction(scale)) for t in terms]
    powers = [Fraction(1)] * len(data)
    while True:
        yield (sum(re * pw for (re, _, _), pw in zip(data, powers)),
               sum(im * pw for (_, im, _), pw in zip(data, powers)))
        powers = [pw * x for (_, _, x), pw in zip(data, powers)]


def _vanishing_moments(terms) -> int:
    """The number m of leading moments sum of coef shift^j of some terms
    that vanish exactly; len(terms) if all of the first len(terms) do, as
    the terms then cancel identically."""
    if len(terms) == 1:  # the common case, without rational arithmetic
        return 0 if terms[0].coef else 1
    for j, moment in zip(range(len(terms)), _moments(terms)):
        if any(moment):
            return j
    return len(terms)


def _gegenbauer(lam: float, x: np.ndarray):
    """C_n^lam(x) for n = 0, 1, ..., by the three-term recurrence."""
    c_prev, c, n = np.zeros_like(x), np.ones_like(x), 0
    while True:
        yield c
        n += 1
        c_prev, c = c, (2.0 * x * (n + lam - 1.0) * c - (n + 2.0 * lam - 2.0) * c_prev) / n


class _Expansion:
    """The plain terms of one family and exponent a whose first m > 0
    moments M_j = sum of coef shift^j vanish, summed from their expansion at
    infinity.  With (z + i s)^-a = sum_n binom(-a, n) (i s)^n z^-(a+n) and
    |z + i s|^-a = sum_n C_n^(a/2)(-sin theta) s^n r^-(a+n) (Gegenbauer),
    their sum is sum over n >= m of M_n times the n-th basis function; term
    by term, it would keep rounding of the size of each term, so far out
    the cancelled orders would drown the rest.

    Used where rho = (largest shift) / |z| is at most ratio, up to the order
    where the tail is below the terms' own rounding.  Both bases are bounded
    by binom(|a| + n - 1, n), whose series in rho sums to (1 - rho)^-|a|:
    ratio keeps that at most 4, so the expansion's terms are never much
    larger than its sum, and at most _SERIES_RATIO."""

    def __init__(self, terms, m: int):
        self.terms, self.m = terms, m
        self.family, self.a = terms[0].family, terms[0].exponent
        a = self.a
        self.scale = max(t.shift for t in terms)
        self.ratio = min(_SERIES_RATIO, -math.expm1(-math.log(4.0) / abs(a)) if a else 1.0)
        self.cut = math.log(self.scale / self.ratio)  # log|z| from which rho <= ratio
        bound, n_max = 1.0, 0  # binom(|a| + n - 1, n) ratio^n
        while n_max < m or (bound > 1e-18 and n_max < 1000):
            n_max += 1
            bound *= (abs(a) + n_max - 1.0) / n_max * self.ratio
        # M_n / scale^n for n = m .. n_max, rounded from the exact value: a
        # moment rounded term by term would bring back the cancelled orders
        self.moments = np.array([complex(float(re), float(im)) for _, (re, im) in
                                 zip(range(n_max + 1), _moments(terms, self.scale))][m:])
        if self.family == "ratpow":
            k = np.arange(n_max)
            binom = np.cumprod(np.concatenate([[1.0], (-a - k) / (1.0 + k)]))
            self.moments = self.moments * binom[m:] * 1j ** np.arange(m, n_max + 1)

    def values(self, logr: np.ndarray, theta: np.ndarray, pre) -> np.ndarray:
        """e^pre times the terms' sum at the points z = e^(logr + i theta)
        with logr >= cut (pre broadcasts against them): e^pre scale^m
        z^-(a+m) times the sum over k of M_(m+k) (scale/z)^k (ratpow), or
        e^pre scale^m r^-(a+m) times that of M_(m+k) C_(m+k)(-sin theta)
        (scale/r)^k (gmod), summed forwards, as its terms shrink like ratio^k."""
        a, m = self.a, self.m
        step = np.exp(math.log(self.scale) - logr)
        lead = pre + m * math.log(self.scale) - (a + m) * logr
        if self.family == "ratpow":
            step, lead = step * np.exp(-1j * theta), lead - 1j * (a + m) * theta
            basis = itertools.repeat(1.0)
        else:
            basis = itertools.islice(_gegenbauer(0.5 * a, -np.sin(theta)), m, None)
        total, power = 0.0, 1.0
        for c, b in zip(self.moments, basis):
            total, power = total + c * b * power, power * step
        return np.exp(lead) * total


@dataclass(frozen=True)
class HalfPlaneFunction:
    """A sum of terms (see Term) on the upper half-plane.

    sides, one plain source per measure, serves norms and pairings
    (logpolar.py) and point values alike.  decay_hint = (power, shift)
    encodes |f(z)| <~ C * |z + i*shift|^-power at infinity and steers the
    lattice; mirror, lam with f(-conj z) = lam conj f(z) or None, lets it
    evaluate half the angles.  inner_cfg is the inner quadrature of the
    point values of images.  evaluator, the point evaluator, defaults to the
    one derived from the terms; it takes the points as a pair (zeta, lam)
    standing for z = e^lam zeta (see the module docstring), and norms and
    pairings never call it.
    """

    terms: tuple[Term, ...]
    inner_cfg: QuadratureConfig | None = field(default=None, compare=False)
    evaluator: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # derived here, never copied from another record by dataclasses.replace;
        # an evaluator passed in (a tracing wrapper, say) is kept
        if (self.evaluator is None
                or getattr(self.evaluator, "__func__", None) is HalfPlaneFunction._values):
            object.__setattr__(self, "evaluator", self._values)

    @functools.cached_property
    def sides(self) -> tuple:
        """(measure, source, decay hint) per distinct nonzero measure of the
        terms, by identity (segments compare without their densities; one
        equal to the unit atom counts as it): the source holds the measure's
        terms made plain, the hint is that of the terms themselves."""
        groups = {}
        for t in self.terms:
            mu = UNIT if t.plain else t.measure
            groups.setdefault(id(mu), (mu, []))[1].append(t)
        return tuple((mu, HalfPlaneFunction(tuple(replace(t, measure=UNIT) for t in terms)),
                      HalfPlaneFunction(tuple(terms)).decay_hint)
                     for mu, terms in groups.values() if not mu.is_zero)

    @functools.cached_property
    def _split(self) -> list:
        """The plain terms in groups: (terms, None) for those summed
        directly, in term order, and (terms, _Expansion) for each family
        and exponent whose first m > 0 moments vanish (_vanishing_moments)."""
        groups = {}
        for t in self.terms:
            if t.plain:
                groups.setdefault((t.family, t.exponent), []).append(t)
        expanded = {key: _Expansion(tuple(g), m) for key, g in groups.items()
                    if (m := _vanishing_moments(g))}
        direct = [t for t in self.terms if t.plain and (t.family, t.exponent) not in expanded]
        return ([(direct, None)] if direct else []) + [(ex.terms, ex) for ex in expanded.values()]

    @property
    def decay_hint(self) -> tuple[float, float]:
        """Each term counts with its exponent, except that the plain terms of
        one family and exponent a count together with a + m, m their number
        of vanishing moments: at infinity each term's |z|^-(a+j) coefficient
        is homogeneous of degree j in its shift (see _Expansion), so the
        group's first m cancel.  An image's shift is scaled by its measure's
        support infimum below 1."""
        shifts = []
        for t in self.terms:
            t_min = t.measure.support_infimum()  # inf for the zero measure
            shifts.append(t.shift * min(t_min, 1.0) if t_min > 0.0 else 0.0)
        powers = [t.exponent for t in self.terms if not t.plain]
        powers += [t.exponent + (ex.m if ex else 0) for terms, ex in self._split for t in terms]
        return min(powers), min(shifts)

    @property
    def mirror(self) -> complex | None:
        """lam with f(-conj z) = lam conj f(z) on the upper half-plane: the
        common mirror factor of the terms with a nonzero coefficient
        (Term.mirror), or None where two differ (mixed exponents or
        families, coefficients of different phase)."""
        return common_mirror(t.mirror for t in self.terms if t.coef)

    def _values(self, zeta, lam):
        """The point evaluator, at the points z = e^lam zeta (see the module
        docstring): per side, its source's values under the unit atom, else
        one inner quadrature of the operator over them."""
        from .hausdorff import image_values  # hausdorff builds on this module

        zeta = np.asarray(zeta, dtype=complex)
        vals = [source._log_sum(zeta, lam) if mu is UNIT else image_values(
            mu, source._log_sum, zeta, lam, self.inner_cfg or QuadratureConfig())[0]
                for mu, source, _ in self.sides]
        return sum(vals[1:], vals[0]) if vals else np.zeros(zeta.shape, dtype=complex)

    def lattice_values(self, w: np.ndarray, eith: np.ndarray, q: float) -> np.ndarray:
        """G(w, theta) = e^(q w) f(e^(w + i theta)) of a plain function on
        the grid w x theta, in log space (_log_sum): row w holds the points
        e^lam zeta, lam = max(w, 0) and zeta = e^(w - lam) e^(i theta), with
        the prefactor q w, so G stays accurate where e^w or f leaves the
        float range."""
        lam = np.maximum(w, 0.0)[:, None]
        return self._log_sum(np.exp(w[:, None] - lam) * eith, lam, (q * w)[:, None])

    def _log_sum(self, zeta, lam, pre=None):
        """The evaluation kernel of a plain function: the sum over its terms
        of coef e^pre (z + i shift)^-a (|...| for gmod; see _power) at the
        points z = e^lam zeta, lam (and pre, None or an array) broadcasting
        against zeta, which has the points' shape.  A group with vanishing moments is
        summed from its expansion (_Expansion) at the points far from its
        shifts in the closed upper half-plane (the principal branch would
        not follow below it), read from log|z| = lam + log|zeta| and
        arg z = arg zeta."""
        total = None
        for terms, ex in self._split:
            vals = None
            for t in terms:
                g = _power(zeta, lam, t.shift, t.exponent, pre, t.family == "ratpow")
                g = g if t.coef == 1.0 else t.coef * g
                vals = g if vals is None else vals + g
            if ex is not None:
                vals = np.asarray(vals, dtype=complex)
                zb = np.broadcast_to(zeta, vals.shape)
                r = np.abs(zb)  # log|z| = lam + log|zeta|, -inf at z = 0
                logr = np.log(r, out=np.full(r.shape, -np.inf), where=r > 0.0) + lam
                theta = np.angle(zb)
                far = (logr >= ex.cut) & (theta >= 0.0)
                if np.any(far):
                    pre_far = 0.0 if pre is None else np.broadcast_to(pre, vals.shape)[far]
                    vals[far] = ex.values(logr[far], theta[far], pre_far)
            total = vals if total is None else total + vals
        return total

    def __call__(self, z):
        """The values at z only.  On an image each side's inner quadrature
        over its measure has an error, which is dropped here;
        apply_with_error(op, f, z) returns the image's values with it."""
        return self.evaluator(*_point_pair(z))

    def __add__(self, other: "HalfPlaneFunction") -> "HalfPlaneFunction":
        if not isinstance(other, HalfPlaneFunction):
            return NotImplemented
        if None not in (self.inner_cfg, other.inner_cfg) and self.inner_cfg != other.inner_cfg:
            raise ValueError("cannot add images whose point values use different inner_cfg")
        return HalfPlaneFunction(self.terms + other.terms, self.inner_cfg or other.inner_cfg)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return HalfPlaneFunction(tuple(replace(t, coef=c * t.coef) for t in self.terms),
                                 self.inner_cfg)

    __rmul__ = __mul__

    def __neg__(self) -> "HalfPlaneFunction":
        return self * (-1.0)

    def __sub__(self, other: "HalfPlaneFunction") -> "HalfPlaneFunction":
        return self + (-other)


def rational_power(shift: float, exponent: float) -> HalfPlaneFunction:
    """The family (z + i*shift)^-exponent with shift > 0."""
    return HalfPlaneFunction((Term(1.0, UNIT, "ratpow", shift, exponent),))


def _dilated(t: Term, s: float) -> Term:
    try:
        coef = t.coef * s ** t.exponent if t.coef else t.coef
    except OverflowError:  # a float power out of range
        coef = math.inf
    if not (cmath.isfinite(coef) and (coef or not t.coef)):
        raise ValueError(f"dilation by {s!r} takes a coefficient out of float range")
    return replace(t, coef=coef, shift=s * t.shift)


def dilate(f: HalfPlaneFunction, s: float) -> HalfPlaneFunction:
    """z -> f(z/s); the Bergman p-norm scales by s^(2/p).  A dilation whose
    term coefficient coef s^exponent over- or underflows is refused."""
    if not 0.0 < s < math.inf:
        raise ValueError("dilation factor must be positive")
    return HalfPlaneFunction(tuple(_dilated(t, s) for t in f.terms), f.inner_cfg)


@dataclass(frozen=True)
class TestFunction:
    """The extremal family f(z) = (z + i*eps)^-(2/p + eps).

    Its modulus coincides with the modulus family at (lam, delta)
    = (p*eps, eps), and the phase factor conj(z+i*eps)/|z+i*eps| satisfies
    f = phase^(2/p+eps) * |f| pointwise.
    """

    # named like a test class: keeps pytest from collecting it where imported
    __test__ = False

    p: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")

    @property
    def exponent(self) -> float:
        return 2.0 / self.p + self.epsilon

    def __call__(self, z):
        return self.as_function()(z)

    def phase(self, z):
        """Unit-modulus factor conj(z + i*eps)/|z + i*eps|, argument in (-pi, 0)."""
        w = np.asarray(_as_z(z), dtype=complex) + 1j * self.epsilon
        out = np.conj(w) / np.abs(w)
        return out if np.ndim(out) else complex(out)

    def modulus(self) -> "ModulusFunction":
        return ModulusFunction(self.p * self.epsilon, self.epsilon, self.p)

    def as_function(self) -> HalfPlaneFunction:
        return rational_power(self.epsilon, self.exponent)


@dataclass(frozen=True)
class ModulusFunction:
    """The positive family g(z) = |z + i*delta|^-(2+lam)/p with closed-form
    norm bounds."""

    lam: float
    delta: float
    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < math.inf and 0.0 < self.delta < math.inf):
            raise ValueError(f"lam and delta must be positive and finite, got "
                             f"{self.lam!r} and {self.delta!r}")
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"p must be >= 1 and finite, got {self.p!r}")

    @property
    def exponent(self) -> float:
        return (2.0 + self.lam) / self.p

    def __call__(self, z):
        return self.as_function()(z)

    def norm_bounds(self) -> tuple[float, float]:
        """Closed-form sandwich for the p-th power of the Bergman norm:
        (1/2)^(2+lam)/(lam*delta^lam) <= ||g||_p^p <= 2^((2+lam)/2)/(lam*delta^lam)."""
        scale = 1.0 / (self.lam * self.delta**self.lam)
        lower = 0.5 ** (2.0 + self.lam) * scale
        upper = 2.0 ** ((2.0 + self.lam) / 2.0) * scale
        return lower, upper

    def as_function(self) -> HalfPlaneFunction:
        return HalfPlaneFunction((Term(1.0, UNIT, "gmod", self.delta, self.exponent),))


def sector_for_case(case: str, theta0: float | None = None) -> Sector:
    """The sector on which each case inequality is stated."""
    if case == "I":
        return Sector(0.0, math.pi / 2.0, lo_open=True)
    if case == "II":
        return Sector(math.pi / 4.0, math.pi / 2.0)
    if case == "III":
        if theta0 is None:
            raise ParameterOutOfRange("case III needs theta0")
        return Sector(math.pi / 2.0, math.pi / 2.0 + theta0)
    raise ParameterOutOfRange(f"unknown case {case!r}")


def _check_case_hypotheses(case: str, p: float, eps: float,
                           theta0: float | None) -> None:
    s = 2.0 / p + eps
    if case == "I":
        if not (p > 2 and s <= 1.0):
            raise ParameterOutOfRange(
                f"case I needs p > 2 and 2/p + eps <= 1, got p={p}, eps={eps}"
            )
    elif case == "II":
        if not (1.0 < p <= 2.0 and 1.0 < s < 2.0):
            raise ParameterOutOfRange(
                f"case II needs 1 < p <= 2 and 1 < 2/p + eps < 2, got p={p}, eps={eps}"
            )
    elif case == "III":
        if theta0 is None or not (0.0 < theta0 < math.pi / 16.0):
            raise ParameterOutOfRange("case III needs 0 < theta0 < pi/16")
        if not (p == 1.0 and (2.0 + eps) * (math.pi / 2.0 + theta0) < 5.0 * math.pi / 4.0):
            raise ParameterOutOfRange(
                f"case III needs p = 1 and (2+eps)(pi/2+theta0) < 5pi/4, got "
                f"p={p}, eps={eps}, theta0={theta0}"
            )
    else:
        raise ParameterOutOfRange(f"unknown case {case!r}")


def case_constant(p: float, eps: float) -> float:
    """The case II comparison constant min(sin(a*pi/2), sqrt(2)/2), with a
    the midpoint of the admissible interval (2/p + eps, 2)."""
    a = (2.0 / p + eps + 2.0) / 2.0
    return min(math.sin(a * math.pi / 2.0), math.sqrt(2.0) / 2.0)


_SECTOR_TIE = 1e-14  # ties of a sector inequality within it count as holding
_SECTOR_LOG_RADII = (0.0, math.log(1e3))  # sample_sector's radii lie in [1, 1e3]


def check_sector_inequality(case: str, tf: TestFunction, z,
                            theta0: float | None = None):
    """Evaluate the case inequality between the real/imaginary parts of the
    test function and its phase factor at z (vectorized).

    Case I:   |Re f| >= |Re phase| |f|          on the open-left quarter sector
    Case II:  |Im f| >  C(p) |Im phase| |f|     on [pi/4, pi/2]
    Case III: |Re f| >  |Re phase| |f|          on [pi/2, pi/2 + theta0]

    Ties within _SECTOR_TIE count as holding; raises ParameterOutOfRange when
    the case hypotheses on (p, eps, theta0) fail.
    """
    _check_case_hypotheses(case, tf.p, tf.epsilon, theta0)
    zz = np.asarray(_as_z(z), dtype=complex)
    f = np.asarray(tf(zz))
    ph = np.asarray(tf.phase(zz))
    mod = np.abs(f)
    if case == "I":
        ok = np.abs(f.real) >= np.abs(ph.real) * mod - _SECTOR_TIE
    elif case == "II":
        ok = np.abs(f.imag) > case_constant(tf.p, tf.epsilon) * np.abs(ph.imag) * mod - _SECTOR_TIE
    else:
        ok = np.abs(f.real) > np.abs(ph.real) * mod - _SECTOR_TIE
    return bool(ok) if np.ndim(ok) == 0 else ok


def sample_sector(sector: Sector, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random points of the sector: log-uniform radius, uniform angle.

    Closed angular endpoints contribute explicit boundary rays so that
    boundary behaviour is always exercised.
    """
    r = np.exp(rng.uniform(*_SECTOR_LOG_RADII, size=n))
    ang = rng.uniform(sector.arg_lo, sector.arg_hi, size=n)
    z = r * np.exp(1j * ang)
    extras = []
    n_edge = max(4, n // 1000)
    radii = np.exp(np.linspace(*_SECTOR_LOG_RADII, n_edge))
    if not sector.lo_open:
        extras.append(radii * np.exp(1j * sector.arg_lo))
    if not sector.hi_open:
        extras.append(radii * np.exp(1j * sector.arg_hi))
    if extras:
        z = np.concatenate([z] + extras)
    return z


_SPEC_KEYS = {
    "test": ("p", "eps"),
    "gmod": ("lambda", "delta", "p"),
    "ratpow": ("shift", "exp"),
}


def parse_function_spec(spec: str) -> HalfPlaneFunction:
    """Build a function family from its command-line name.

    Recognized forms: "test:p=<p>,eps=<eps>", "gmod:lambda=<l>,delta=<d>,p=<p>"
    and "ratpow:shift=<d>,exp=<s>" for (z + i*d)^-s.
    """
    try:
        if not isinstance(spec, str):
            raise TypeError(spec)
        name, _, args = spec.partition(":")
        kv = {}
        for part in args.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key in kv:  # a repeated key
                raise KeyError(key)
            kv[key] = float(val)
        if set(kv) != set(_SPEC_KEYS[name]):
            raise KeyError(name)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"bad function spec {spec!r}; expected one of "
            '"test:p=..,eps=..", "gmod:lambda=..,delta=..,p=..", '
            '"ratpow:shift=..,exp=.."'
        ) from exc
    if name == "test":
        return TestFunction(kv["p"], kv["eps"]).as_function()
    if name == "gmod":
        return ModulusFunction(kv["lambda"], kv["delta"], kv["p"]).as_function()
    return rational_power(kv["shift"], kv["exp"])
