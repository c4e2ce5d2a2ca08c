"""Geometry and function families on the upper half-plane.

Complex powers are always taken through the principal logarithm (argument
in (-pi, pi]); no other branch is used anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterOutOfRange

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


def _as_z(z):
    """Accept complex scalars or array-likes of complex."""
    arr = np.asarray(z)
    return complex(arr) if arr.ndim == 0 else arr


def _principal_power(w, exponent: float):
    """w^exponent through the principal log, exp(exponent*(ln|w| + i*Arg w)).

    Non-finite inputs (from far-field overflow in z/t style arguments) map
    to the correct limit instead of NaN: 0 for negative exponents.
    """
    w = np.asarray(w, dtype=complex)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        out = np.exp(exponent * np.log(w))
        bad = ~np.isfinite(w.real) | ~np.isfinite(w.imag)
        if np.any(bad):
            if exponent < 0:
                fill = 0.0
            elif exponent == 0:
                fill = 1.0
            else:
                fill = math.inf
            out = np.where(bad, fill, out)
    return out


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
class HalfPlaneFunction:
    """An evaluable function on the upper half-plane.

    decay_hint = (power, shift) encodes |f(z)| <~ C * |z + i*shift|^-power
    at infinity and steers the half-plane lattice.  image_of, when set, is
    (operator, source): the function is the operator's image of the source,
    and Bergman norms and pairings are then computed from that structure
    (see logpolar.py) without calling the evaluator.
    """

    evaluator: Callable = field(compare=False)
    decay_hint: tuple[float, float]
    image_of: tuple[object, "HalfPlaneFunction"] | None = None

    def __call__(self, z):
        return self.evaluator(_as_z(z))

    def __add__(self, other: "HalfPlaneFunction") -> "HalfPlaneFunction":
        if not isinstance(other, HalfPlaneFunction):
            return NotImplemented
        p1, s1 = self.decay_hint
        p2, s2 = other.decay_hint
        f, g = self.evaluator, other.evaluator
        return HalfPlaneFunction(
            evaluator=lambda z: f(z) + g(z),
            decay_hint=(min(p1, p2), min(s1, s2)),
        )

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        f = self.evaluator
        image = None
        if self.image_of is not None:
            op, source = self.image_of
            image = (op, source * c)  # the operator is linear
        return HalfPlaneFunction(
            evaluator=lambda z: c * f(z),
            decay_hint=self.decay_hint,
            image_of=image,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "HalfPlaneFunction":
        return self * (-1.0)

    def __sub__(self, other: "HalfPlaneFunction") -> "HalfPlaneFunction":
        return self + (-other)


def rational_power(shift: float, exponent: float) -> HalfPlaneFunction:
    """The family (z + i*shift)^-exponent with shift > 0."""
    if shift <= 0:
        raise ValueError("shift must be positive")

    def ev(z):
        return _principal_power(np.asarray(z, dtype=complex) + 1j * shift, -exponent)

    return HalfPlaneFunction(ev, decay_hint=(exponent, shift))


def dilate(f: HalfPlaneFunction, s: float) -> HalfPlaneFunction:
    """z -> f(z/s); the Bergman p-norm scales by s^(2/p)."""
    if s <= 0:
        raise ValueError("dilation factor must be positive")
    power, shift = f.decay_hint
    ev = f.evaluator
    return HalfPlaneFunction(
        evaluator=lambda z: ev(np.asarray(z, dtype=complex) / s),
        decay_hint=(power, s * shift),
    )


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
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def exponent(self) -> float:
        return 2.0 / self.p + self.epsilon

    def __call__(self, z):
        w = np.asarray(_as_z(z), dtype=complex) + 1j * self.epsilon
        out = _principal_power(w, -self.exponent)
        return out if np.ndim(out) else complex(out)

    def phase(self, z):
        """Unit-modulus factor conj(z + i*eps)/|z + i*eps|, argument in (-pi, 0)."""
        w = np.asarray(_as_z(z), dtype=complex) + 1j * self.epsilon
        out = np.conj(w) / np.abs(w)
        return out if np.ndim(out) else complex(out)

    def modulus(self) -> "ModulusFunction":
        return ModulusFunction(self.p * self.epsilon, self.epsilon, self.p)

    def as_function(self) -> HalfPlaneFunction:
        return HalfPlaneFunction(
            evaluator=lambda z: self(z),
            decay_hint=(self.exponent, self.epsilon),
        )


@dataclass(frozen=True)
class ModulusFunction:
    """The positive family g(z) = |z + i*delta|^-(2+lam)/p with closed-form
    norm bounds."""

    lam: float
    delta: float
    p: float

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.delta <= 0:
            raise ValueError("lam and delta must be positive")
        if self.p < 1:
            raise ValueError("p must be >= 1")

    @property
    def exponent(self) -> float:
        return (2.0 + self.lam) / self.p

    def __call__(self, z):
        w = np.asarray(_as_z(z), dtype=complex) + 1j * self.delta
        out = np.abs(w) ** (-self.exponent)
        return out if np.ndim(out) else float(out)

    def norm_bounds(self) -> tuple[float, float]:
        """Closed-form sandwich for the p-th power of the Bergman norm:
        (1/2)^(2+lam)/(lam*delta^lam) <= ||g||_p^p <= 2^((2+lam)/2)/(lam*delta^lam)."""
        scale = 1.0 / (self.lam * self.delta**self.lam)
        lower = 0.5 ** (2.0 + self.lam) * scale
        upper = 2.0 ** ((2.0 + self.lam) / 2.0) * scale
        return lower, upper

    def as_function(self) -> HalfPlaneFunction:
        return HalfPlaneFunction(
            evaluator=lambda z: self(z),
            decay_hint=((2.0 + self.lam) / self.p, self.delta),
        )


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


def check_sector_inequality(case: str, tf: TestFunction, z,
                            theta0: float | None = None,
                            slack: float = 1e-14):
    """Evaluate the case inequality between the real/imaginary parts of the
    test function and its phase factor at z (vectorized).

    Case I:   |Re f| >= |Re phase| |f|          on the open-left quarter sector
    Case II:  |Im f| >  C(p) |Im phase| |f|     on [pi/4, pi/2]
    Case III: |Re f| >  |Re phase| |f|          on [pi/2, pi/2 + theta0]

    Ties within `slack` count as holding; raises ParameterOutOfRange when
    the case hypotheses on (p, eps, theta0) fail.
    """
    _check_case_hypotheses(case, tf.p, tf.epsilon, theta0)
    zz = np.asarray(_as_z(z), dtype=complex)
    f = np.asarray(tf(zz))
    ph = np.asarray(tf.phase(zz))
    mod = np.abs(f)
    if case == "I":
        ok = np.abs(f.real) >= np.abs(ph.real) * mod - slack
    elif case == "II":
        ok = np.abs(f.imag) > case_constant(tf.p, tf.epsilon) * np.abs(ph.imag) * mod - slack
    else:
        ok = np.abs(f.real) > np.abs(ph.real) * mod - slack
    return bool(ok) if np.ndim(ok) == 0 else ok


def sample_sector(sector: Sector, n: int, rng: np.random.Generator,
                  r_range: tuple[float, float] = (1.0, 1e3)) -> np.ndarray:
    """Random points of the sector: log-uniform radius, uniform angle.

    Closed angular endpoints contribute explicit boundary rays so that
    boundary behaviour is always exercised.
    """
    r = np.exp(rng.uniform(math.log(r_range[0]), math.log(r_range[1]), size=n))
    ang = rng.uniform(sector.arg_lo, sector.arg_hi, size=n)
    z = r * np.exp(1j * ang)
    extras = []
    n_edge = max(4, n // 1000)
    radii = np.exp(np.linspace(math.log(r_range[0]), math.log(r_range[1]), n_edge))
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
            kv[key.strip()] = float(val)
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
