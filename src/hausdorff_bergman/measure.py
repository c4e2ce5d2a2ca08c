"""Positive sigma-finite measures on (0, inf).

A measure is a finite list of weighted atoms plus absolutely continuous
density segments.  Segments that touch 0 or infinity must declare endpoint
exponents (density ~ c * t^a near the endpoint); convergence of improper
moment integrals is decided from the exponents alone, never by numeric
extrapolation.  One routine integrates against a measure (integrate): the
moments, and the point values of the operator's images (halfplane.py),
which integrate the values of a function at the dilated points.
"""

from __future__ import annotations

import ast
import json
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DivergentIntegral, MissingExponentMetadata
from .quadrature import IntegralResult, QuadratureConfig, _integrate

__all__ = [
    "Atom",
    "DensitySegment",
    "Measure",
    "Boundedness",
    "integrate",
    "moment",
    "theoretical_norm",
    "truncate",
    "restrict",
    "pushforward_inverse",
    "classify_boundedness",
    "measure_from_json",
    "measure_to_json",
    "load_measure",
    "dump_measure",
]


@dataclass(frozen=True)
class Atom:
    """A point mass: weight at location (location > 0, weight >= 0)."""

    location: float
    weight: float

    def __post_init__(self) -> None:
        if not (self.location > 0):
            raise ValueError(f"atom location must be > 0, got {self.location}")
        if not (self.weight >= 0):
            raise ValueError(f"atom weight must be >= 0, got {self.weight}")


_SLOPE_TOL = 0.25  # a finite endpoint exponent against the density's log-slope
_TINY = np.finfo(float).tiny

# density kinds, the only description of a segment's density and the form
# it is serialized in: ("const", [c]) -> c, ("power", [c, a]) -> c*t^a,
# ("exp", [c, b]) -> c*exp(-b*t), ("expr", [source]) -> arithmetic expression
# in t over the names below
DensitySpec = tuple[str, tuple]
_ARITY = {"const": 1, "power": 2, "exp": 2}  # the kinds whose params are numbers

_EXPR_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "abs": np.abs,
}
_EXPR_CONSTANTS = {"pi": math.pi, "e": math.e}
_EXPR_NAMES = {**_EXPR_FUNCTIONS, **_EXPR_CONSTANTS}
_EXPR_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                   ast.Div: operator.truediv, ast.Pow: operator.pow,
                   ast.UAdd: operator.pos, ast.USub: operator.neg}


def _check_expr(node: ast.AST) -> float | None:
    """Raise ValueError unless node is arithmetic on numbers, t, the listed
    constants and calls of the listed functions.  A density expression comes
    from measure JSON, which is untrusted: nothing else may run.

    Returns the value of a constant node, computed in doubles, or None for a
    node that depends on t or calls a function.  A constant that is not a
    finite double (9**9**9, 1/0) is refused: evaluated with Python integers
    at every density call, it could take unbounded time and memory."""
    if isinstance(node, ast.Expression):
        return _check_expr(node.body)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
        args = (_check_expr(node.left), _check_expr(node.right))
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPERATORS:
        args = (_check_expr(node.operand),)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        args = None
    elif isinstance(node, ast.Name) and (node.id == "t" or node.id in _EXPR_CONSTANTS):
        return _EXPR_CONSTANTS.get(node.id)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS and not node.keywords):
        for arg in node.args:
            _check_expr(arg)
        return None
    else:
        raise ValueError(f"density expression may use only arithmetic, numbers, t, "
                         f"{', '.join(_EXPR_NAMES)}; found {type(node).__name__} "
                         f"{ast.unparse(node)[:40]!r}")
    if args is not None and None in args:
        return None
    try:
        value = (float(node.value) if args is None
                 else _EXPR_OPERATORS[type(node.op)](*args))
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not (isinstance(value, float) and math.isfinite(value)):
        raise ValueError(f"density expression constant {ast.unparse(node)[:40]!r} "
                         "is not a finite real double")
    return value


def _density_from_spec(spec: DensitySpec) -> Callable:
    kind, params = spec
    if kind == "const":
        (c,) = map(float, params)
        return lambda t: np.full_like(np.asarray(t, dtype=float), c)
    if kind == "power":
        c, a = map(float, params)
        return lambda t: c * np.asarray(t, dtype=float) ** a
    if kind == "exp":
        c, b = map(float, params)
        return lambda t: c * np.exp(-b * np.asarray(t, dtype=float))
    if kind == "expr":
        code = compile(_parsed_expr(params), "<density-expr>", "eval")

        def f(t):
            return np.asarray(
                eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "t": np.asarray(t)}),
                dtype=float,
            )

        return f
    raise ValueError(f"unknown density kind {kind!r}")


def _parsed_expr(params) -> ast.Expression:
    """The checked tree of an expr density's source (see _check_expr)."""
    (source,) = params
    if not isinstance(source, str):
        raise ValueError(f"density expression must be a string, got {source!r}")
    try:
        tree = ast.parse(source, mode="eval")
        _check_expr(tree)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValueError(f"density expression {source[:40]!r} does not parse: "
                         f"{type(exc).__name__}") from None
    return tree


@dataclass(frozen=True)
class DensitySegment:
    """An absolutely continuous piece: the density given by spec on
    (lower, upper).

    A segment is its spec (see DensitySpec): segments compare and hash by
    endpoints, spec and exponents, and density, the callable built from the
    spec, counts for neither.  lower may be 0 and upper may be inf; in those
    cases exp_lo / exp_hi must describe the endpoint behaviour
    density(t) ~ c * t^exponent (exp_hi = -inf marks faster-than-any-power
    decay).  Every constructor checks the endpoints and the params of a
    const, power or exp density (__post_init__); from_spec, the validating
    constructor for outside input, also samples an expr density for its
    sign and checks the declared exponents against the density.  density is
    an init field only so that a wrapper of the built callable (a tracing
    one, say) can be put in with dataclasses.replace; when none is passed
    it is built from the spec.
    """

    lower: float
    upper: float
    spec: DensitySpec
    exp_lo: float | None = None
    exp_hi: float | None = None
    density: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        """The cheap checks, made by every constructor: the endpoints, and
        the params of a const, power or exp density, which must be finite
        numbers of the kind's arity (stored as floats) with a coefficient
        >= 0.  The params are stored as a tuple."""
        if self.lower < 0:
            raise ValueError("segment lower endpoint must be >= 0")
        if not (self.lower < self.upper):
            raise ValueError("segment needs lower < upper")
        kind, params = self.spec
        values = tuple(params)
        if kind in _ARITY:
            values = tuple(float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool)
                           else math.nan for x in values)
            if len(values) != _ARITY[kind] or not all(map(math.isfinite, values)):
                raise ValueError(f"density {kind} needs {_ARITY[kind]} finite number(s) "
                                 f"as params, got {list(params)!r}")
            if values[0] < 0.0:
                raise ValueError(f"density {kind} {list(params)!r} on "
                                 f"({self.lower}, {self.upper}) takes negative values")
        object.__setattr__(self, "spec", (kind, values))
        if self.density is None:
            object.__setattr__(self, "density", _density_from_spec(self.spec))

    @classmethod
    def from_spec(cls, lower: float, upper: float, spec: DensitySpec,
                  exp_lo: float | None = None,
                  exp_hi: float | None = None) -> "DensitySegment":
        """The validating constructor: on top of the checks every
        constructor makes (__post_init__), an expr density may not be
        negative, and the declared exponents must match the density."""
        seg = cls(lower, upper, spec, exp_lo, exp_hi)
        if seg.spec[0] == "expr":
            seg._check_expr_nonnegative()
        seg._check_exponents()
        return seg

    def _check_expr_nonnegative(self) -> None:
        """Raise ValueError if an expr density takes negative values at 16
        nodes spread in log t over the segment."""
        lo = self.lower if self.lower > 0.0 else min(1.0, self.upper) * 1e-6
        hi = self.upper if math.isfinite(self.upper) else max(1.0, self.lower) * 1e6
        with np.errstate(all="ignore"):
            ok = bool(np.all(self.density(np.geomspace(lo, hi, 18)[1:-1]) >= 0.0))
        if not ok:
            raise ValueError(f"density expr {list(self.spec[1])!r} on "
                             f"({self.lower}, {self.upper}) takes negative values")

    def _check_exponents(self) -> None:
        """Raise ValueError if a declared endpoint exponent contradicts the
        density.  Towards the endpoint the density is sampled at log-steps
        of 4, from e^8 to e^40 times the segment's scale there (1, or its
        other endpoint if nearer), and its log-slope d log(density) / d log t
        read between neighbours.  A finite exponent must match the farthest
        slope within _SLOPE_TOL, and the density may not vanish where t^a is
        still a normal double.  An infinite one (faster than any power) needs
        slopes that keep moving towards it, by 1 or more over the samples,
        or, where fewer than two slopes are finite, a density that leaves the
        doubles (0 or inf) on the way."""
        for name, exponent, touches, scale, sign in (
                ("exp_lo", self.exp_lo, self.touches_zero, min(1.0, self.upper), -1.0),
                ("exp_hi", self.exp_hi, self.touches_infinity, max(1.0, self.lower), 1.0)):
            if exponent is None or not touches:
                continue
            log_t = math.log(scale) + sign * np.arange(8.0, 41.0, 4.0)
            with np.errstate(all="ignore"):
                log_d = np.log(np.asarray(self.density(np.exp(log_t)), dtype=float))
                slopes = np.diff(log_d) / np.diff(log_t)
            slopes = slopes[np.isfinite(log_d[1:]) & np.isfinite(log_d[:-1])]
            if math.isfinite(exponent):
                vanished = np.isneginf(log_d) & (exponent * log_t > math.log(_TINY))
                ok = not vanished.any() and (
                    not slopes.size or abs(slopes[-1] - exponent) <= _SLOPE_TOL)
            elif slopes.size > 1:
                ok = (slopes[-1] - slopes[0]) * math.copysign(1.0, exponent) >= 1.0
            else:
                ok = bool(np.isinf(log_d).any())
            if not ok:
                seen = f"{slopes[-1]:.3g}" if slopes.size else "not finite"
                raise ValueError(
                    f"{name} = {_num_to_json(exponent)} contradicts the density "
                    f"{self.spec[0]} {list(self.spec[1])!r} on ({self.lower}, {self.upper}): "
                    f"its log-slope towards {'0' if sign < 0 else 'infinity'} is {seen}")

    @property
    def touches_zero(self) -> bool:
        return self.lower == 0.0

    @property
    def touches_infinity(self) -> bool:
        return math.isinf(self.upper)

    def require_exponents(self) -> None:
        if self.touches_zero and self.exp_lo is None:
            raise MissingExponentMetadata(
                "segment touches 0 without a lower endpoint exponent"
            )
        if self.touches_infinity and self.exp_hi is None:
            raise MissingExponentMetadata(
                "segment touches infinity without an upper endpoint exponent"
            )


@dataclass(frozen=True)
class Measure:
    """Atoms plus density segments; immutable and freely shareable."""

    atoms: tuple[Atom, ...] = ()
    segments: tuple[DensitySegment, ...] = ()

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        segments = tuple(self.segments)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", segments)
        locs = [a.location for a in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")

    @classmethod
    def from_atoms(cls, *pairs: tuple[float, float]) -> "Measure":
        return cls(atoms=tuple(Atom(t, w) for t, w in pairs))

    @property
    def is_zero(self) -> bool:
        return not self.atoms and not self.segments

    def support_infimum(self) -> float:
        """Infimum of the support (inf for the zero measure)."""
        lows = [a.location for a in self.atoms] + [s.lower for s in self.segments]
        return min(lows) if lows else math.inf

    def support_supremum(self) -> float:
        highs = [a.location for a in self.atoms] + [s.upper for s in self.segments]
        return max(highs) if highs else 0.0


class Boundedness(Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _segment_diverges(seg: DensitySegment, alpha: float) -> bool:
    """Divergence of integral t^alpha * density over seg, from exponents.

    Requires exponents present for improper endpoints (caller checks).
    Near 0 the integrand behaves like t^(alpha + exp_lo): divergent iff the
    combined exponent is <= -1.  Near infinity: divergent iff >= -1.
    """
    if seg.touches_zero and alpha + seg.exp_lo <= -1.0:
        return True
    if seg.touches_infinity and alpha + seg.exp_hi >= -1.0:
        return True
    return False


def integrate(mu: Measure, k: float, cfg: QuadratureConfig | None = None,
              values: Callable | None = None) -> IntegralResult:
    """The integral of t^k values(t) against mu (values(t) = 1 if None),
    with its error and its segments' subdivisions.

    values maps a 1-D array of nodes t to an array of shape (len(t), n):
    the atoms' locations, in one call, and each segment's quadrature nodes.
    Atoms are summed exactly.  Each density segment is one quadrature whose
    integrand scales the values by one real column: t^k times the density,
    or c t^(k + a) for a power density c t^a, fused so that it cannot
    overflow at extreme t where the separate factors would, times the
    Jacobian of the segment's substitution, if any (quadrature._integrate).
    Raises DivergentIntegral when a tail keeps contributing up to the
    representable limit, and QuadratureFailure when a segment cannot reach
    tolerance otherwise."""
    cfg = cfg or QuadratureConfig()
    total, err, subdivisions = 0.0, 0.0, 0
    if mu.atoms:
        locs = np.array([a.location for a in mu.atoms])
        col = np.array([a.weight for a in mu.atoms]) * locs ** k
        if values is None:
            total = float(np.sum(col))
        else:
            for c, v in zip(col, values(locs)):
                total = total + c * v
    for seg in mu.segments:

        def integrand(t, jac, seg=seg):
            t = np.asarray(t, dtype=float)
            kind, params = seg.spec
            if kind == "power":
                col = params[0] * t ** (k + params[1])
            else:
                col = t ** k * np.asarray(seg.density(t), dtype=float)
            if jac is not None:
                col = col * jac
            return col if values is None else values(t) * col[:, None]

        res = _integrate(integrand, seg.lower, seg.upper, cfg)
        if not res.converged:
            what = f"integral of t^{k:g} against the segment [{seg.lower}, {seg.upper}]"
            if res.failure_reason == "tail":
                raise DivergentIntegral(f"{what}: tail fails to converge numerically")
            res.require_converged(what)
        total = total + res.value
        err += res.error_estimate
        subdivisions += res.subdivisions_used
    return IntegralResult(total, err, subdivisions, True)


def moment(mu: Measure, alpha: float, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """The moment integral of t^alpha against mu (integrate); value inf
    (error 0, converged) when endpoint exponents prove divergence.  Raises
    MissingExponentMetadata when a segment touches an improper endpoint
    without metadata, and what integrate raises when the numeric part
    cannot reach tolerance.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    for seg in mu.segments:
        seg.require_exponents()
    for seg in mu.segments:
        if _segment_diverges(seg, alpha):
            return IntegralResult(math.inf, 0.0, 0, True)
    return integrate(mu, alpha, cfg)


def theoretical_norm(mu: Measure, p: float,
                     cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Operator norm of the dilation average on the p-Bergman space:
    the moment of t^(2/p - 1); infinite iff the operator is unbounded."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p!r}")
    return moment(mu, 2.0 / p - 1.0, cfg)


def restrict(mu: Measure, lo: float, hi: float) -> Measure:
    """Restriction of mu to the closed window [lo, hi]."""
    atoms = tuple(a for a in mu.atoms if lo <= a.location <= hi)
    segments = []
    for seg in mu.segments:
        new_lo = max(seg.lower, lo)
        new_hi = min(seg.upper, hi)
        if new_lo >= new_hi:
            continue
        # clipped segments have proper endpoints, exponents no longer needed
        segments.append(replace(
            seg, lower=new_lo, upper=new_hi,
            exp_lo=seg.exp_lo if new_lo == seg.lower else None,
            exp_hi=seg.exp_hi if new_hi == seg.upper else None))
    return Measure(atoms=atoms, segments=tuple(segments))


def truncate(mu: Measure, delta: float) -> Measure:
    """Restriction of mu to [delta, 1/delta] (both endpoints included)."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return restrict(mu, delta, 1.0 / delta)


class _Invert(ast.NodeTransformer):
    """Replaces every t of a density expression with (1/t)."""

    def visit_Name(self, node: ast.Name) -> ast.AST:
        return ast.parse("1/t", mode="eval").body if node.id == "t" else node


def _pushforward_spec(spec: DensitySpec) -> DensitySpec:
    """The spec of u(1/t)/t^2, u the density of spec."""
    kind, params = spec
    if kind == "const":
        (c,) = params
        return ("power", (float(c), -2.0))
    if kind == "power":
        c, a = params
        return ("power", (float(c), -float(a) - 2.0))
    if kind == "exp":
        c, b = params
        return ("expr", (f"({float(c)!r})*exp(-({float(b)!r})/t)*t**-2.0",))
    body = _Invert().visit(_parsed_expr(params)).body
    return ("expr", (f"({ast.unparse(body)})*t**-2.0",))


def pushforward_inverse(mu: Measure) -> Measure:
    """Image of mu under t -> 1/t.

    Atoms move from s to 1/s with unchanged weight; a segment [a, b] with
    density u becomes [1/b, 1/a] with density t -> u(1/t)/t^2, given by its
    spec (_pushforward_spec), and endpoint exponents swap roles via
    a -> -a - 2.
    """
    atoms = tuple(Atom(1.0 / a.location, a.weight) for a in mu.atoms)
    segments = tuple(
        DensitySegment(
            0.0 if math.isinf(seg.upper) else 1.0 / seg.upper,
            math.inf if seg.lower == 0.0 else 1.0 / seg.lower,
            _pushforward_spec(seg.spec),
            exp_lo=None if seg.exp_hi is None else -seg.exp_hi - 2.0,
            exp_hi=None if seg.exp_lo is None else -seg.exp_lo - 2.0,
        )
        for seg in mu.segments)
    return Measure(atoms=atoms, segments=segments)


def classify_boundedness(mu: Measure, p: float) -> Boundedness:
    """Decide boundedness of the dilation average on the p-Bergman space.

    Bounded iff the moment of t^(2/p - 1) is finite; decided symbolically
    from endpoint exponents (near 0 this needs exp_lo + 2/p > 0, near
    infinity exp_hi + 2/p < 0).  Missing metadata yields Inconclusive.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p!r}")
    alpha = 2.0 / p - 1.0
    verdict = Boundedness.BOUNDED
    for seg in mu.segments:
        if (seg.touches_zero and seg.exp_lo is None) or (
            seg.touches_infinity and seg.exp_hi is None
        ):
            verdict = Boundedness.INCONCLUSIVE
            continue
        if _segment_diverges(seg, alpha):
            return Boundedness.UNBOUNDED
    return verdict


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


def _num_to_json(x: float | None):
    """x, or "inf" / "-inf" for an infinity, which JSON cannot hold."""
    return str(x) if x is not None and math.isinf(x) else x


def _num_from_json(x):
    """A number, "inf" or "-inf" (see _num_to_json) as a float; None stays."""
    return None if x is None else float(x)


def measure_to_json(mu: Measure) -> dict:
    """JSON-ready dict."""
    segments = [{"lo": seg.lower, "hi": _num_to_json(seg.upper),
                 "density": {"kind": seg.spec[0], "params": list(seg.spec[1])},
                 "exp_lo": _num_to_json(seg.exp_lo), "exp_hi": _num_to_json(seg.exp_hi)}
                for seg in mu.segments]
    return {
        "schema_version": SCHEMA_VERSION,
        "atoms": [{"t": a.location, "w": a.weight} for a in mu.atoms],
        "segments": segments,
    }


def measure_from_json(doc: dict) -> Measure:
    if not isinstance(doc, dict):
        raise ValueError(f"a measure must be a JSON object, got {type(doc).__name__}")
    atoms = tuple(Atom(float(a["t"]), float(a["w"])) for a in doc.get("atoms", []))
    segments = []
    for s in doc.get("segments", []):
        dens = s["density"]
        spec = (str(dens["kind"]), tuple(dens["params"]))
        segments.append(
            DensitySegment.from_spec(
                float(s["lo"]),
                _num_from_json(s["hi"]),
                spec,
                exp_lo=_num_from_json(s.get("exp_lo")),
                exp_hi=_num_from_json(s.get("exp_hi")),
            )
        )
    return Measure(atoms=atoms, segments=tuple(segments))


def load_measure(path: str | Path) -> Measure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_json(json.load(fh))


def dump_measure(mu: Measure, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_json(mu), fh, indent=2)
        fh.write("\n")
