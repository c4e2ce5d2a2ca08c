"""One-dimensional adaptive quadrature, and the entry points of the
half-plane norms and pairings.

A refinement pool of Kronrod panels integrates over finite,
half-infinite and (0, inf) intervals: each panel is evaluated by a
15-point Kronrod rule with the embedded 7-point Gauss estimate for the
local error, and the panel with the largest error is split in half first.
Improper endpoints are removed by the logarithmic substitutions t = a*e^u
(at infinity) and t = b*e^(-u) (at zero), after which the transformed
integrand decays exponentially for every integrand this package produces;
the half-line in u is swept in doubling blocks until the remainder is
negligible.

Panels are evaluated stacked: one integrand call takes the nodes of
several panels, and one batched reduction gives each panel's Kronrod
value and error.  A split's two children share a call, and the sweep
evaluates its next blocks ahead in one call, then takes them one at a time
through its stop rule, dropping those past the stop.  Stacking is capped at
_STACK entries (nodes x payload values), so a wide payload takes one panel
a call.  Each panel's numbers, and so every refinement decision, are those
of the panel evaluated alone.

Bergman norms and pairings over the upper half-plane (bergman_norm_p_power
and pairing check integrability) are computed by logpolar.integral on the
log-polar lattice, for operator images and plain functions alike.  Every
result follows one stop rule (IntegralResult).

All refinement decisions and accumulation orders are deterministic, so
repeated runs produce bitwise identical results.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DivergentIntegral, NonIntegrableAtInfinity, QuadratureFailure

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "integrate_segment",
    "bergman_norm_p",
    "bergman_norm_p_power",
    "pairing",
]

# 15-point Kronrod nodes on [-1, 1] (ascending); the embedded 7-point Gauss
# rule lives on the odd-indexed nodes.
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_XGK = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_GAUSS = slice(1, 15, 2)
_WG = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])

# log-substituted sweeps keep t within [e^-_U_CAP, e^_U_CAP], finite and
# nonzero in double precision
_U_CAP = 690.0
# minimum sweep extent before "two negligible blocks" may end a sweep that
# has not yet seen any mass
_U_MIN_EMPTY = 30.0
# widest sweep block: bounded strides keep a quiet-then-stop decision from
# sampling far beyond the representable range of the integrand
_U_BLOCK_MAX = 32.0
# sweep blocks evaluated ahead in one stacked call: after the first block
# (taken alone, as the payload's size is not yet known) six reach u = 64; a
# verify pass makes no fewer calls with more, only more dropped blocks
_LOOKAHEAD = 6
# entries per stacked temporary of one evaluation call (256 KiB of complex
# values): nodes x payload values of stacked panels here, so that a payload
# of more than 546 values takes one panel a call, and on the log-polar
# lattice a block's direct terms, where it sets how many shifts a call takes
_STACK = 1 << 14


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the integrators.

    max_subdivisions bounds the panel bisections of a one-dimensional
    integral; on the log-polar lattice it is a budget of 10,000 family
    evaluations per unit.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def tighter(self) -> "QuadratureConfig":
        """Derived config for inner (nested) quadratures: both tolerances a
        hundredth of these, floored at 1e-13 and 1e-15."""
        return replace(
            self,
            rel_tol=max(self.rel_tol * 1e-2, 1e-13),
            abs_tol=max(self.abs_tol * 1e-2, 1e-15),
        )

    def tolerance(self, scale: float) -> float:
        """The error allowed a value of magnitude scale."""
        return max(self.abs_tol, self.rel_tol * scale)


@dataclass
class IntegralResult:
    """Outcome of an integration.

    failure_reason is the one record of the stop: None when converged (a
    property, derived from it), else why refinement stopped, and the value
    is the last one completed (of the panels so far in one dimension, of the
    last completed lattice level): 'budget' (subdivision or evaluation
    budget spent) with that value's error, inf where it has none yet (a
    lattice run before its second level, a half-line sweep before its tail);
    'tail' (an improper tail, window edge or kernel end kept contributing up
    to the representable limit, or a sum was not finite) with error inf, as
    no finite error can be vouched for.  subdivisions_used counts what unit
    names: panel bisections ("subdivisions") in one dimension, completed
    refinement levels ("lattice levels") on the log-polar lattice.
    """

    value: complex | float
    error_estimate: float
    subdivisions_used: int
    failure_reason: str | None = None
    unit: str = "subdivisions"

    @property
    def converged(self) -> bool:
        return self.failure_reason is None

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        """Values, errors and counts added; stopped "tail" if either part
        did, else as the first part that stopped; in the left part's unit."""
        why = (self.failure_reason, other.failure_reason)
        return IntegralResult(self.value + other.value, self.error_estimate + other.error_estimate,
                              self.subdivisions_used + other.subdivisions_used,
                              "tail" if "tail" in why else why[0] or why[1], self.unit)

    def require_converged(self, what: str = "integral") -> "IntegralResult":
        """self if converged; else raises DivergentIntegral on a "tail" stop
        (on the lattice also an edge held open by rounding), else QuadratureFailure."""
        if self.failure_reason == "tail":
            raise DivergentIntegral(
                f"{what}: tail fails to converge numerically "
                f"(after {self.subdivisions_used} {self.unit})"
            )
        if not self.converged:
            raise QuadratureFailure(
                f"{what} did not converge (reason: {self.failure_reason}, "
                f"error~{self.error_estimate:.3g} after "
                f"{self.subdivisions_used} {self.unit})"
            )
        return self


def _sup(x) -> float:
    # np.abs(x).max(): np.asarray and np.max's dispatch cost more than the
    # reduction itself on the scalars and panel values the pool passes
    return float(np.abs(x).max(initial=0.0))


def _tol_scale(x) -> float:
    """Magnitude entering relative-tolerance targets; a non-finite running
    sum must never inflate the target into a vacuous 'inf <= inf' pass."""
    s = _sup(x)
    return s if math.isfinite(s) else 0.0


def _nodes_dot(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i w[i] * v[i] over the leading (node) axis of v.

    Computed as a one-row real matrix product (a complex payload viewed as
    pairs of reals).  On complex payloads of a thousand values np.tensordot,
    and a matrix-vector product as well, wake the BLAS thread pool and spend
    about twice their wall time in CPU; this form stays on one thread and is
    no slower."""
    flat = np.ascontiguousarray(v).reshape(len(w), -1)
    cplx = np.iscomplexobj(flat)
    out = (w[None, :] @ (flat.view(float) if cplx else flat))[0]
    return (out.view(complex) if cplx else out).reshape(np.shape(v)[1:])


def _gk_panels(f, edges):
    """Kronrod/Gauss evaluation of the M panels edges = [(lo, hi), ...] in
    one call of f.

    f maps a node array (15 M,) to values of shape (15 M, ...); returns the
    Kronrod estimates, shape (M, ...), and each panel's error in sup norm, a
    list of M floats.  Every sum over nodes is one batched matrix product
    over the stack (M, 15, n) of the panels' values (a complex payload viewed
    as pairs of reals), which runs each panel's product as _nodes_dot runs
    it alone, on one thread.
    """
    ends = np.array(edges, dtype=float)
    lo, hi = ends[:, :1], ends[:, 1:]
    m = len(ends)
    width = hi - lo
    h = 0.5 * width
    x = 0.5 * (lo + hi) + h * _XGK

    def dot(w, vals):
        cplx = np.iscomplexobj(vals)
        out = w @ (vals.view(float) if cplx else vals)
        return out.view(complex) if cplx else out

    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        v = np.asarray(f(x.ravel()))
        payload = v.shape[1:]
        v = np.ascontiguousarray(v).reshape(m, 15, -1)
        k = h * dot(_WGK, v)
        # a contiguous copy: BLAS rounds a strided stack differently
        g = h * dot(_WG, np.ascontiguousarray(v[:, _GAUSS]))
        raw = np.abs(k - g)
        # QUADPACK-style sharpening keeps the estimate meaningful when the
        # integrand is rough on the panel.
        mean = k / width
        resasc = h * dot(_WGK, np.abs(v - mean[:, None]))
        err = np.where(
            resasc > 0.0,
            resasc
            * np.minimum(
                1.0, (200.0 * raw / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5
            ),
            raw,
        )
    esup = err.max(axis=1, initial=0.0)
    esup[~np.isfinite(k).all(axis=1)] = math.inf
    return k.reshape((m,) + payload), esup.tolist()


class _Pool:
    """Global worst-panel-first refinement of one integrand over Kronrod
    panels; splitting halves a panel, and a split's two children are
    evaluated in one stacked call.  Running sums are maintained
    incrementally, where a non-finite panel may make inf - inf: the pool's
    user (_integrate) runs it under one np.errstate for that.  The final
    value is re-summed over the surviving panels in a deterministic order.
    """

    def __init__(self, cfg: QuadratureConfig, g: Callable):
        self.cfg, self.g = cfg, g
        self._heap: list[tuple[float, int, tuple[float, float], object]] = []
        self._final: list[object] = []
        self._counter = 0
        # panels per stacked call: one until the payload's size is known
        self.width = 1
        # running sum: a Python scalar for scalar payloads, an array for
        # vector ones
        self.value = 0.0
        self._err_sum = 0.0
        self.reserved_error = 0.0
        self.subdivisions = 0
        self.exhausted = False

    def evaluate(self, edges: list) -> list[tuple[tuple[float, float], object, float]]:
        """((lo, hi), Kronrod value, error) of each panel of edges, a list
        of (lo, hi), in stacked calls of at most width panels each."""
        out = []
        for i in range(0, len(edges), self.width):
            chunk = edges[i:i + self.width]
            k, err = _gk_panels(self.g, chunk)
            out += zip(chunk, k, err)
            self.width = max(1, _STACK // (15 * (k[0].size or 1)))
        return out

    def push(self, edge: tuple[float, float], k, err: float) -> None:
        self.value = self.value + k
        self._err_sum += err
        heapq.heappush(self._heap, (-err, self._counter, edge, k))
        self._counter += 1

    @property
    def error(self) -> float:
        return max(self._err_sum, 0.0)

    def _target(self) -> float:
        raw = self.cfg.tolerance(_tol_scale(self.value))
        return max(raw - self.reserved_error, raw * 0.25)

    def refine(self) -> None:
        """Refine until converged or the subdivision budget is spent."""
        while self._err_sum > self._target() and self._heap:
            neg_err, _, (lo, hi), k = self._heap[0]
            err = -neg_err
            if err <= 0.0 or hi - lo <= 1e-14 * max(abs(lo), abs(hi), 1.0):
                heapq.heappop(self._heap)
                self._final.append(k)
                continue
            if self.subdivisions >= self.cfg.max_subdivisions:
                self.exhausted = True
                return
            heapq.heappop(self._heap)
            self.value = self.value - k
            self._err_sum -= err
            mid = 0.5 * (lo + hi)
            for panel in self.evaluate([(lo, mid), (mid, hi)]):
                self.push(*panel)
            self.subdivisions += 1

    def final_value(self):
        """Deterministic fixed-order pairwise re-summation of all panels."""
        vals = [entry[-1] for entry in self._heap] + self._final
        if not vals:
            return 0.0
        return np.sum(np.array(vals), axis=0)


def _as_scalar(value):
    if np.ndim(value) == 0:
        return complex(value) if np.iscomplexobj(np.asarray(value)) else float(value)
    return value


def _blocks(u_cap: float):
    """The sweep's doubling blocks [0,1], [1,2], [2,4], ..., of width at
    most _U_BLOCK_MAX, the last one ending at u_cap."""
    lo, width = 0.0, 1.0
    while True:
        hi = min(lo + width, u_cap)
        yield lo, hi
        if hi >= u_cap:
            return
        lo, width = hi, min(width * 2.0, _U_BLOCK_MAX)


def _sweep(pool: _Pool, cfg: QuadratureConfig, u_cap: float) -> tuple[float, str | None]:
    """Integrate the pool's integrand over u in [0, inf) assuming eventual
    exponential decay.

    Doubling blocks (_blocks) feed the shared pool as one panel each; the
    sweep ends once two consecutive blocks are negligible (and either some
    mass has been seen or a minimum extent has been covered), or at u_cap.
    Blocks are evaluated _LOOKAHEAD at a time in one stacked call (at most
    the pool's width), then pushed one by one, each followed by the pool's
    refinement and the stop rule, so every decision is the one a sweep of
    single blocks takes; blocks evaluated past the stop are dropped.
    Returns the tail allowance and the failure reason (None, 'budget' or
    'tail'); a 'budget' stop leaves the tail unswept, so its allowance is
    inf (see IntegralResult).
    """
    blocks = _blocks(u_cap)
    quiet = 0
    prev_block = None
    while True:
        ahead = list(itertools.islice(blocks, min(pool.width, _LOOKAHEAD)))
        for edge, k, block_err in pool.evaluate(ahead):
            pool.push(edge, k, block_err)
            hi = edge[1]
            block = _sup(k)
            pool.refine()
            if pool.exhausted:
                return math.inf, "budget"
            size = block + block_err
            scale = _tol_scale(pool.value)
            stop_tol = cfg.tolerance(scale) / 8.0
            seen_mass = scale > 10.0 * cfg.abs_tol
            if size <= stop_tol and (seen_mass or hi >= _U_MIN_EMPTY):
                quiet += 1
                if quiet >= 2:
                    rho = min(size / prev_block, 0.9) if prev_block else 0.5
                    return size * rho / (1.0 - rho) + stop_tol, None
            else:
                quiet = 0
            prev_block = size
            if hi >= u_cap:
                # the sweep cannot extend further; only a block that still
                # carries mass makes this a genuine divergent-tail failure
                if size <= stop_tol:
                    return size + stop_tol, None
                return 0.0, "tail"


def _finish(pool: _Pool, cfg: QuadratureConfig, tail_rem: float = 0.0,
            reason: str | None = None) -> IntegralResult:
    """Reserve the tail allowance, refine, certify and report; a "tail"
    failure reports error inf (see IntegralResult)."""
    pool.reserved_error = tail_rem
    pool.refine()
    if reason is None and pool.exhausted:
        reason = "budget"
    total_err = math.inf if reason == "tail" else float(pool.error + tail_rem)
    # converged must certify the reported error against the raw tolerance
    val_sup = _sup(pool.value)
    ok = reason is None and math.isfinite(val_sup) and total_err <= cfg.tolerance(val_sup)
    return IntegralResult(_as_scalar(pool.final_value()), total_err, pool.subdivisions,
                          None if ok else reason or "budget")


def _jac_apply(f, t, jac):
    """f(t) with each node's values times jac (none on a finite segment)."""
    v = np.asarray(f(t))
    if jac is None:
        return v
    if v.ndim > 1:
        jac = jac.reshape((-1,) + (1,) * (v.ndim - 1))
    return v * jac


def integrate_segment(f, lo: float, hi: float,
                      cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate f over (lo, hi); hi may be inf and lo may be 0.

    f must accept a numpy array of abscissae and may return complex or
    vector values (leading axis = nodes).  Endpoints are never sampled, so
    integrable endpoint singularities are tolerated; improper endpoints go
    through the logarithmic substitutions described in the module docstring.
    """
    return _integrate(lambda t, jac: _jac_apply(f, t, jac), lo, hi, cfg)


def _integrate(f, lo: float, hi: float,
               cfg: QuadratureConfig | None = None) -> IntegralResult:
    """integrate_segment for an f(t, jac) that scales its values at the
    nodes t by the substitution's Jacobian jac, the real array dt/du at
    them (None on a finite segment, which takes no substitution), so that
    an integrand which scales its values anyway takes jac into that one
    product."""
    cfg = cfg or QuadratureConfig()
    if lo < 0:
        raise ValueError("integration domain must lie in [0, inf)")
    if not math.isinf(hi) and hi <= lo:
        raise ValueError("need lo < hi")

    if math.isinf(hi) and lo == 0.0:
        return _integrate(f, 0.0, 1.0, cfg) + _integrate(f, 1.0, math.inf, cfg)
    if not (math.isinf(hi) or lo == 0.0):
        with np.errstate(invalid="ignore"):
            pool = _Pool(cfg, lambda t: f(t, None))
            pool.push(*pool.evaluate([(lo, hi)])[0])
            return _finish(pool, cfg)
    # [a, inf) as t = a e^u, (0, b] as t = b e^-u, swept over u >= 0 while
    # t stays within [e^-_U_CAP, e^_U_CAP]
    anchor, sign = (lo, 1) if math.isinf(hi) else (hi, -1)
    u_cap = _U_CAP - max(0.0, sign * math.log(anchor))

    def g(u):
        t = anchor * np.exp(sign * u)
        return f(t, t)

    with np.errstate(invalid="ignore"):
        pool = _Pool(cfg, g)
        tail_rem, reason = _sweep(pool, cfg, u_cap)
        return _finish(pool, cfg, tail_rem, reason)


# ---------------------------------------------------------------------------
# norms and pairings over the upper half-plane
# ---------------------------------------------------------------------------


def bergman_norm_p_power(f, p: float,
                         cfg: QuadratureConfig | None = None) -> IntegralResult:
    """The p-th power of the Bergman norm: (1/pi) * integral of |f|^p dA.

    f is a HalfPlaneFunction, a sum of terms; its decay_hint = (power at
    infinity, reference shift) decides integrability: p * power must exceed
    2.  The norm is computed on the log-polar lattice of logpolar.py from
    f.sides, one per distinct measure among the terms, each from its plain
    source's log-space values, so that images and their sums, multiples
    and dilations never call a point evaluator.
    """
    cfg = cfg or QuadratureConfig()
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p!r}")
    power, _ = f.decay_hint
    if p * power <= 2.0:
        raise NonIntegrableAtInfinity(
            f"decay power {power} gives p*power = {p * power:.3g} <= 2; "
            "f is not in A^p"
        )
    # imported here: logpolar builds on this module
    from .logpolar import integral

    return integral([f], p, cfg)


def bergman_norm_p(f, p: float,
                   cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Bergman space norm ||f||_p = ((1/pi) * integral |f|^p dA)^(1/p).

    All internal work happens on the p-th power; the root is applied at
    the end and the error estimate is transformed accordingly.  A power
    that converged on abs_tol can leave the root's error above the root's
    own tolerance max(abs_tol, rel_tol * norm); the power then runs once
    more at the abs_tol that gives the root that tolerance, and a root
    still above it reports "budget".
    """
    cfg = cfg or QuadratureConfig()
    run_cfg = cfg
    for _ in range(2):
        res = bergman_norm_p_power(f, p, run_cfg)
        ival = max(float(np.real(res.value)), 0.0)
        norm = ival ** (1.0 / p)
        if ival > 0.0:  # relative error over p first: error * norm may overflow
            err = res.error_estimate / ival / p * norm
        else:
            err = res.error_estimate ** (1.0 / p)
        ok = res.converged and (norm == 0.0 or err <= cfg.tolerance(norm))
        if ok or not res.converged:
            break
        # d norm = d power / (p norm^(p-1)), and norm^(p-1) = power / norm
        abs_tol = p * (ival / norm) * cfg.tolerance(norm)
        run_cfg = replace(cfg, abs_tol=max(abs_tol, math.ulp(0.0)))
    return IntegralResult(norm, err, res.subdivisions_used,
                          None if ok else res.failure_reason or "budget", res.unit)


def pairing(f, g, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Duality pairing (1/pi) * integral of f * conj(g) over the half-plane,
    on the log-polar lattice; the value is complex."""
    cfg = cfg or QuadratureConfig()
    total_power = f.decay_hint[0] + g.decay_hint[0]
    if total_power <= 2.0:
        raise NonIntegrableAtInfinity(
            f"decay powers sum to {total_power:.3g} <= 2; pairing not integrable"
        )
    from .logpolar import integral

    return integral([f, g], 2.0, cfg)
