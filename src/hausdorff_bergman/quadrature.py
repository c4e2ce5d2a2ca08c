"""Adaptive quadrature engines.

One dimensional integration over finite, half-infinite and (0, inf)
intervals uses a globally adaptive 15-point Kronrod rule with the embedded
7-point Gauss estimate for the local error; the interval with the largest
error is bisected first.  Improper endpoints are removed by the logarithmic
substitutions t = a*e^u (at infinity) and t = b*e^(-u) (at zero), after
which the transformed integrand decays exponentially for every integrand
this package produces and the half-line is swept in doubling blocks until
the remainder is negligible.

Two dimensional integration over the upper half-plane works in polar
coordinates: a globally adaptive tensor Kronrod rule on (r, theta) panels
covers a core disk, and the far field is integrated in log-radius blocks.
Bergman norms of operator images (functions carrying image_of, as
hausdorff.as_function returns them) go instead to the log-polar engine in
logpolar.py, which exploits that the operator commutes with dilations.

All refinement decisions and accumulation orders are deterministic, so
repeated runs produce bitwise identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonIntegrableAtInfinity, QuadratureFailure

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
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])

# log-substituted sweeps stop here; e^u stays finite in double precision
_U_CAP = 690.0
# minimum sweep extent before "two negligible blocks" may end a sweep that
# has not yet seen any mass
_U_MIN_EMPTY = 30.0
# widest sweep block: bounded strides keep a quiet-then-stop decision from
# sampling far beyond the representable range of the integrand
_U_BLOCK_MAX = 32.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the adaptive integrators.

    halfplane_truncation_radius, when set, truncates the half-plane
    integrals at |z| = R instead of sweeping the far field numerically; the
    reported error then includes an analytic tail bound derived from the
    integrand's decay hint.  halfplane_inner_radius excludes a central disk.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    halfplane_truncation_radius: float | None = None
    halfplane_inner_radius: float = 0.0

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.halfplane_inner_radius < 0:
            raise ValueError("halfplane_inner_radius must be >= 0")

    def tighter(self, factor: float = 1e-2) -> "QuadratureConfig":
        """Derived config for inner (nested) quadratures."""
        return replace(
            self,
            rel_tol=max(self.rel_tol * factor, 1e-13),
            abs_tol=max(self.abs_tol * factor, 1e-15),
        )


@dataclass
class IntegralResult:
    """Outcome of an adaptive integration.

    failure_reason is None when converged, otherwise 'budget' (subdivision
    budget exhausted) or 'tail' (an improper tail kept contributing up to
    the representable sweep limit).  subdivisions_used counts panel
    bisections on the adaptive paths and refinement levels on the log-polar
    engine.
    """

    value: complex | float
    error_estimate: float
    subdivisions_used: int
    converged: bool
    failure_reason: str | None = None

    def require_converged(self, what: str = "integral") -> "IntegralResult":
        if not self.converged:
            raise QuadratureFailure(
                f"{what} did not converge (reason: {self.failure_reason}, "
                f"error~{self.error_estimate:.3g} after "
                f"{self.subdivisions_used} subdivisions)"
            )
        return self


def _sup(x) -> float:
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


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


def _gk_panel(f, a: float, b: float):
    """One Kronrod/Gauss evaluation on [a, b].

    f maps a node array (15,) to values of shape (15, ...); returns the
    Kronrod estimate (shape ...) and the panel error in sup norm.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _XGK
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        v = np.asarray(f(x))
        k = h * _nodes_dot(_WGK, v)
        g = h * _nodes_dot(_WG, v[_GAUSS_IDX])
        raw = np.abs(k - g)
        # QUADPACK-style sharpening keeps the estimate meaningful when the
        # integrand is rough on the panel.
        mean = k / (b - a)
        resasc = h * _nodes_dot(_WGK, np.abs(v - mean))
        err = np.where(
            resasc > 0.0,
            resasc
            * np.minimum(
                1.0, (200.0 * raw / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5
            ),
            raw,
        )
    esup = _sup(err)
    if not np.all(np.isfinite(np.atleast_1d(k))):
        esup = math.inf
    return k, esup


class _Pool1D:
    """Global worst-interval-first refinement over 1-D panels.

    Panels carry their own integrand, so log-substituted blocks mix freely
    with direct ones.  Running sums are maintained incrementally; the final
    value is re-summed over the surviving panels in a deterministic order.
    """

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._heap: list[tuple[float, int, float, float, Callable, object]] = []
        self._final: list[tuple[object, float]] = []
        self._counter = 0
        self._val_sum = None
        self._err_sum = 0.0
        self.reserved_error = 0.0
        self.subdivisions = 0
        self.exhausted = False

    def _acc(self, k, sign: float) -> None:
        if self._val_sum is None:
            self._val_sum = np.zeros_like(np.asarray(k, dtype=np.result_type(k, 1.0)))
        with np.errstate(invalid="ignore"):
            self._val_sum = self._val_sum + sign * np.asarray(k)

    def add(self, f: Callable, a: float, b: float) -> tuple[object, float]:
        k, esup = _gk_panel(f, a, b)
        self._acc(k, 1.0)
        self._err_sum += esup
        heapq.heappush(self._heap, (-esup, self._counter, a, b, f, k))
        self._counter += 1
        return k, esup

    @property
    def value(self):
        return 0.0 if self._val_sum is None else self._val_sum

    @property
    def error(self) -> float:
        return max(self._err_sum, 0.0)

    def _target(self) -> float:
        raw = max(self.cfg.abs_tol, self.cfg.rel_tol * _tol_scale(self.value))
        return max(raw - self.reserved_error, raw * 0.25)

    def refine(self) -> bool:
        """Refine until converged or budget spent; True iff converged."""
        while self._err_sum > self._target() and self._heap:
            neg_err, _, a, b, f, k = self._heap[0]
            esup = -neg_err
            width_floor = 1e-14 * max(abs(a), abs(b), 1.0)
            if esup <= 0.0 or (b - a) <= width_floor:
                heapq.heappop(self._heap)
                self._final.append((k, esup))
                continue
            if self.subdivisions >= self.cfg.max_subdivisions:
                self.exhausted = True
                return False
            heapq.heappop(self._heap)
            self._acc(k, -1.0)
            self._err_sum -= esup
            m = 0.5 * (a + b)
            self.add(f, a, m)
            self.add(f, m, b)
            self.subdivisions += 1
        return self._err_sum <= self._target()

    def final_value(self):
        """Deterministic fixed-order pairwise re-summation of all panels."""
        vals = [k for _, _, _, _, _, k in self._heap] + [k for k, _ in self._final]
        if not vals:
            return 0.0
        return np.sum(np.array(vals), axis=0)


def _as_scalar(value):
    if np.ndim(value) == 0:
        return complex(value) if np.iscomplexobj(np.asarray(value)) else float(value)
    return value


def _integrate_panels(panels, cfg: QuadratureConfig) -> IntegralResult:
    pool = _Pool1D(cfg)
    for f, a, b in panels:
        pool.add(f, a, b)
    ok = pool.refine()
    return IntegralResult(
        value=_as_scalar(pool.final_value()),
        error_estimate=pool.error,
        subdivisions_used=pool.subdivisions,
        converged=ok,
        failure_reason=None if ok else "budget",
    )


def _sweep_halfline(g, cfg: QuadratureConfig, u_cap: float) -> IntegralResult:
    """Integrate g over u in [0, inf) assuming eventual exponential decay.

    Doubling blocks [0,1], [1,2], [2,4], ... feed a single global pool; the
    sweep ends once two consecutive blocks are negligible (and either some
    mass has been seen or a minimum extent has been covered), or at u_cap.
    """
    pool = _Pool1D(cfg)
    lo, width = 0.0, 1.0
    quiet = 0
    tail_rem = 0.0
    prev_block = None
    reason = None
    while True:
        hi = min(lo + width, u_cap)
        k, esup = pool.add(g, lo, hi)
        pool.refine()
        if pool.exhausted:
            reason = "budget"
            break
        block_size = _sup(k) + esup
        stop_tol = max(cfg.abs_tol, cfg.rel_tol * _tol_scale(pool.value)) / 8.0
        seen_mass = _tol_scale(pool.value) > 10.0 * cfg.abs_tol
        if block_size <= stop_tol and (seen_mass or hi >= _U_MIN_EMPTY):
            quiet += 1
            if quiet >= 2:
                rho = 0.5
                if prev_block and prev_block > 0.0:
                    rho = min(block_size / prev_block, 0.9)
                tail_rem = block_size * rho / (1.0 - rho) + stop_tol
                break
        else:
            quiet = 0
        prev_block = block_size
        if hi >= u_cap:
            # the sweep cannot extend further; only a block that still
            # carries mass makes this a genuine divergent-tail failure
            if block_size <= stop_tol:
                tail_rem = block_size + stop_tol
            else:
                reason = "tail"
            break
        lo = hi
        width = min(width * 2.0, _U_BLOCK_MAX)
    pool.reserved_error = tail_rem
    pool.refine()
    if reason is None and pool.exhausted:
        reason = "budget"
    total_err = float(pool.error + tail_rem)
    # converged must certify the reported error against the raw tolerance
    val_sup = _sup(pool.value)
    ok = bool(reason is None and math.isfinite(val_sup) and total_err <= max(
        cfg.abs_tol, cfg.rel_tol * val_sup
    ))
    return IntegralResult(
        value=_as_scalar(pool.final_value()),
        error_estimate=total_err,
        subdivisions_used=pool.subdivisions,
        converged=ok,
        failure_reason=None if ok else reason or "budget",
    )


def _jac_apply(f, t, jac):
    v = np.asarray(f(t))
    if v.ndim > 1:
        jac = np.asarray(jac).reshape((-1,) + (1,) * (v.ndim - 1))
    return v * jac


def integrate_segment(f, lo: float, hi: float,
                      cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate f over (lo, hi); hi may be inf and lo may be 0.

    f must accept a numpy array of abscissae and may return complex or
    vector values (leading axis = nodes).  Endpoints are never sampled, so
    integrable endpoint singularities are tolerated; improper endpoints go
    through the logarithmic substitutions described in the module docstring.
    """
    cfg = cfg or QuadratureConfig()
    if lo < 0:
        raise ValueError("integration domain must lie in [0, inf)")
    if not math.isinf(hi) and hi <= lo:
        raise ValueError("need lo < hi")

    if math.isinf(hi) and lo == 0.0:
        left = integrate_segment(f, 0.0, 1.0, cfg)
        right = integrate_segment(f, 1.0, math.inf, cfg)
        return IntegralResult(
            value=left.value + right.value,
            error_estimate=left.error_estimate + right.error_estimate,
            subdivisions_used=left.subdivisions_used + right.subdivisions_used,
            converged=left.converged and right.converged,
            failure_reason=left.failure_reason or right.failure_reason,
        )
    if math.isinf(hi):
        a = lo
        u_cap = min(_U_CAP, 700.0 - math.log(max(a, 1.0)) - 10.0)

        def g_up(u):
            t = a * np.exp(u)
            return _jac_apply(f, t, t)

        return _sweep_halfline(g_up, cfg, u_cap)
    if lo == 0.0:
        b = hi
        u_cap = min(_U_CAP, 690.0 + min(0.0, math.log(b)))

        def g_down(u):
            t = b * np.exp(-u)
            return _jac_apply(f, t, t)

        return _sweep_halfline(g_down, cfg, u_cap)
    return _integrate_panels([(f, lo, hi)], cfg)


# ---------------------------------------------------------------------------
# two-dimensional polar integration over the upper half-plane
# ---------------------------------------------------------------------------


def _panel2d(g, box):
    a0, a1, b0, b1 = box
    cu, hu = 0.5 * (a0 + a1), 0.5 * (a1 - a0)
    cv, hv = 0.5 * (b0 + b1), 0.5 * (b1 - b0)
    u = cu + hu * _XGK
    v = cv + hv * _XGK
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        vals = np.asarray(g(u, v))
        k = hu * hv * float(_WGK @ vals @ _WGK)
        gg = hu * hv * float(_WG @ vals[np.ix_(_GAUSS_IDX, _GAUSS_IDX)] @ _WG)
        raw = abs(k - gg)
        mean = k / ((a1 - a0) * (b1 - b0))
        resasc = hu * hv * float(_WGK @ np.abs(vals - mean) @ _WGK)
    if resasc > 0.0 and math.isfinite(resasc):
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    if not math.isfinite(k):
        err = math.inf
    return k, err


class _Pool2D:
    """Worst-panel-first quadtree refinement on rectangular (u, v) panels."""

    def __init__(self, cfg: QuadratureConfig):
        self.cfg = cfg
        self._heap: list[tuple[float, int, tuple, Callable, float]] = []
        self._final: list[float] = []
        self._counter = 0
        self._val_sum = 0.0
        self._err_sum = 0.0
        self.reserved_error = 0.0
        self.subdivisions = 0
        self.exhausted = False

    def add(self, g, box) -> tuple[float, float]:
        k, err = _panel2d(g, box)
        self._val_sum += k
        self._err_sum += err
        heapq.heappush(self._heap, (-err, self._counter, box, g, k))
        self._counter += 1
        return k, err

    @property
    def value(self) -> float:
        return self._val_sum

    @property
    def error(self) -> float:
        return max(self._err_sum, 0.0)

    def _target(self) -> float:
        raw = max(self.cfg.abs_tol, self.cfg.rel_tol * _tol_scale(self._val_sum))
        return max(raw - self.reserved_error, raw * 0.25)

    def refine(self) -> bool:
        while self._err_sum > self._target() and self._heap:
            neg_err, _, box, g, k = self._heap[0]
            err = -neg_err
            a0, a1, b0, b1 = box
            tiny = (a1 - a0) <= 1e-13 * max(abs(a0), abs(a1), 1.0) and (
                b1 - b0
            ) <= 1e-13
            if err <= 0.0 or tiny:
                heapq.heappop(self._heap)
                self._final.append(k)
                continue
            if self.subdivisions >= self.cfg.max_subdivisions:
                self.exhausted = True
                return False
            heapq.heappop(self._heap)
            self._val_sum -= k
            self._err_sum -= err
            am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
            for child in (
                (a0, am, b0, bm),
                (am, a1, b0, bm),
                (a0, am, bm, b1),
                (am, a1, bm, b1),
            ):
                self.add(g, child)
            self.subdivisions += 1
        return self._err_sum <= self._target()

    def final_value(self) -> float:
        vals = [k for _, _, _, _, k in self._heap] + self._final
        return float(np.sum(np.array(vals))) if vals else 0.0


def _sweep_blocks_2d(pool: _Pool2D, g, cfg: QuadratureConfig,
                     u_cap: float) -> tuple[float, str | None]:
    """Doubling u-blocks of four theta panels feeding the shared pool.

    g(u, theta) must decay in u eventually; returns (tail allowance, failure
    reason or None)."""
    lo, width = 0.0, 1.0
    quiet = 0
    prev_block = None
    while True:
        hi = min(lo + width, u_cap)
        block = 0.0
        block_err = 0.0
        for j in range(4):
            th0, th1 = j * math.pi / 4.0, (j + 1) * math.pi / 4.0
            k, e = pool.add(g, (lo, hi, th0, th1))
            block += abs(k)
            block_err += e
        pool.refine()
        if pool.exhausted:
            return 0.0, "budget"
        stop_tol = max(cfg.abs_tol, cfg.rel_tol * _tol_scale(pool.value)) / 8.0
        size = block + block_err
        if size <= stop_tol:
            quiet += 1
            if quiet >= 2:
                rho = min(size / prev_block, 0.9) if prev_block else 0.5
                return size * rho / (1.0 - rho) + stop_tol, None
        else:
            quiet = 0
        prev_block = size
        if hi >= u_cap:
            if size <= stop_tol:
                return size + stop_tol, None
            return 0.0, "tail"
        lo = hi
        width = min(width * 2.0, _U_BLOCK_MAX)


def _polar_integral(h, cfg: QuadratureConfig, r_core: float, scale: float,
                    sweep_far: bool) -> IntegralResult:
    """Integrate h(r, theta) (which already includes the r/pi factor) over
    (r, theta) in (r_inner, inf) x (0, pi).

    A log-graded annulus is refined adaptively; the regions below the inner
    edge and beyond r_core are swept in log radius where operator outputs
    with integrable origin/far-field behaviour become decaying exponentials.
    """
    pool = _Pool2D(cfg)
    r_lo = cfg.halfplane_inner_radius
    if r_lo >= r_core:
        raise ValueError("inner radius must be smaller than the core radius")
    inner_edge = r_lo if r_lo > 0.0 else max(min(1.0, scale), r_core / 4096.0)

    breaks = [r_core]
    while breaks[-1] / 2.0 > inner_edge:
        breaks.append(breaks[-1] / 2.0)
    breaks.append(inner_edge)
    breaks.reverse()
    thetas = np.linspace(0.0, math.pi, 5)
    for i in range(len(breaks) - 1):
        for j in range(4):
            pool.add(h, (breaks[i], breaks[i + 1], thetas[j], thetas[j + 1]))
    pool.refine()

    tail_rem = 0.0
    reason = "budget" if pool.exhausted else None
    if reason is None and r_lo == 0.0:

        def h_down(u, th):
            r = inner_edge * np.exp(-u)
            return h(r, th) * r[:, None]

        down_cap = min(_U_CAP, 690.0 + min(0.0, math.log(inner_edge)))
        rem, reason = _sweep_blocks_2d(pool, h_down, cfg, down_cap)
        tail_rem += rem
    if reason is None and sweep_far:

        def h_up(u, th):
            r = r_core * np.exp(u)
            return h(r, th) * r[:, None]

        up_cap = min(_U_CAP, 690.0 - math.log(max(r_core, 1.0)))
        rem, reason = _sweep_blocks_2d(pool, h_up, cfg, up_cap)
        tail_rem += rem

    pool.reserved_error = tail_rem
    pool.refine()
    if reason is None and pool.exhausted:
        reason = "budget"
    total_err = float(pool.error + tail_rem)
    converged = bool(reason is None and math.isfinite(pool.value)
                     and total_err <= max(cfg.abs_tol,
                                          cfg.rel_tol * abs(pool.value)))
    return IntegralResult(
        value=pool.final_value(),
        error_estimate=total_err,
        subdivisions_used=pool.subdivisions,
        converged=converged,
        failure_reason=None if converged else reason or "budget",
    )


def _certify(res: IntegralResult, cfg: QuadratureConfig) -> IntegralResult:
    """Re-check the converged flag against the reported error estimate."""
    ok = (res.converged and math.isfinite(abs(res.value))
          and res.error_estimate <= max(cfg.abs_tol,
                                        cfg.rel_tol * abs(res.value)))
    if not ok and res.failure_reason is None:
        res.failure_reason = "tail"
    res.converged = bool(ok)
    return res


def _estimate_decay_coeff(func, radius: float, power: float, shift: float) -> float:
    """Sample |f| on the arc |z| = radius; coefficient for C*|z+i*shift|^-power."""
    th = np.linspace(0.0, math.pi, 65)[1:-1]
    z = radius * np.exp(1j * th)
    w = np.abs(z + 1j * shift)
    c = float(np.max(np.abs(np.asarray(func(z))) * w**power))
    return 2.0 * max(c, 0.0)


def _analytic_tail_bound(coeff: float, radius: float, power: float, shift: float,
                         p: float) -> float:
    """Bound on (1/pi) * integral over |z| > radius of (C|z+i*shift|^-q)^p dA."""
    pq = p * power
    if pq <= 2.0 or radius <= shift:
        return math.inf
    u = radius - shift
    core = u ** (2.0 - pq) / (pq - 2.0) + shift * u ** (1.0 - pq) / (pq - 1.0)
    return (coeff**p) * core


def bergman_norm_p_power(f, p: float,
                         cfg: QuadratureConfig | None = None) -> IntegralResult:
    """The p-th power of the Bergman norm: (1/pi) * integral of |f|^p dA.

    f must expose decay_hint = (power at infinity, reference shift) and be
    callable on complex arrays.  An operator image (image_of set, as
    `as_function` returns it) goes to the log-polar engine in logpolar.py;
    anything else to the adaptive polar quadrature.
    """
    cfg = cfg or QuadratureConfig()
    if p < 1:
        raise ValueError("p must be >= 1")
    power, shift = f.decay_hint
    explicit = cfg.halfplane_truncation_radius
    if p * power <= 2.0 and explicit is None:
        raise NonIntegrableAtInfinity(
            f"decay power {power} gives p*power = {p * power:.3g} <= 2; "
            "supply an explicit truncation radius"
        )
    if getattr(f, "image_of", None) is not None:
        # imported here: logpolar builds on this module, and only operator
        # images need it
        from .logpolar import image_norm_power

        return image_norm_power(f, p, cfg)

    def h(r, th):
        z = r[:, None] * np.exp(1j * th[None, :])
        return (np.abs(np.asarray(f(z))) ** p) * (r[:, None] / math.pi)

    scale = max(shift, 1e-3)
    if explicit is not None:
        res = _polar_integral(h, cfg, explicit, scale, sweep_far=False)
        if p * power > 2.0 and explicit > shift:
            coeff = _estimate_decay_coeff(f, explicit, power, shift)
            res.error_estimate += _analytic_tail_bound(coeff, explicit, power,
                                                       shift, p)
        return _certify(res, cfg)
    r_core = max(16.0, 8.0 * (1.0 + shift))
    return _polar_integral(h, cfg, r_core, scale, sweep_far=True)


def bergman_norm_p(f, p: float,
                   cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Bergman space norm ||f||_p = ((1/pi) * integral |f|^p dA)^(1/p).

    All internal work happens on the p-th power; the root is applied once
    at the end and the error estimate is transformed accordingly.
    """
    cfg = cfg or QuadratureConfig()
    res = bergman_norm_p_power(f, p, cfg)
    ival = max(float(np.real(res.value)), 0.0)
    norm = ival ** (1.0 / p)
    if ival > 0.0:
        err = res.error_estimate * norm / (p * ival)
    else:
        err = res.error_estimate ** (1.0 / p)
    converged = res.converged and (
        norm == 0.0 or err <= max(cfg.abs_tol, cfg.rel_tol * norm)
    )
    return IntegralResult(
        value=norm,
        error_estimate=err,
        subdivisions_used=res.subdivisions_used,
        converged=converged,
        failure_reason=res.failure_reason,
    )


def pairing(f, g, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Duality pairing (1/pi) * integral of f * conj(g) over the half-plane."""
    cfg = cfg or QuadratureConfig()
    pf, sf = f.decay_hint
    pg, sg = g.decay_hint
    total_power = pf + pg
    explicit = cfg.halfplane_truncation_radius
    if total_power <= 2.0 and explicit is None:
        raise NonIntegrableAtInfinity(
            f"decay powers sum to {total_power:.3g} <= 2; pairing not integrable"
        )

    def prod(z):
        return np.asarray(f(z)) * np.conj(np.asarray(g(z)))

    def h_re(r, th):
        z = r[:, None] * np.exp(1j * th[None, :])
        return np.real(prod(z)) * (r[:, None] / math.pi)

    def h_im(r, th):
        z = r[:, None] * np.exp(1j * th[None, :])
        return np.imag(prod(z)) * (r[:, None] / math.pi)

    scale = max(min(sf, sg), 1e-3)
    if explicit is not None:
        r_core, sweep = explicit, False
    else:
        r_core, sweep = max(16.0, 8.0 * (1.0 + max(sf, sg))), True
    res_re = _polar_integral(h_re, cfg, r_core, scale, sweep_far=sweep)
    res_im = _polar_integral(h_im, cfg, r_core, scale, sweep_far=sweep)
    err = res_re.error_estimate + res_im.error_estimate
    if explicit is not None and total_power > 2.0:
        shift = min(sf, sg)
        if explicit > shift:
            coeff = _estimate_decay_coeff(prod, explicit, total_power, shift)
            err += _analytic_tail_bound(coeff, explicit, total_power, shift, 1.0)
    return _certify(
        IntegralResult(
            value=complex(float(res_re.value), float(res_im.value)),
            error_estimate=err,
            subdivisions_used=res_re.subdivisions_used + res_im.subdivisions_used,
            converged=res_re.converged and res_im.converged,
            failure_reason=res_re.failure_reason or res_im.failure_reason,
        ),
        cfg,
    )
