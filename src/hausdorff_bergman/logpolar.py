"""Bergman norms and pairings on a log-polar lattice: the package's one
half-plane engine.

`bergman_norm_p_power` and `pairing` (quadrature.py) send every function
here, through one entry (integral).  The engine works on sides.  A side is
a measure mu and a plain source f, standing for
Hf(z) = integral of (1/t) f(z/t) dmu(t).  Each factor of the integrand is
the sum of its sides (HalfPlaneFunction.sides, one per distinct measure
among its terms), so a plain function is one side under the unit atom and
sums, multiples and dilations of images stay on the lattice.  A source
enters only through its log-space lattice values
G(w, theta) = e^(q w) f(e^(w + i theta)) (HalfPlaneFunction.lattice_values,
from the pair zeta = e^(w - lam) e^(i theta), lam = max(w, 0)), accurate
where f underflows or e^w leaves the float range, so every w = v - s is in
reach; the window's bound |v| <= _V_CAP only makes an edge that never
closes stop.
In z = e^(v + i theta) and t = e^s, H is a convolution in v along every
ray, so every evaluation of f serves all output points.  A norm sums |F|^p
over one factor, a pairing F conj(G) over two, on one uniform v-lattice and
one set of Gauss-Legendre theta nodes.  The trapezoid rule in v converges
exponentially (Trefethen & Weideman, SIAM Review 56, 2014).

The reflection z -> -conj z maps the half-plane onto itself, and a measure
is real, so where f(-conj z) = lam conj f(z) (HalfPlaneFunction.mirror),
F(v, pi - theta) = lam conj F(v, theta).  The theta nodes come in pairs
theta, pi - theta with one weight.  Where every factor has a mirror, each
level evaluates the sources only at the half with theta < pi/2 and the
sums over the other half follow from those over this half; where some
factor has none (mixed exponents, coefficients of different phase), the
run evaluates every factor on the full rule.  The budget counts the
evaluations made.

A level's work is one evaluation of the sources on its lattice (a _level
call), whose cost is mostly fixed per call, so a level evaluates once where
it can and builds its kernels with that evaluation.  Every level grows its
window until both edges close, trying each window on a slice of rows
evaluated ahead: level 0, which starts from a guess, evaluates its window
grown _GROW_AHEAD times on both sides; a later level, which starts from the
window the last level closed, evaluates that window.  A level evaluates
again only if its window grows beyond those rows.

The lattice is finite; the sum beyond each edge of the window is
closed as a geometric series.  Where the decay data fix the profile's
exact rate at an edge (far out, P(v) = C e^(-rate v) (1 + c(v)) with
rate = p power - 2 for a norm and the factors' rates added for a pairing; near
0, rate 2, as every source's shift is positive), the closure uses that rate
and the error counts only how far c varies beyond the edge, read from the
mismatch between the last step ratios and e^(-rate h).  A window then
stops at tens of units of v even where |F|^p decays like e^(-0.0125 v).
Where a kernel decays within a margin of the source's rate, or the ratios
do not approach the rate (a cancelling sum, whose decay hint only bounds
its decay), the measured rule closes the edge: the slowest measured step
ratio, with the tail counted in full in the error.

All refinement decisions and accumulation orders are deterministic, so
repeated runs produce bitwise identical results.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .halfplane import common_mirror
from .quadrature import _STACK, IntegralResult, QuadratureConfig, _nodes_dot


# Gregory end corrections: for g smooth on [x_0, inf) the integral equals
# h * (g_0/2 + g_1 + g_2 + ...) + h * sum_k _GREGORY[k-1] * (Delta^k g)_0
_GREGORY = (1.0 / 12.0, -1.0 / 24.0, 19.0 / 720.0, -3.0 / 160.0,
            863.0 / 60480.0, -275.0 / 24192.0)
_ORDER = len(_GREGORY)
_H0 = 1.0          # lattice step in v = log r at level 0; halved per level
_THETA0 = 4        # Gauss-Legendre theta nodes at level 0; doubled per level
_GAUSS0 = 3        # Gauss-Legendre nodes per log-panel at rule 0; doubled
                   # per rule, which advances apart from the level
_PANEL = 1.0       # widest log-panel of a finite segment
_MAX_LEVELS = 12
_EVALS_PER_SUBDIVISION = 10000  # family evaluations per run per max_subdivisions
_V_CAP = 2000.0    # |v| <= _V_CAP at both window edges: an edge still open
                   # there ends the run "tail".  It only makes a window that
                   # never closes stop (the kernel takes any v and s), and
                   # lies beyond log(shift t) for every double shift and t
_S_CAP = 250.0     # a kernel reaches at most this far from its anchor
_MARGIN = 1.0      # a kernel decaying within this of the source's rate (per
                   # unit of v) at one end leaves that end's rate to be measured
_BLOCK = 1 << 12  # complex entries per (row, theta) array of a theta block
                  # (64 KiB): sets the block's width from n_v and the FFT lengths
_GROW_AHEAD = 2   # level 0 evaluates its window grown this many times on both
                  # sides (_grow) and finds its edges on slices of those rows


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], by
    Newton's method on the three-term recurrence.  Neither numpy.polynomial
    nor LAPACK is loaded for them: each costs the process most of a
    megabyte of resident memory on first use."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-16:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.lru_cache(maxsize=None)
def _theta_rule(lvl: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """e^(i theta) at the Gauss-Legendre theta nodes of level lvl and their
    weights with the norm's 1/pi, (1/pi) * (pi/2) * wx.  With half, only the
    nodes with theta < pi/2: pi - theta are the others, with the same
    weights.  Cached, as _gauss_legendre is: the runs share them."""
    x, wx = _gauss_legendre(_THETA0 << lvl)
    if half:
        x, wx = x[:len(x) // 2], wx[:len(x) // 2]
    return np.exp(0.5j * math.pi * (x + 1.0)), 0.5 * wx


def _gregory_weights(order: int) -> np.ndarray:
    """Weights of the order+1 lattice values next to a finite endpoint: the
    trapezoid's 1/2, 1, 1, ... plus the Gregory corrections through the
    order-th forward difference."""
    w = np.ones(order + 1)
    w[0] = 0.5
    for k in range(1, order + 1):
        for j in range(k + 1):
            w[j] += _GREGORY[k - 1] * (-1) ** (k - j) * math.comb(k, j)
    return w


_END_WEIGHTS = _gregory_weights(_ORDER)  # at every finite kernel end


def _geometric_tail(vals, h: float, m: int, rate: float | None) -> float | None:
    """h times the sum of the lattice values beyond the last one, closed as a
    geometric series with the largest of the last m step ratios.

    vals run towards the edge (vals[-1] is the edge value).  Returns None
    unless every one of those ratios is below 1, i.e. unless the values have
    been seen to decay geometrically there.  rate, the slowest decay the
    decay data allow there (per unit of v), floors the ratio at e^(-rate h)
    so that a slower asymptotic decay is not missed.  An edge value of
    exactly 0 needs no closure: lattice values are computed in log space,
    so such a zero is |F|^p below the range of doubles.  The at most m + 1
    values are worked as Python floats: numpy's cost per call would exceed
    the arithmetic many times over."""
    edge = float(vals[-1])
    if edge == 0.0:
        return 0.0
    last = vals[-(m + 1):].tolist()
    if len(last) < 2 or not all(x > 0.0 for x in last[:-1]):
        return None
    ratios = [b / a for a, b in zip(last, last[1:])]
    if any(map(math.isnan, ratios)):
        return None
    rho = max(ratios)
    if not (0.0 <= rho < 1.0):
        return None
    if rate is not None:
        rho = max(rho, math.exp(-rate * h))
    return h * edge * rho / (1.0 - rho)


def _rate_tail(prof, edge_major: float, h: float, m: int, rate: float):
    """Close a profile P(v) = C e^(-rate v) (1 + c(v)) with c -> 0 beyond
    its last lattice value: returns (h times the sum of the values beyond
    it, as a geometric series with rho = e^(-rate h); a bound on the error
    of that closure), or None.

    prof runs towards the edge and may be complex (a pairing).  A constant
    c leaves the closure exact; only the variation of c beyond the edge
    counts, and the last m step ratios measure it: each is rho (1 + delta).
    Were every ratio beyond the edge rho (1 + delta), the closure would miss
    delta / (1 - rho (1 + delta)) of itself, for a correction c = k e^(-g v)
    of any g > 0 as much as for a constant ratio.  Twice that with the
    largest |delta| seen is the bound, taken of the closure of the majorant
    edge_major (|F|^p itself for a norm, |F||G| for a pairing).  None when
    the profile vanishes before the edge or a ratio is too far above rho for
    the bound to be finite.  The at most m + 1 values are worked as Python
    floats or complex numbers, as in _geometric_tail."""
    last = prof[-(m + 1):].tolist()
    rho = math.exp(-rate * h)
    # a zero rho P (P = 0, or rho P underflowing) leaves no finite ratio
    if len(last) < 2 or not all(rho * a for a in last[:-1]):
        return None
    try:
        devs = [abs(b / (rho * a) - 1.0) for a, b in zip(last, last[1:])]
    except OverflowError:  # |ratio - 1| beyond the largest double
        return None
    if any(map(math.isnan, devs)):
        return None
    delta = max(devs)
    gap = -math.expm1(-rate * h) - rho * delta  # 1 - rho (1 + delta)
    if not gap > 0.0:
        return None
    k = h * rho / -math.expm1(-rate * h)
    return k * last[-1], k * edge_major * 2.0 * delta / gap


def _slowest(rates) -> float | None:
    """The smallest of some decay rates; None if one is unknown (None) or
    none is finite."""
    rates = list(rates)
    if any(r is None for r in rates):
        return None
    finite = [r for r in rates if math.isfinite(r)]
    return min(finite) if finite and min(finite) > 0.0 else None


def _exact_rate(own: float, kernels) -> float | None:
    """own, the source's decay rate at one end, if every kernel rate there is
    known and at least _MARGIN faster; else None."""
    if any(r is None or r < own + _MARGIN for r in kernels):
        return None
    return own


def _lattice_error(diffs) -> float:
    """The error counted for a lattice value from its level differences
    diffs (the last is this level's): the last difference d, or, once the
    last three differences shrink by a measured ratio rho < 1/2 per level,
    d rho / (1 - rho), the geometric sum of the differences still to come.
    The trapezoid rule in v converges geometrically, so three contracting
    differences measure the rate; one ratio alone is not trusted."""
    d = diffs[-1]
    if len(diffs) < 3 or not (diffs[-3] > 0.0 and diffs[-2] > 0.0):
        return d
    rho = max(diffs[-2] / diffs[-3], d / diffs[-2])
    return d * rho / (1.0 - rho) if rho < 0.5 else d


class _Stop(Exception):
    """The lattice run's only early exit, caught in one place (run):
    args[0] is the failure reason, "tail" or "budget"."""


@dataclass
class _ConvKernel:
    """A segment on the s = log t lattice of one level: F(v_j) gets
    sum_k a[k] G(v_j - s_k) with s_k = s_max - (M-1-k) h."""

    s_max: float
    a: np.ndarray
    tail: float            # integral of K beyond the kept ends (geometric)


@dataclass
class _SideLevel:
    """A side's inner rules on one lattice of one level."""

    shifts: np.ndarray     # the direct terms' shifts s_k in G(v - s_k): the atoms,
    coeffs: np.ndarray     # the Gauss nodes, those one rule lower (unless held);
                           # their c_k
    n_atoms: int
    n_gauss: int           # Gauss nodes of this rule; 0 with no finite segment
    same_g: bool           # no rule one lower evaluated: its F is F itself
    kernels: list          # a _ConvKernel per segment touching 0 or infinity
    ffts: list             # the FFT of each kernel's a at its convolution length
    g_mass: list           # ||G||_p^p seen by each kernel, added up by block
    evals: int             # family evaluations per theta node


class _Side:
    """One factor of the integrand: F(v, theta) = e^(q v) Hf(e^(v + i theta))
    with q = 2/p, for Hf the image of source under mu.

    With z = e^(v + i theta) and t = e^s the area element is
    r dr dtheta = e^(2v) dv dtheta, so a norm becomes a plain L^p integral
    over (v, theta), and a pairing (q = 1 on both sides) one of F conj(G):

        ||Hf||_p^p = (1/pi) int_0^pi int |F(v, theta)|^p dv dtheta,
        F(v, theta) = int K(s) G(v - s, theta) ds,

    with G(w, theta) = e^(qw) f(e^(w + i theta)) and the kernel
    K(s) = rho(e^s) e^(qs) of a density rho (an atom of weight c at t
    contributes c t^(q-1) G(v - log t)).  For a norm the kernel's integral
    is the moment of t^(2/p-1), the operator norm, so F is bounded by it and
    decays at both ends of every ray.

    F is evaluated on a uniform lattice v_j = v_lo + j h times the theta
    nodes: atoms as exact dilated copies; a finite segment [a, b] with a > 0
    through Gauss-Legendre nodes in s on log-panels; a segment that touches
    0 or infinity through the trapezoid rule in s on the lattice itself,
    with order-6 Gregory corrections at its finite endpoint, as one FFT
    convolution per theta block.  hint is the decay hint (power, shift) of
    Hf itself: its power at infinity and its terms' smallest shift, which
    does not depend on mu (the window guess, _initial_window, adds mu's
    support to it).

    The atom terms are built here, each rule's Gauss nodes once, and the
    direct terms (atoms and Gauss nodes) once per Gauss rule index and
    whether the rule one lower is evaluated with it, all kept on the side
    for the run; the kernels and their FFTs are built with each evaluation
    (level).
    """

    def __init__(self, mu, source, hint, p: float, eta: float):
        self.mu, self.source, self.p, self.eta = mu, source, p, eta
        self.q = q = 2.0 / p
        self.power, self.shift = hint
        self.finite = [s for s in mu.segments
                       if s.lower > 0.0 and not math.isinf(s.upper)]
        self.touching = [s for s in mu.segments
                         if s.lower == 0.0 or math.isinf(s.upper)]
        # the decay of |F| per unit of v at each end: the source's own rate
        # (q near 0, as every term's shift is positive and Hf(0) finite;
        # power - q far out, as Hf decays like |z|^-power) and the kernels'
        # rates, which their endpoint exponents give.  The slowest of them
        # floors the measured rule; the source's rate is the exact one
        # unless a kernel decays within _MARGIN of it (or says nothing)
        near = q
        far = self.power - q
        lo = [self._kernel_rate(s.exp_lo, +1) for s in self.touching if s.lower == 0.0]
        hi = [self._kernel_rate(s.exp_hi, -1) for s in self.touching if math.isinf(s.upper)]
        self.rate_lo, self.rate_hi = _slowest([near] + lo), _slowest([far] + hi)
        self.exact_lo, self.exact_hi = _exact_rate(near, lo), _exact_rate(far, hi)
        self.atoms = self._atom_terms()
        self.gauss = {}   # Gauss rule index -> its Gauss terms (_gauss_terms)
        self.direct = {}  # (rule, lower) -> the direct terms (_direct_terms)

    def _kernel_rate(self, exponent: float | None, sign: int) -> float | None:
        """Decay rate of K(s) = rho(e^s) e^(qs) towards s -> -inf (sign +1,
        rho ~ t^exponent at 0) or s -> +inf (sign -1, at infinity)."""
        return None if exponent is None else sign * (exponent + self.q)

    # -- inner rules -----------------------------------------------------

    def _atom_terms(self):
        """(shifts, coefficients) of the dilated copies of G from the atoms."""
        locs = np.array([a.location for a in self.mu.atoms])
        weights = np.array([a.weight for a in self.mu.atoms])
        return np.log(locs), weights * locs ** (self.q - 1.0)

    def _gauss_terms(self, rule: int):
        """(shifts, coefficients) of the dilated copies of G from the Gauss
        nodes of the finite segments, _GAUSS0 * 2^rule per log-panel; built
        once per rule and kept on the side."""
        if rule in self.gauss:
            return self.gauss[rule]
        shifts, coeffs = [], []
        x, wx = _gauss_legendre(_GAUSS0 << rule)
        for seg in self.finite:
            lo, hi = math.log(seg.lower), math.log(seg.upper)
            n_panels = max(1, math.ceil((hi - lo) / _PANEL))
            edges = np.linspace(lo, hi, n_panels + 1)
            half = 0.5 * np.diff(edges)
            s = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
            w = half[:, None] * wx
            s, w = s.ravel(), w.ravel()
            dens = np.asarray(seg.density(np.exp(s)), dtype=float)
            shifts.append(s)
            coeffs.append(w * dens * np.exp(self.q * s))
        terms = self.gauss[rule] = np.concatenate(shifts), np.concatenate(coeffs)
        return terms

    def _direct_terms(self, rule: int, lower: bool):
        """(shifts, coefficients, Gauss nodes of this rule) of every direct
        term under the Gauss rule of index rule, in the order block adds
        them: the atoms, the Gauss nodes, and (with lower, for rule > 0)
        the Gauss nodes one rule lower."""
        key = rule, lower
        if key in self.direct:
            return self.direct[key]
        parts = [self.atoms]
        if self.finite:
            parts.append(self._gauss_terms(rule))
            if lower and rule:
                parts.append(self._gauss_terms(rule - 1))
        terms = self.direct[key] = (np.concatenate([t[0] for t in parts]),
                                    np.concatenate([t[1] for t in parts]),
                                    len(parts[1][0]) if self.finite else 0)
        return terms

    def _kernel_side(self, seg, anchor: float, step: float, rate, h: float):
        """K on s_k = anchor + k*step (k = 0, 1, ...), extended until its
        geometric tail is below eta times its mass; returns (s, K, tail)."""
        rate = _slowest([rate])
        extent = 8.0 if rate is None else math.log(1.0 / self.eta) / rate + 2.0
        m = max(2, round(2.0 / h))
        while True:
            extent = min(extent, _S_CAP)
            n = max(int(math.ceil(extent / h)) + 1, 2 * _ORDER + 2)
            s = anchor + step * np.arange(n)
            with np.errstate(over="ignore", under="ignore", invalid="ignore",
                             divide="ignore"):
                k = np.asarray(seg.density(np.exp(s)), dtype=float) * np.exp(self.q * s)
            if not np.all(np.isfinite(k)):
                raise _Stop("tail")  # the kernel is not finite
            tail = _geometric_tail(k, h, m, rate)
            if tail is not None and tail <= self.eta * h * float(np.sum(k)):
                return s, k, tail
            if extent >= _S_CAP:
                raise _Stop("tail")  # the kernel does not decay within its cap
            extent *= 2.0

    def _conv_kernel(self, seg, h: float) -> _ConvKernel:
        lo0, hi_inf = seg.lower == 0.0, math.isinf(seg.upper)
        rate_lo = self._kernel_rate(seg.exp_lo, +1)
        rate_hi = self._kernel_rate(seg.exp_hi, -1)
        if lo0 and hi_inf:
            s_up, k_up, t_up = self._kernel_side(seg, 0.0, h, rate_hi, h)
            s_dn, k_dn, t_dn = self._kernel_side(seg, 0.0, -h, rate_lo, h)
            k = np.concatenate([k_dn[:0:-1], k_up])
            s = np.concatenate([s_dn[:0:-1], s_up])
            return _ConvKernel(float(s[-1]), h * k, t_up + t_dn)
        if lo0:  # (0, b]: finite endpoint at the top of the s range
            s, k, tail = self._kernel_side(seg, math.log(seg.upper), -h, rate_lo, h)
        else:    # [a, inf): finite endpoint at the bottom
            s, k, tail = self._kernel_side(seg, math.log(seg.lower), h, rate_hi, h)
        w = np.ones(len(k))  # _kernel_side keeps at least 2 _ORDER + 2 nodes
        w[: _ORDER + 1] = _END_WEIGHTS
        a = h * w * k
        if lo0:  # ascending s: reverse, the endpoint becomes the last entry
            return _ConvKernel(float(s[0]), a[::-1].copy(), tail)
        return _ConvKernel(float(s[-1]), a, tail)

    # -- one lattice -----------------------------------------------------

    def level(self, rule: int, h: float, n_v: int, lower: bool = True) -> _SideLevel:
        """The inner rules of an evaluation with step h and n_v rows and the
        Gauss rule of index rule (and, with lower, the rule one lower): the
        kept direct terms, and the kernels of step h and their FFTs at the
        convolution length, built here."""
        shifts, coeffs, n_gauss = self._direct_terms(rule, lower)
        kernels = [self._conv_kernel(seg, h) for seg in self.touching]
        # family evaluations per theta node: the direct terms at every
        # lattice point, and the values under every convolution kernel
        evals = n_v * len(shifts) + sum(n_v + len(kr.a) - 1 for kr in kernels)
        ffts = [np.fft.fft(kr.a, 1 << (n_v + len(kr.a) - 2).bit_length()) for kr in kernels]
        return _SideLevel(shifts, coeffs, len(self.atoms[0]), n_gauss,
                          not (self.finite and rule and lower), kernels, ffts,
                          [0.0] * len(kernels), evals)

    def _direct(self, lv: _SideLevel, v: np.ndarray, eb: np.ndarray):
        """c_k G(v - s_k) at the theta nodes eb for each direct term in
        turn: one lattice_values call on the stacked rows w = v - s_k,
        split so that no stacked temporary exceeds _STACK complex entries
        (a single shift's rows excepted)."""
        n_v = len(v)
        per = max(1, _STACK // (n_v * len(eb)))
        for k0 in range(0, len(lv.shifts), per):
            s, c = lv.shifts[k0:k0 + per], lv.coeffs[k0:k0 + per]
            g = self.source.lattice_values((v - s[:, None]).ravel(), eb, self.q)
            g = g.reshape(len(s), n_v, len(eb))
            g *= c[:, None, None]
            yield from g

    def block(self, lv: _SideLevel, v: np.ndarray, h: float, eb: np.ndarray,
              wb: np.ndarray):
        """F on the rows v at the theta nodes eb: with the level's inner
        rules, and with its Gauss rule one lower (the same array where
        none is evaluated).  Adds each kernel's ||G||_p^p seen here to
        lv.g_mass, each node counted with its weight in wb.  The direct
        terms (atoms and Gauss nodes of both rules) take one evaluation
        call (_direct), the kernels one each; the terms are added in a
        fixed order: atoms, kernels, then the Gauss nodes."""
        n_v = len(v)
        terms = self._direct(lv, v, eb)

        def add(out, n):
            for term in itertools.islice(terms, n):
                out += term

        common = np.zeros((n_v, len(eb)), dtype=complex)
        add(common, lv.n_atoms)
        for i, (kr, hat) in enumerate(zip(lv.kernels, lv.ffts)):
            m_k = len(kr.a)
            u = v[0] - kr.s_max + h * np.arange(n_v + m_k - 1)
            g = self.source.lattice_values(u, eb, self.q)
            lv.g_mass[i] += h * float(np.sum(_nodes_dot(wb, (np.abs(g) ** self.p).T)))
            conv = np.fft.ifft(np.fft.fft(g, len(hat), axis=0) * hat[:, None], axis=0)
            common += conv[m_k - 1:m_k - 1 + n_v]
        if lv.same_g:
            add(common, lv.n_gauss)
            return common, common
        full = common.copy()
        add(full, lv.n_gauss)
        add(common, len(lv.shifts))
        return full, common


@dataclass
class _LevelSums:
    profs: np.ndarray      # P(v_j) with this level's inner rules (row 0) and
                           # with the Gauss rule one lower (row 1; none where
                           # no side has a lower rule: P with it is P itself)
    major: np.ndarray      # the majorant profile: P itself for a norm,
                           # (1/pi) int |F||G| dtheta for a pairing
    kernel_tails: list     # (factor, geometric tail of a kernel, ||G||_p^p seen by it)
    own: np.ndarray        # ||F||_2^2 of each factor of a pairing

    def rows(self, j: int, n: int) -> _LevelSums:
        """The sums on rows j, ..., j + n - 1: these sums where those are
        all their rows, else the profiles alone.  kernel_tails and own,
        measured on all the rows, are then left None: run reads neither at
        level 0, the one level whose rows reach beyond its window (_ahead)."""
        if j == 0 and n == len(self.major):
            return self
        return _LevelSums(self.profs[:, j:j + n], self.major[j:j + n], None, None)


class _LogPolarNorm:
    """||F||_p^p of one factor, or the pairing (1/pi) int F conj(G) dA of
    two (at p = 2, where q = 1), on a log-polar lattice (see _Side).

    A factor is a list of sides, each given as (mu, source, decay hint),
    and stands for their sum.  Levels halve h and double the theta nodes
    until successive values agree and their differences contract.  Both
    window edges grow until the error counted for closing them is below an
    eighth of the tolerance (_edge).  With the exact rate
    the profile (|F|^p, or the complex F conj(G) of a pairing) is closed
    with it, the closure goes into the value and only its uncertainty into
    the error, for a norm and a pairing alike.  With the measured rule the
    majorant (|F|^p, or |F||G|) is closed: a norm's value includes that
    tail and its error counts it in full; a pairing's error alone counts
    it.

    Where every factor has a mirror, each level evaluates the factors at
    the theta nodes below pi/2 only (see the module docstring); the rule,
    and so the values, estimates and levels, are those of the full
    Gauss-Legendre rule up to rounding.  Any other run evaluates the full
    rule.

    The Gauss rule of the finite segments has its own index.  Until it is
    held, every level also sums with the rule one index lower, evaluated
    in the same call as its own; the index advances while that difference
    is above an eighth of the tolerance (as the edge tails are) and is held
    for the rest of the run once it is below, after which the levels
    evaluate the held rule's nodes alone.  The error estimate adds two
    measured parts: the inner-rule difference (from the Gauss rule one
    lower; once the rule is held, the difference it was held on) and the
    lattice error (_lattice_error), read from the differences between each
    level and the last on the same Gauss rule.  The Gregory order of a
    kernel's end stays fixed; its error falls with h like the lattice's own
    and shows in the lattice differences.

    Once per run: the sides and their atom terms.  Once per Gauss rule
    index: each side's Gauss nodes and direct terms (see _Side).
    Once per _level call, i.e. per level unless a window outgrows the rows
    its level evaluated (_sums): each side's kernels and their FFTs, and
    the evaluations, one lattice_values call per theta block for a side's
    direct terms (both Gauss rules' nodes among them) and one per kernel.
    """

    def __init__(self, factors, p: float, cfg: QuadratureConfig):
        self.p, self.cfg = p, cfg
        self.pair = len(factors) == 2
        eta = max(1e-3 * cfg.rel_tol, 1e-16)  # kernel tail / kernel mass
        self.factors = [[_Side(mu, source, hint, p, eta) for mu, source, hint in factor]
                        for factor in factors]
        self.sides = [side for factor in self.factors for side in factor]
        # a factor decays at its slowest side's rate, exactly so if every
        # side's rate is exact; the majorant is the product of |F_k|^(p/n)
        # over the n factors, so its rates and far-field power add up
        share = p / len(factors)

        def total(attr):
            rates = [[getattr(s, attr) for s in f] for f in self.factors]
            rates = [None if None in r else min(r) for r in rates]
            return None if None in rates else share * sum(rates)

        self.rate_lo, self.rate_hi = total("rate_lo"), total("rate_hi")
        self.exact_lo, exact_hi = total("exact_lo"), total("exact_hi")
        self.exact_hi = exact_hi if exact_hi is not None and exact_hi > 0.0 else None
        # F(v, pi - theta) = lam conj F(v, theta) for a factor whose sides'
        # sources share the mirror lam, the kernels being real.  With every
        # factor's, each sum over the mirror nodes is mirror * conj of the
        # sum over the half nodes: lam_F conj(lam_G) for a pairing, 1 for a norm
        lams = [common_mirror(getattr(side.source, "mirror", None) for side in factor)
                for factor in self.factors]
        self.mirror = (None if None in lams else
                       lams[0] * lams[-1].conjugate() if self.pair else 1.0)

    def _integrand(self, x, y):
        """|F|^p for a norm (y is x), F conj(G) for a pairing."""
        return x * np.conj(y) if self.pair else np.abs(x) ** self.p

    def _level(self, lvl: int, rule: int, v_lo: float, n_v: int,
               h: float) -> _LevelSums:
        """Profiles P(v_j) = (1/pi) int of the integrand dtheta with the
        Gauss rule of index rule and, where some side has a lower rule and
        the run has not held its rule (self.held), with the rule one lower;
        plus the side data."""
        eith, w_th = _theta_rule(lvl, self.mirror is not None)
        v = v_lo + h * np.arange(n_v)
        levels = [[side.level(rule, h, n_v, not self.held) for side in factor]
                  for factor in self.factors]
        flat = [lv for factor in levels for lv in factor]
        evals = len(eith) * sum(lv.evals for lv in flat)
        if self.evals + evals > self.budget:
            raise _Stop("budget")
        self.evals += evals
        nb = max(1, _BLOCK // max([n_v] + [len(hat) for lv in flat for hat in lv.ffts]))
        # with no lower Gauss rule evaluated, P with it is P itself: one row
        n_rows = 1 if all(lv.same_g for lv in flat) else 2

        profs = np.zeros((n_rows, n_v), dtype=complex if self.pair else float)
        major = np.zeros(n_v)
        own = np.zeros(len(self.factors))
        with np.errstate(over="ignore", under="ignore", invalid="ignore",
                         divide="ignore"):
            for b0 in range(0, len(eith), nb):
                eb, wb = eith[b0:b0 + nb], w_th[b0:b0 + nb]
                # the weights of sums even in theta -> pi - theta
                w_even = wb if self.mirror is None else 2.0 * wb
                # a factor is the sum of its sides, added without sum's 0 + copy
                vals = [[functools.reduce(operator.add, parts) for parts in zip(*(
                    side.block(lv, v, h, eb, w_even) for side, lv in zip(factor, lvs)))]
                        for factor, lvs in zip(self.factors, levels)]
                fx, gx = vals[0], vals[-1]
                for k in range(n_rows):
                    r = _nodes_dot(wb, self._integrand(fx[k], gx[k]).T)
                    if self.mirror is not None:
                        # a norm's r is real and its mirror 1: r + conj(r) is 2 r
                        r = r + self.mirror * np.conj(r) if self.pair else 2.0 * r
                    profs[k] += r
                if self.pair:
                    major += _nodes_dot(w_even, (np.abs(fx[0]) * np.abs(gx[0])).T)
                    own += [h * float(np.sum(_nodes_dot(w_even, (np.abs(val[0]) ** 2).T)))
                            for val in vals]
        tails = [(i, kr.tail, gm) for i, factor in enumerate(levels) for lv in factor
                 for kr, gm in zip(lv.kernels, lv.g_mass)]
        return _LevelSums(profs, major if self.pair else profs[0], tails, own)

    # -- refinement ------------------------------------------------------

    def _initial_window(self) -> None:
        """Window [v_lo, v_hi]: edges around the scales log(shift t) that
        each side's source shift (its decay hint's) and its measure's
        support set, on the level-0 lattice; they grow in _sums.  The one
        place a measure's support scales an image."""
        lo, hi = math.inf, -math.inf
        for side in self.sides:
            t_lo, t_hi = side.mu.support_infimum(), side.mu.support_supremum()
            s_lo = math.log(t_lo) if t_lo > 0.0 else min(0.0, math.log(t_hi)) - 4.0
            s_hi = math.log(t_hi) if math.isfinite(t_hi) else max(0.0, s_lo) + 4.0
            lo = min(lo, s_lo + math.log(side.shift) - 4.0)
            hi = max(hi, s_hi + math.log(side.shift) + 8.0)
        self.v_lo, self.v_hi = float(math.floor(lo)), float(math.ceil(max(hi, lo + 2.0)))

    def _grow(self, left: bool) -> bool:
        """Move an edge out by half the window (at least 4, a multiple of
        _H0); False, the window unchanged, where that would take it beyond
        _V_CAP."""
        step = _H0 * max(4, math.ceil(0.5 * (self.v_hi - self.v_lo) / _H0))
        edge = self.v_lo - step if left else self.v_hi + step
        if abs(edge) > _V_CAP:
            return False
        if left:
            self.v_lo = edge
        else:
            self.v_hi = edge
        return True

    def _edge(self, prof, major, h: float, m: int, floor, exact):
        """Close one edge; prof (the profile) and major (the majorant)
        run towards it.  Returns (the amount added to the value, the amount
        counted in the error); (0, inf) if the edge does not close.

        The measured rule closes the majorant with the slowest of its last m
        step ratios, floored at e^(-floor h): a norm adds that tail and
        counts it in full, a pairing counts it only.  Where the exact rate
        is known, the profile closes with it (_rate_tail), the value takes
        that closure and the error only its bound; whichever rule counts
        less in the error is used."""
        tail = _geometric_tail(major, h, m, floor)
        best = (0.0, math.inf) if tail is None else (0.0 if self.pair else tail, tail)
        fit = None if exact is None else _rate_tail(prof, float(major[-1]), h, m, exact)
        return fit if fit is not None and fit[1] < best[1] else best

    def _ahead(self, lvl: int, rule: int, h: float):
        """The rows a level tries its windows on, evaluated once: level 0's
        window grown _GROW_AHEAD times on both sides (by _grow, so an edge
        stops short of _V_CAP), which its guess often needs; a later level's
        window, which the last level closed, as it is.  Returns (v of the
        first row, v of the last, their _LevelSums); the window is left as
        it was."""
        window = self.v_lo, self.v_hi
        for _ in range(0 if lvl else _GROW_AHEAD):
            self._grow(True)
            self._grow(False)
        lo, hi = self.v_lo, self.v_hi
        self.v_lo, self.v_hi = window
        return lo, hi, self._level(lvl, rule, lo, int(round((hi - lo) / h)) + 1, h)

    def _sums(self, lvl: int, rule: int, h: float):
        """One completed level, on a window grown until the error counted
        for its edges (_edge) is below an eighth of the tolerance.  Returns
        (sums, (sum, sum with the Gauss rule one lower), (edge amounts
        added to the value, edge amounts counted in the error)).  Raises
        _Stop: "tail" for a non-finite sum or an edge still open at _V_CAP,
        "budget" (from _level) for evaluations beyond the budget.

        A _level call costs mostly a fixed amount, so a level evaluates its
        rows once, ahead (_ahead), and tries each window on a slice of them;
        only a window grown beyond them evaluates again, ahead of itself.
        The rows ahead count against the budget."""
        cfg = self.cfg
        m = max(2, round(2.0 / h))
        ahead = None
        while True:
            n_v = int(round((self.v_hi - self.v_lo) / h)) + 1
            if ahead is None or not ahead[0] <= self.v_lo <= self.v_hi <= ahead[1]:
                ahead = self._ahead(lvl, rule, h)
            sums = ahead[2].rows(int(round((self.v_lo - ahead[0]) / h)), n_v)
            cores = [h * np.sum(pr).item() for pr in sums.profs]
            if not all(map(cmath.isfinite, cores)):
                raise _Stop("tail")
            tau = cfg.tolerance(abs(cores[0])) / 8.0
            prof = sums.profs[0]
            add_lo, err_lo = self._edge(prof[m::-1], sums.major[m::-1], h, m,
                                        self.rate_lo, self.exact_lo)
            add_hi, err_hi = self._edge(prof[-(m + 1):], sums.major[-(m + 1):], h, m,
                                        self.rate_hi, self.exact_hi)
            open_lo, open_hi = err_lo > tau, err_hi > tau
            if not (open_lo or open_hi):
                # the last row holds P with the lower Gauss rule, or P itself
                return sums, (cores[0], cores[-1]), (add_lo + add_hi, err_lo + err_hi)
            if (open_lo and not self._grow(True)) or (open_hi and not self._grow(False)):
                raise _Stop("tail")

    def run(self) -> IntegralResult:
        """Refine level by level; converged once the error budget
        (inner-rule difference + lattice error + edge closures + kernel
        cut-offs) is within tolerance and the refinement differences
        (inner-rule plus lattice difference) contract.  The lattice
        difference compares two levels on one Gauss rule and one Gregory
        order.  The Gauss rule starts at index 0, which has no lower rule to
        be measured against, so it advances at least once; once held, the
        difference it was held on stays the inner-rule difference.

        A run stops "tail" on a non-finite sum or an edge open at _V_CAP
        (_sums), a kernel end open at _S_CAP (_kernel_side) or kernel
        cut-offs above the tolerance, "budget" on the evaluation budget
        (_level) or at _MAX_LEVELS.  It reports its last completed level:
        value, count, and error ("budget"; inf for level 0) or inf ("tail")."""
        cfg, p = self.cfg, self.p
        levels = "lattice levels"
        self._initial_window()
        self.budget = _EVALS_PER_SUBDIVISION * cfg.max_subdivisions
        self.evals = 0
        prev_d = None
        diffs = []  # the lattice difference of each level after the first
        rule, inner, self.held = 0, 0.0, False
        value, err, done = 0.0, math.inf, 0  # the last completed level
        try:
            for lvl in range(_MAX_LEVELS):
                sums, (core, core_g), (add, edge_err) = self._sums(lvl, rule, _H0 / 2.0 ** lvl)
                prev_value, value, value_j, done = value, core + add, core_g + add, lvl + 1
                if not lvl:  # level 0's kernel_tails and own are not read
                    rule = 1
                    continue
                if self.pair:
                    # a kernel cut off with tail mass T moves its factor by at
                    # most T ||G||_2 (Minkowski), hence the pairing by that
                    # times the other factor's ||F||_2 (Cauchy-Schwarz)
                    fixed = sum(t * math.sqrt(g * sums.own[1 - i])
                                for i, t, g in sums.kernel_tails)
                else:
                    # ... and a norm's p-th power by p ||F||_p^(p-1) T ||G||_p
                    fixed = sum(p * value ** (1.0 - 1.0 / p) * t * g ** (1.0 / p)
                                for _, t, g in sums.kernel_tails)
                # the lattice difference compares sums on one Gauss rule and
                # one Gregory order: this level's own rule if it was held, the
                # one-lower rule (which the last level used) if it advanced
                if not self.held:
                    inner = abs(value - value_j)
                diffs.append(abs((value if self.held else value_j) - prev_value))
                d = inner + diffs[-1]
                err = inner + _lattice_error(diffs) + edge_err + fixed
                tol = cfg.tolerance(abs(value))
                if fixed > tol:  # no refinement can shrink these
                    raise _Stop("tail")
                contracting = prev_d is not None and (d < prev_d or d <= 1e-13 * abs(value))
                prev_d = d
                if contracting and err <= tol:
                    return IntegralResult(value, err, done, unit=levels)
                if not self.held:
                    self.held = abs(core - core_g) <= tol / 8.0
                    if not self.held:
                        rule += 1
            reason = "budget"
        except _Stop as stop:
            reason = stop.args[0]
        return IntegralResult(value, err if reason == "budget" else math.inf, done,
                              reason, levels)


def integral(functions, p: float, cfg: QuadratureConfig) -> IntegralResult:
    """||f||_p^p = (1/pi) int |f|^p dA of one function f, or the pairing
    (1/pi) int f conj(g) dA of two (at p = 2, q = 1 on both), on the
    lattice; exactly 0 where a function is zero (has no sides)."""
    factors = [f.sides for f in functions]
    if all(factors):
        return _LogPolarNorm(factors, p, cfg).run()
    return IntegralResult(0j if len(factors) == 2 else 0.0, 0.0, 1, unit="lattice levels")
