"""The benchmark's four workloads: their inputs, operation lists and checks.

`setup(name, seed, workdir)` imports the library, builds every input
through the CLI's parsers (`measure_from_json`, `parse_function_spec`, the
`argparse` defaults) and runs one warm-up operation.  It returns the fixed
list of operations that one round times.

Each operation has three parts:
  run      the timed call through the library's public API;
  outcome  an untimed conversion of its result into plain values, so that
           rounds can be compared bitwise;
  check    an untimed comparison of the outcome with a value computed apart
           from the library (see oracles.py) or with a property the paper
           proves; it returns a failure reason or None.

Operations look the library up through its modules at call time, so the
spans that tracing.py installs see every call.

This module imports only the standard library at load time: the set-up
probes time the library's import themselves.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("operator_norm", "closed_form", "apply_batch", "verify_suite")

# the reference measures, written as the CLI reads them
MEASURE_DOCS = {
    "uniform": {"atoms": [], "segments": [
        {"lo": 1.0, "hi": 2.0, "density": {"kind": "const", "params": [1.0]}}]},
    "exp": {"atoms": [], "segments": [
        {"lo": 0.0, "hi": "inf", "density": {"kind": "exp", "params": [1.0, 1.0]},
         "exp_lo": 0.0, "exp_hi": "-inf"}]},
    "rsqrt": {"atoms": [], "segments": [
        {"lo": 0.0, "hi": 1.0, "density": {"kind": "power", "params": [1.0, -0.5]},
         "exp_lo": -0.5}]},
}
# atoms plus a density given as an `expr`, for apply_batch
MIXED_ATOMS = ((0.5, 0.3), (3.0, 0.2))
MIXED_DOC = {
    "atoms": [{"t": t, "w": w} for t, w in MIXED_ATOMS],
    "segments": [{"lo": 0.5, "hi": 4.0,
                  "density": {"kind": "expr", "params": ["t*exp(-t)"]}}],
}

NORM_EPS = 0.1  # f_0.1 = (z + 0.1i)^-(2/p + 0.1)
# p values per measure.  e^-t and t^-1/2 cost 0.4-1.1 s per norm; keeping
# them at p = 2 (where the norm is known exactly) holds a round at 2.5-3.7 s,
# so each operation is timed 7-10 times in a 25 s run.  With every p on
# every measure a round took 11 s, each operation was timed twice, and
# wall_s spread 13-26% between runs on a shared host.
NORM_PS = {"uniform": (1.0, 1.5, 2.0, 4.0), "exp": (2.0,), "rsqrt": (2.0,)}

CF_TOLS = (1e-6, 1e-9)
CF_PS = (1.0, 1.5, 2.0, 4.0)
CF_EPSILONS = (0.2, 0.1, 0.05, 0.025, 0.0125)
# (rel_tol, p, eps) where bergman_norm_p of f_eps ends unconverged today;
# they are left out (each costs ~1 s and checks nothing)
CF_UNCONVERGED = {
    (1e-6, 1.0, 0.0125), (1e-6, 1.5, 0.0125),
    (1e-9, 1.0, 0.025), (1e-9, 1.0, 0.0125), (1e-9, 1.5, 0.025),
    (1e-9, 1.5, 0.0125), (1e-9, 2.0, 0.0125),
}
CF_GMOD = [(p, lam, delta) for p in (1.0, 2.0, 4.0) for lam in (0.1, 2.0)
           for delta in (0.05, 2.0)]
CF_PAIR_EXPONENTS = (1.1, 1.5, 2.0, 3.0)
CF_PAIR_SHIFTS = ((1.0, 1.0), (0.5, 2.0), (0.05, 0.2), (0.02, 1.0))
# (rel_tol, a, alpha, beta) where pairing ends unconverged today
CF_PAIR_UNCONVERGED = {
    (1e-9, 1.5, 1.0, 1.0), (1e-9, 2.0, 0.5, 2.0), (1e-9, 2.0, 0.02, 1.0),
    (1e-9, 3.0, 0.5, 2.0),
}
CF_ABS_TOL = 1e-10  # the CLI default

APPLY_POINTS = 1000
APPLY_ORACLE_POINTS = 16  # seeded subset checked with mpmath
APPLY_X = (-4.0, 4.0)
APPLY_Y = (1e-2, 1e2)
APPLY_SPEC = "ratpow:shift=1,exp=2"  # (z + i)^-2
APPLY_TOLS = (1e-10, 1e-13)  # rel_tol, abs_tol

VERIFY_REPORTS = 20  # reports the built-in suite writes
WARMUP_SUITE = {"experiments": [
    {"kind": "gnorm", "lambdas": [1.0], "deltas": [1.0], "p": 2.0}]}

# a check passes when |value - oracle| <= error_estimate + ULPS * eps * |oracle|
ULPS = 4.0
_EPS = 2.0 ** -52


def _oracles():
    """oracles.py, imported on first use: it loads mpmath, which set-up must not time."""
    import oracles

    return oracles


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    outcome: Callable[[object], object]
    check: Callable[[object], "str | None"]


def _within(value, oracle, err: float) -> bool:
    return abs(value - oracle) <= err + ULPS * _EPS * abs(oracle)


def _integral_outcome(res):
    return (res.value, float(res.error_estimate), bool(res.converged))


def _check_integral(outcome, oracle: float | None = None,
                    ceiling: float | None = None) -> str | None:
    value, err, converged = outcome
    if not converged:
        return "unconverged"
    if oracle is not None and not _within(value, oracle, err):
        return (f"|value - oracle| = {abs(value - oracle):.3g} exceeds "
                f"error_estimate {err:.3g} (oracle {oracle!r})")
    if ceiling is not None and value - err > ceiling * (1.0 + ULPS * _EPS):
        return f"value {value!r} above the moment ceiling {ceiling!r}"
    return None


def _cli_norm_config(cli, hb, spec: str, p: float):
    """The configuration `hausdorff-bergman norm -f spec -m mu -p p` uses."""
    args = cli.build_parser().parse_args(["norm", "-f", spec, "-m", "mu.json", "-p", repr(p)])
    return hb.QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                               max_subdivisions=args.max_subdiv)


# ---------------------------------------------------------------------------
# operator_norm: ||H f||_p through the nested `norm -m` path
# ---------------------------------------------------------------------------


def _operator_norm_ops(hb, cli) -> list:
    ops = []
    for mname, ps in NORM_PS.items():
        mu = hb.measure_from_json(MEASURE_DOCS[mname])
        for p in ps:
            for spec, a, eps in (
                (f"test:p={p!r},eps={NORM_EPS!r}", 2.0 / p + NORM_EPS, NORM_EPS),
                (f"ratpow:shift=1,exp={2.0 / p + 1.0!r}", 2.0 / p + 1.0, 1.0),
            ):
                f = hb.parse_function_spec(spec)
                cfg = _cli_norm_config(cli, hb, spec, p)

                def run(mu=mu, f=f, p=p, cfg=cfg):
                    op = hb.HausdorffOperator(mu, p)
                    return hb.bergman_norm_p(hb.as_function(op, f, cfg.tighter()), p, cfg)

                def check(out, mname=mname, p=p, a=a, eps=eps):
                    exact = _oracles().operator_norm_p2(mname, a, eps) if p == 2.0 else None
                    return _check_integral(out, exact,
                                           _oracles().norm_ceiling(mname, p, a, eps))

                ops.append(Op(f"norm {mname} p={p:g} {spec}", run, _integral_outcome, check))
    return ops


# ---------------------------------------------------------------------------
# closed_form: the 2-D polar engine on families with closed-form answers
# ---------------------------------------------------------------------------


def _closed_form_ops(hb) -> list:
    ops = []
    for rt in CF_TOLS:
        cfg = hb.QuadratureConfig(rel_tol=rt, abs_tol=CF_ABS_TOL)
        for p in CF_PS:
            for eps in CF_EPSILONS:
                if (rt, p, eps) in CF_UNCONVERGED:
                    continue
                spec = f"test:p={p!r},eps={eps!r}"
                f = hb.parse_function_spec(spec)
                a = 2.0 / p + eps
                ops.append(Op(
                    f"feps rel_tol={rt:g} {spec}",
                    lambda f=f, p=p, cfg=cfg: hb.bergman_norm_p(f, p, cfg),
                    _integral_outcome,
                    lambda out, p=p, a=a, eps=eps: _check_integral(
                        out, _oracles().ratpow_norm(p, a, eps)),
                ))
        for p, lam, delta in CF_GMOD:
            spec = f"gmod:lambda={lam!r},delta={delta!r},p={p!r}"
            g = hb.parse_function_spec(spec)
            ops.append(Op(
                f"gmod rel_tol={rt:g} {spec}",
                lambda g=g, p=p, cfg=cfg: hb.bergman_norm_p(g, p, cfg),
                _integral_outcome,
                lambda out, p=p, lam=lam, delta=delta: _check_integral(
                    out, _oracles().gmod_norm(lam, delta, p)),
            ))
        for a in CF_PAIR_EXPONENTS:
            for alpha, beta in CF_PAIR_SHIFTS:
                if (rt, a, alpha, beta) in CF_PAIR_UNCONVERGED:
                    continue
                f = hb.parse_function_spec(f"ratpow:shift={alpha!r},exp={a!r}")
                g = hb.parse_function_spec(f"ratpow:shift={beta!r},exp={a!r}")
                ops.append(Op(
                    f"pairing rel_tol={rt:g} a={a:g} alpha={alpha:g} beta={beta:g}",
                    lambda f=f, g=g, cfg=cfg: hb.pairing(f, g, cfg),
                    _integral_outcome,
                    lambda out, a=a, alpha=alpha, beta=beta: _check_integral(
                        out, _oracles().ratpow_pairing(alpha, beta, a)),
                ))
    return ops


# ---------------------------------------------------------------------------
# apply_batch: operator values at seeded batches of points
# ---------------------------------------------------------------------------


def apply_points(seed: int):
    """APPLY_POINTS seeded points: x uniform on APPLY_X and y log-uniform on
    APPLY_Y, both stratified so every batch reaches the same extremes (the
    adaptive rule works for its hardest point), plus the seeded oracle subset."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = APPLY_POINTS
    ux = (np.arange(n) + rng.uniform(size=n)) / n
    uy = (np.arange(n) + rng.uniform(size=n)) / n
    rng.shuffle(uy)
    x = APPLY_X[0] + (APPLY_X[1] - APPLY_X[0]) * ux
    y = APPLY_Y[0] * (APPLY_Y[1] / APPLY_Y[0]) ** uy
    subset = np.sort(rng.choice(n, APPLY_ORACLE_POINTS, replace=False))
    return x + 1j * y, subset


def _apply_ops(hb, seed: int) -> list:
    import numpy as np

    z, subset = apply_points(seed)
    cfg = hb.QuadratureConfig(rel_tol=APPLY_TOLS[0], abs_tol=APPLY_TOLS[1])
    f = hb.parse_function_spec(APPLY_SPEC)
    a, eps = 2.0, 1.0

    def oracle_for(mname):
        """(indices, exact values) that the measure's apply op is checked at."""
        ora = _oracles()
        if mname == "uniform":
            return np.arange(len(z)), ora.apply_uniform_ratpow2(z)
        exact = np.array([ora.apply_density(mname, zz, a, eps) for zz in z[subset]])
        if mname == "mixed":
            exact = exact + ora.apply_atoms(MIXED_ATOMS, z[subset], a, eps)
        return subset, exact

    def check_batch(out, mname):
        values, err, converged = out
        if not converged:
            return "unconverged"
        idx, exact = oracle_for(mname)
        dev = np.abs(values[idx] - exact)
        allowed = err + ULPS * _EPS * np.abs(exact)
        if np.any(dev > allowed):
            k = int(np.argmax(dev - allowed))
            return (f"|value - oracle| = {dev[k]:.3g} at z={z[idx][k]!r} exceeds "
                    f"error_estimate {err:.3g}")
        return None

    ops = []
    for mname in ("uniform", "exp", "rsqrt", "mixed"):
        doc = MIXED_DOC if mname == "mixed" else MEASURE_DOCS[mname]
        op = hb.HausdorffOperator(hb.measure_from_json(doc), 2.0)
        ops.append(Op(
            f"apply {mname} {APPLY_SPEC}",
            lambda op=op: hb.apply_with_error(op, f, z, cfg),
            lambda res: (np.asarray(res.value), float(res.error_estimate), bool(res.converged)),
            lambda out, mname=mname: check_batch(out, mname),
        ))

    mu_exp = hb.measure_from_json(MEASURE_DOCS["exp"])

    def check_quasi(values):
        # apply_quasi reports no error estimate: hold it to the tolerance it was asked for
        exact = np.array([_oracles().apply_quasi_exp(zz, a, eps) for zz in z[subset]])
        dev = np.abs(values[subset] - exact)
        allowed = max(cfg.abs_tol, cfg.rel_tol * float(np.max(np.abs(exact))))
        if np.max(dev) > allowed:
            return f"max |value - oracle| = {np.max(dev):.3g} exceeds {allowed:.3g}"
        return None

    ops.append(Op(
        f"apply_quasi exp {APPLY_SPEC}",
        lambda: hb.apply_quasi(mu_exp, f, z, cfg),
        np.asarray,
        check_quasi,
    ))
    return ops


# ---------------------------------------------------------------------------
# verify_suite: `hausdorff-bergman verify` on the built-in suite
# ---------------------------------------------------------------------------


def _run_cli(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_reports(outdir: Path) -> list:
    with open(outdir / "reports.json", encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    for r in reports:
        r.pop("runtime_ms")
    return reports


def _check_reports(out) -> str | None:
    """Every report passed, and the values that have closed forms match them."""
    ora = _oracles()
    code, reports = out
    if code != 0:
        return f"verify exited with {code}"
    if len(reports) != VERIFY_REPORTS:
        return f"{len(reports)} reports, expected {VERIFY_REPORTS}"
    failed = [r["experiment"] for r in reports if not r["passed"]]
    if failed:
        return f"reports failed: {failed}"

    def feps_pp(p, eps):
        return ora.ratpow_norm(p, 2.0 / p + eps, eps) ** p

    for r in reports:
        kind, par, tol = r["experiment"], r["parameters"], r["tolerance"]
        if kind == "gnorm_bounds":
            exact = ora.gmod_norm(par["lambda"], par["delta"], par["p"]) ** par["p"]
            got = r["computed"]
            bad = not _within(got, exact, r["details"]["error_estimate"])
        elif kind == "feps_norm_equivalence":
            exact, got = feps_pp(par["p"], par["eps"]), r["details"]["norm_power"]
            bad = abs(got - exact) > tol * exact
        elif kind == "lower_bound":
            # the suite runs it on the unit atom, where H f = f
            exact, got = feps_pp(par["p"], par["eps"]), r["computed"]
            bad = abs(got - exact) > tol * exact
        elif kind == "sharpness":
            # uniform[1, 2] at p = 2: target 1, and the ratios are exact
            exact = [ora.operator_norm_p2("uniform", 1.0 + e, e) / ora.ratpow_norm(2.0, 1.0 + e, e)
                     for e in par["epsilons"]]
            got = r["details"]["ratios"]
            bad = (abs(r["expected"] - 1.0) > 1e-6
                   or any(abs(g - e) > 1e-5 * e for g, e in zip(got, exact)))
        elif kind == "truncated_norm":
            exact = 1.25 * math.exp(-0.25) - 5.0 * math.exp(-4.0)  # int_{1/4}^4 t e^-t dt
            got = r["expected"]
            bad = abs(got - exact) > 1e-6 * exact
        elif kind.startswith("sector_case"):
            exact, got = 0, r["computed"]
            bad = got != 0
        else:
            continue
        if bad:
            return f"{kind} {par}: {got!r} against {exact!r}"
    return None


def _verify_ops(cli, workdir: Path) -> list:
    outdir = workdir / "verify"
    argv = ["verify", "-o", str(outdir)]
    return [Op("verify pass", lambda: _run_cli(cli, argv),
               lambda code: (code, _read_reports(outdir)), _check_reports)]


# ---------------------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path, warm_up: bool = True) -> list:
    """Import the library, build the workload's operation list and run one
    warm-up operation: the list's first, or for verify_suite a one-entry suite."""
    import hausdorff_bergman as hb
    from hausdorff_bergman import cli

    if name == "operator_norm":
        ops = _operator_norm_ops(hb, cli)
    elif name == "closed_form":
        ops = _closed_form_ops(hb)
    elif name == "apply_batch":
        ops = _apply_ops(hb, seed)
    elif name == "verify_suite":
        ops = _verify_ops(cli, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if warm_up:
        if name == "verify_suite":
            suite = workdir / "warmup_suite.json"
            suite.write_text(json.dumps(WARMUP_SUITE), encoding="utf-8")
            _run_cli(cli, ["verify", "--suite", str(suite), "-o", str(workdir / "warmup")])
        else:
            ops[0].run()
    return ops
