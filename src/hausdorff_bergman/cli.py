"""Command-line front end.

Subcommands: apply, norm, moment, classify, sweep, verify, plotdata.
Exit codes: 0 success, 1 numeric/verification failure, 2 usage or config
errors.  Complex numbers on the command line use the form a+bi with a
mandatory sign, e.g. 0.3+1.2i or -0.25-0.1i.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

from . import harness
from .errors import NumericsError, ParameterOutOfRange
from .halfplane import parse_function_spec
from .hausdorff import HausdorffOperator, apply_with_error, as_function
from .measure import (
    SCHEMA_VERSION,
    Measure,
    classify_boundedness,
    load_measure,
    moment,
    pushforward_inverse,
    theoretical_norm,
    truncate,
)
from .quadrature import QuadratureConfig, bergman_norm_p


_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (sign before the imaginary part is mandatory)."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"cannot parse complex number {text!r}; expected a+bi, e.g. 0.3+1.2i"
        )
    return complex(float(m.group("re")), float(m.group("im")))


def format_complex(z: complex) -> str:
    re, im = z.real, z.imag
    scale = max(abs(re), abs(im))
    if scale > 0.0:
        if abs(im) < 1e-13 * scale:
            im = 0.0
        if abs(re) < 1e-13 * scale:
            re = 0.0
    return f"{re:.12g}{im:+.12g}i"


def _config_from_args(args) -> QuadratureConfig:
    return QuadratureConfig(
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        max_subdivisions=args.max_subdiv,
    )


def _add_quadrature_flags(sp) -> None:
    """The tolerance and budget flags, for the commands that integrate,
    defaulting to the experiment suite's."""
    cfg = harness.default_config()
    sp.add_argument("--rel-tol", type=float, default=cfg.rel_tol)
    sp.add_argument("--abs-tol", type=float, default=cfg.abs_tol)
    sp.add_argument("--max-subdiv", type=int, default=cfg.max_subdivisions,
                    help="budget: panel bisections of a one-dimensional integral; "
                         "for half-plane norms and pairings (log-polar lattice), "
                         "10,000 family evaluations per unit")


def _add_outdir_flag(sp) -> None:
    """-o, for the commands that write files."""
    sp.add_argument("-o", "--outdir", type=Path, default=None,
                    help="directory for output files")


def _operator_measure(path: str, quasi: bool, delta: float | None) -> Measure:
    """The measure at path, after --quasi's push-forward and --delta's truncation."""
    mu = _load_measure_arg(path)
    mu = pushforward_inverse(mu) if quasi else mu
    return mu if delta is None else truncate(mu, delta)


def _load_measure_arg(path: str) -> Measure:
    try:
        return load_measure(path)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load measure {path}: {exc}") from exc


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_apply(args) -> int:
    if not args.point and not args.points:
        raise ValueError("apply needs -z/--point or --points FILE")
    mu = _operator_measure(args.measure, args.quasi, args.delta)
    f = parse_function_spec(args.function)
    cfg = _config_from_args(args)
    op = HausdorffOperator(mu, p=args.p)

    def one(z: complex):
        res = apply_with_error(op, f, z, cfg)
        return res.value, res.error_estimate

    if args.points:
        try:
            with open(args.points, "r", encoding="utf-8") as fh:
                lines = [line.strip() for line in fh]
        except OSError as exc:
            raise ValueError(f"cannot read points file {args.points}: {exc}") from exc
        rows = [["x", "y", "re", "im", "err"]]
        for z in (parse_complex(s) for s in lines if s and not s.startswith("#")):
            v, e = one(z)
            rows.append([f"{x:.12g}" for x in (z.real, z.imag, v.real, v.imag, e)])
        if not args.outdir:
            csv.writer(sys.stdout).writerows(rows)
            return 0
        args.outdir.mkdir(parents=True, exist_ok=True)
        with open(args.outdir / "apply.csv", "w", encoding="utf-8", newline="") as out:
            csv.writer(out).writerows(rows)
        print(args.outdir / "apply.csv")
        return 0

    z = parse_complex(args.point)
    value, err = one(z)
    print(format_complex(value))
    print(f"error {err:.3g}")
    return 0


def cmd_norm(args) -> int:
    f = parse_function_spec(args.function)
    cfg = _config_from_args(args)
    if args.measure:
        op = HausdorffOperator(_operator_measure(args.measure, args.quasi, args.delta), args.p)
        f = as_function(op, f)
    res = bergman_norm_p(f, args.p, cfg)
    print(f"{res.value:.12g}")
    print(f"error {res.error_estimate:.3g}")
    return 0 if res.converged else 1


def cmd_moment(args) -> int:
    mu = _load_measure_arg(args.measure)
    cfg = _config_from_args(args)
    if args.alpha is None:
        res = theoretical_norm(mu, args.p, cfg)
    else:
        res = moment(mu, args.alpha, cfg)
    if math.isinf(res.value):
        print("inf")
        return 0
    print(f"{res.value:.12g}")
    print(f"error {res.error_estimate:.3g}")
    return 0


def cmd_classify(args) -> int:
    mu = _load_measure_arg(args.measure)
    verdict = classify_boundedness(mu, args.p)
    print(verdict.value)
    return 0


def cmd_sweep(args) -> int:
    mu = _operator_measure(args.measure, False, args.delta)
    cfg = _config_from_args(args)
    epsilons = tuple(float(e) for e in args.epsilons.split(","))
    report = harness.run_sharpness_experiment(mu, args.p, epsilons, cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sharpness" if args.delta is None else "truncated",
        "p": args.p,
        "delta": args.delta,
        "epsilons": report.parameters["epsilons"],
        "ratios": report.details["ratios"],
        "target": report.expected,
        "extrapolated": report.computed,
        "passed": report.passed,
    }
    outdir = args.outdir or Path(".")
    path = outdir / "sweep.json"
    _write_json(path, payload)
    for eps, ratio in zip(payload["epsilons"], payload["ratios"]):
        print(f"eps={eps:g} ratio={ratio:.10g}")
    print(f"extrapolated {report.computed:.10g}")
    print(f"target {report.expected:.10g}")
    print(path)
    return 0 if report.passed else 1


def cmd_plotdata(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        epsilons = list(doc["epsilons"])
        ratios = list(doc["ratios"])
        target = doc["target"]
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return _usage_error(f"cannot read sweep report {args.report}: {exc}")
    outdir = args.outdir or Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep_plot.dat"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# target {target!r}\n")
        for eps, ratio in zip(epsilons, ratios):
            fh.write(f"{eps!r} {ratio!r}\n")
    print(path)
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    if args.suite:
        try:
            with open(args.suite, "r", encoding="utf-8") as fh:
                suite = json.load(fh)
            experiments = list(suite["experiments"])
            base = Path(args.suite).resolve().parent
        except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
            return _usage_error(f"cannot read suite config {args.suite}: {exc}")
    else:
        experiments = harness.BUILTIN_SUITE["experiments"]
        base = Path(".")

    reports = []
    for entry in experiments:
        try:
            reports.extend(harness.run_suite_entry(entry, base, cfg))
        except ParameterOutOfRange as exc:
            return _usage_error(f"experiment parameters out of range: {exc}")
        except (KeyError, ValueError, TypeError) as exc:
            return _usage_error(f"bad experiment entry {entry!r}: {exc}")

    reports.sort(key=lambda r: (r.experiment, json.dumps(r.to_dict()["parameters"],
                                                         sort_keys=True)))
    outdir = args.outdir or Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "reports.json",
                {"schema_version": SCHEMA_VERSION,
                 "reports": [r.to_dict() for r in reports]})
    with open(outdir / "reports.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "passed", "computed", "expected",
                         "tolerance", "runtime_ms", "parameters"])
        for r in reports:
            d = r.to_dict()
            writer.writerow([
                d["experiment"], d["passed"], json.dumps(d["computed"]),
                json.dumps(d["expected"]), d["tolerance"], d["runtime_ms"],
                json.dumps(d["parameters"], sort_keys=True),
            ])
    n_failed = sum(1 for r in reports if not r.passed)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.experiment} {json.dumps(r.to_dict()['parameters'], sort_keys=True)}")
    print(f"{len(reports) - n_failed}/{len(reports)} passed")
    print(outdir / "reports.json")
    return 0 if n_failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hausdorff-bergman",
        description="Dilation-average operators on Bergman spaces of the "
                    "upper half-plane: evaluation, norms, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("apply", help="evaluate the operator at a point")
    sp.add_argument("-m", "--measure", required=True)
    sp.add_argument("-f", "--function", required=True)
    sp.add_argument("-z", "--point", help="evaluation point a+bi")
    sp.add_argument("--points", help="file with one point per line (batch CSV mode)")
    sp.add_argument("-p", type=float, default=2.0)
    sp.add_argument("--delta", type=float, default=None,
                    help="truncate the measure to [delta, 1/delta]")
    sp.add_argument("--quasi", action="store_true",
                    help="evaluate the adjoint operator instead")
    _add_quadrature_flags(sp)
    _add_outdir_flag(sp)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("norm", help="Bergman norm of a function or operator image")
    sp.add_argument("-f", "--function", required=True)
    sp.add_argument("-m", "--measure", default=None)
    sp.add_argument("-p", type=float, default=2.0)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--quasi", action="store_true")
    _add_quadrature_flags(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("moment", help="moment integral of a measure")
    sp.add_argument("-m", "--measure", required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("-p", type=float, default=2.0,
                    help="use the norm exponent 2/p - 1 when --alpha is absent")
    _add_quadrature_flags(sp)
    sp.set_defaults(func=cmd_moment)

    sp = sub.add_parser("classify", help="boundedness classification")
    sp.add_argument("-m", "--measure", required=True)
    sp.add_argument("-p", type=float, default=2.0)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("sweep", help="sharpness sweep against the exact norm")
    sp.add_argument("-m", "--measure", required=True)
    sp.add_argument("-p", type=float, default=2.0)
    sp.add_argument("--epsilons", default=",".join(map(str, harness.DEFAULT_EPSILONS)))
    sp.add_argument("--delta", type=float, default=None)
    _add_quadrature_flags(sp)
    _add_outdir_flag(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", default=None,
                    help="suite config JSON (default: built-in suite)")
    _add_quadrature_flags(sp)
    _add_outdir_flag(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plotdata", help="plot-ready data from a sweep report")
    sp.add_argument("--report", required=True)
    _add_outdir_flag(sp)
    sp.set_defaults(func=cmd_plotdata)

    return ap


def _merge_point_values(argv):
    """Join '-z -5+2i' into '-z=-5+2i' so argparse does not read a complex
    value with a negative real part as an option string."""
    merged = []
    it = iter(argv)
    for token in it:
        if token in ("-z", "--point"):
            value = next(it, None)
            if value is None:
                merged.append(token)
            elif value.startswith("-") and _COMPLEX_RE.match(value.strip()):
                merged.append(f"--point={value}")
            else:
                merged.extend([token, value])
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_point_values(list(argv)))
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
