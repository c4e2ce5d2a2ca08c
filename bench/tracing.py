"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces the library's public callables at each module
boundary with wrappers that record a span (name, parent span, start, end,
points) and restores them on `uninstall()`.  The library's code is not
changed: a wrapper is put wherever a module holds a reference to the
original, so calls between modules go through it too.

Spans, by name:
  quadrature             bergman_norm_p, bergman_norm_p_power, pairing
  quadrature.integrand   the evaluator of the function handed to them;
                         points are counted on the first argument only
  hausdorff              the evaluator of as_function's result, apply,
                         apply_with_error, apply_quasi (points = outputs)
  measure.density        density callables built by DensitySegment.from_spec
  measure.moment         moment, theoretical_norm
  halfplane              family evaluators: rational_power's result,
                         TestFunction.__call__, ModulusFunction.__call__
  harness.<kind>         harness.run_* for each experiment kind
  cli                    cli.main

A span is not opened while one of its group is open (bergman_norm_p calls
bergman_norm_p_power; run_boundedness_matrix calls run_sharpness_sweep), so
each layer's time is counted once.  Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict

HARNESS_KINDS = {
    "run_gnorm_experiment": "gnorm",
    "run_sharpness_sweep": "sharpness",
    "run_truncated_norm_experiment": "truncated",
    "run_sector_experiment": "sector",
    "run_boundedness_matrix": "boundedness",
    "run_growth_decay_check": "growth",
    "run_lower_bound_experiment": "lower_bound",
    "run_feps_norm_experiment": "feps_norm",
    "run_quasi_equivalence": "quasi",
    "run_minkowski_samples": "minkowski",
}

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("quadrature.outer_calls", "count", "lower"),
    ("quadrature.outer_points", "count", "lower"),
    ("quadrature.outer_self_s", "s", "lower"),
    ("hausdorff.inner_calls", "count", "lower"),
    ("hausdorff.inner_nodes", "count", "lower"),
    ("hausdorff.inner_nodes_per_outer_point", "count", "lower"),
    ("hausdorff.self_s", "s", "lower"),
    ("halfplane.points", "count", "lower"),
    ("halfplane.eval_s", "s", "lower"),
    ("halfplane.points_per_s", "1/s", "higher"),
    ("measure.density_s", "s", "lower"),
    ("measure.moment_s", "s", "lower"),
    *[(f"harness.{kind}_s", "s", "lower") for kind in HARNESS_KINDS.values()],
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_NAME, _PARENT, _T0, _T1, _POINTS = range(5)


def _points_of(z) -> int:
    import numpy as np

    return int(np.size(z))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, group: str | None = None, points=None):
        """fn, recording a span per call; points(args, kwargs) counts its payload."""
        group = group or name
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if open_[group]:
                return fn(*args, **kwargs)
            sid = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   None if points is None else points(args, kwargs)]
            spans.append(rec)
            stack.append(sid)
            open_[group] += 1
            rec[_T0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_T1] = clock()
                open_[group] -= 1
                stack.pop()

        return traced

    def _with_evaluator(self, f, name: str, points=True):
        """A copy of the half-plane function f whose evaluator records spans."""
        counter = (lambda a, k: _points_of(a[0])) if points else None
        return dataclasses.replace(f, evaluator=self.wrap(name, f.evaluator, points=counter))

    # -- installation ------------------------------------------------------

    def _replace(self, modules, name: str, original, wrapper) -> None:
        for mod in modules:
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                self._restore.append((mod, name, original))

    def install(self) -> None:
        import hausdorff_bergman as hb
        from hausdorff_bergman import cli, halfplane, harness, hausdorff, measure, quadrature

        modules = (hb, cli, halfplane, harness, hausdorff, measure, quadrature)
        HalfPlaneFunction = halfplane.HalfPlaneFunction

        def outer(fn, n_functions):
            def call(*args, **kwargs):
                args = list(args)
                for i in range(n_functions):
                    if isinstance(args[i], HalfPlaneFunction):
                        args[i] = self._with_evaluator(args[i], "quadrature.integrand",
                                                       points=(i == 0))
                return fn(*args, **kwargs)

            traced = self.wrap("quadrature", call)

            def entry(*args, **kwargs):
                # bergman_norm_p calls bergman_norm_p_power: wrap the integrand once
                if self._open["quadrature"]:
                    return fn(*args, **kwargs)
                return traced(*args, **kwargs)

            return entry

        for name, n in (("bergman_norm_p", 1), ("bergman_norm_p_power", 1), ("pairing", 2)):
            orig = getattr(quadrature, name)
            self._replace(modules, name, orig, outer(orig, n))

        def z_points(args, kwargs):
            return _points_of(args[2] if len(args) > 2 else kwargs["z"])

        for name in ("apply", "apply_with_error", "apply_quasi"):
            orig = getattr(hausdorff, name)
            self._replace(modules, name, orig, self.wrap("hausdorff", orig, points=z_points))

        orig_as_function = hausdorff.as_function

        def as_function(*args, **kwargs):
            return self._with_evaluator(orig_as_function(*args, **kwargs), "hausdorff")

        self._replace(modules, "as_function", orig_as_function, as_function)

        orig_rational_power = halfplane.rational_power

        def rational_power(*args, **kwargs):
            return self._with_evaluator(orig_rational_power(*args, **kwargs), "halfplane")

        self._replace(modules, "rational_power", orig_rational_power, rational_power)
        for cls in (halfplane.TestFunction, halfplane.ModulusFunction):
            orig = cls.__dict__["__call__"]
            cls.__call__ = self.wrap("halfplane", orig,
                                     points=lambda a, k: _points_of(a[1]))
            self._restore.append((cls, "__call__", orig))

        seg_cls = measure.DensitySegment
        orig_from_spec = seg_cls.__dict__["from_spec"]

        def from_spec(cls, *args, **kwargs):
            seg = orig_from_spec.__func__(cls, *args, **kwargs)
            return dataclasses.replace(seg, density=self.wrap(
                "measure.density", seg.density, points=lambda a, k: _points_of(a[0])))

        seg_cls.from_spec = classmethod(from_spec)
        self._restore.append((seg_cls, "from_spec", orig_from_spec))

        for name in ("moment", "theoretical_norm"):
            orig = getattr(measure, name)
            self._replace(modules, name, orig, self.wrap("measure.moment", orig))

        for fname, kind in HARNESS_KINDS.items():
            orig = getattr(harness, fname)
            self._replace(modules, fname, orig, self.wrap(f"harness.{kind}", orig, group="harness"))

        self._replace(modules, "main", cli.main, self.wrap("cli", cli.main))

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._restore):
            setattr(obj, name, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()

    def metrics(self, overhead_s: float) -> dict:
        """The per-layer metrics over the spans recorded since the last reset."""
        spans = self.spans
        child_time = defaultdict(float)
        inner_nodes_under = defaultdict(int)  # hausdorff span -> density nodes inside it
        inner_calls = 0
        for rec in spans:
            parent = rec[_PARENT]
            if parent >= 0:
                child_time[parent] += rec[_T1] - rec[_T0]
                if rec[_NAME] == "measure.density" and spans[parent][_NAME] == "hausdorff":
                    inner_nodes_under[parent] += rec[_POINTS]
                    inner_calls += 1

        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        points = Counter()
        for sid, rec in enumerate(spans):
            dur = rec[_T1] - rec[_T0]
            total[rec[_NAME]] += dur
            self_time[rec[_NAME]] += dur - child_time[sid]
            if rec[_POINTS] is not None:
                calls[rec[_NAME]] += 1
                points[rec[_NAME]] += rec[_POINTS]

        # each output point of H f is evaluated at every inner node of its call
        weighted = sum(n * spans[sid][_POINTS] for sid, n in inner_nodes_under.items())
        out_points = points["hausdorff"]
        family_s = total["halfplane"]
        values = {
            "quadrature.outer_calls": calls["quadrature.integrand"],
            "quadrature.outer_points": points["quadrature.integrand"],
            "quadrature.outer_self_s": self_time["quadrature"],
            "hausdorff.inner_calls": inner_calls,
            "hausdorff.inner_nodes": sum(inner_nodes_under.values()),
            "hausdorff.inner_nodes_per_outer_point": weighted / out_points if out_points else 0.0,
            "hausdorff.self_s": self_time["hausdorff"],
            "halfplane.points": points["halfplane"],
            "halfplane.eval_s": family_s,
            "halfplane.points_per_s": points["halfplane"] / family_s if family_s else 0.0,
            "measure.density_s": total["measure.density"],
            "measure.moment_s": total["measure.moment"],
            **{f"harness.{kind}_s": total[f"harness.{kind}"] for kind in HARNESS_KINDS.values()},
            "cli.self_s": self_time["cli"],
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write the recorded spans as JSON: [name, parent index, start, end, points]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s", "points"],
                       "spans": self.spans}, fh, separators=(",", ":"))
