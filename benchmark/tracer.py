"""Per-layer tracing by wrapping the package's public callables from outside.

A span wrapper counts calls and measures self time: the call's duration
minus the durations of the wrapped calls inside it.  The hot polynomial
operators only increment counters.  Work counts (points, nodes, monomials,
term pairs) are read from the arguments and results at the same boundary.
Wrappers pass straight through while ``active`` is false, so one install
serves both the traced and the untraced passes of a traced run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import Counter
from math import comb
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from patching import Patches

# (metric, unit) in report order; BENCHMARK.json lists the same metrics
PER_LAYER = (
    ("polyalg.mul.calls", "count"),
    ("polyalg.mul.term_pairs", "count"),
    ("polyalg.add.calls", "count"),
    ("polyalg.reflect_poly.calls", "count"),
    ("polyalg.reflect_poly.self_s", "s"),
    ("polyalg.divided_difference.calls", "count"),
    ("polyalg.divided_difference.self_s", "s"),
    ("polyalg.divided_difference.distinct_ratio", "ratio"),
    ("polyalg.dunkl_apply.calls", "count"),
    ("polyalg.dunkl_apply.self_s", "s"),
    ("polyalg.dunkl_laplacian_fast.self_s", "s"),
    ("reflection.reflection_matrix.calls", "count"),
    ("reflection.reflection_matrix.self_s", "s"),
    ("reflection.root_vector.calls", "count"),
    ("reflection.weight.points", "count"),
    ("reflection.weight.self_s", "s"),
    ("harmonics.kernel_basis.calls", "count"),
    ("harmonics.kernel_basis.self_s", "s"),
    ("harmonics.kernel_basis.monomials", "count"),
    ("harmonics.fraction_kernel.self_s", "s"),
    ("quad.integrate_measure.calls", "count"),
    ("quad.integrate_measure.self_s", "s"),
    ("quad.integrate_measure.points", "count"),
    ("quad.integrate_measure.useful_point_ratio", "ratio"),
    ("quad.integrate_radial.calls", "count"),
    ("quad.integrate_radial.self_s", "s"),
    ("quad.integrate_radial.points", "count"),
    ("quad.sphere_rule.nodes", "count"),
    ("dunklnum.dunkl_gradient.calls", "count"),
    ("dunklnum.dunkl_gradient.points", "count"),
    ("dunklnum.dunkl_gradient.self_s", "s"),
    ("domains.distance_fn.points", "count"),
    ("domains.distance_fn.self_s", "s"),
    ("corpus.smooth_fn.points", "count"),
    ("corpus.smooth_fn.self_s", "s"),
    ("corpus.separable_mode.calls", "count"),
    ("corpus.separable_mode.self_s", "s"),
    ("corpus.mode_corpus.self_s", "s"),
    ("profiles.integral.calls", "count"),
    ("profiles.integral.self_s", "s"),
    ("profiles.pointwise.self_s", "s"),
    ("inequalities.sharpness_sweep.self_s", "s"),
    ("inequalities.oracle_quotient.self_s", "s"),
    ("inequalities.quadrature_quotient.self_s", "s"),
    ("inequalities.mode_quotient.self_s", "s"),
    ("inequalities.hardy_remainder_check.self_s", "s"),
    ("inequalities.hardy_eps_check.self_s", "s"),
    ("cli.run_suite.self_s", "s"),
    ("cli.emit_report.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

# (ratio metric, numerator count, denominator count)
RATIOS = (
    ("polyalg.divided_difference.distinct_ratio",
     "polyalg.divided_difference.distinct", "polyalg.divided_difference.calls"),
    ("quad.integrate_measure.useful_point_ratio",
     "quad.integrate_measure.useful_points", "quad.integrate_measure.points"),
)

# module functions timed as spans: (span name, module, attribute)
SPANS = (
    ("polyalg.reflect_poly", "polyalg", "reflect_poly"),
    ("polyalg.divided_difference", "polyalg", "divided_difference"),
    ("polyalg.dunkl_apply", "polyalg", "dunkl_apply"),
    ("polyalg.dunkl_laplacian_fast", "polyalg", "dunkl_laplacian_fast"),
    ("reflection.reflection_matrix", "reflection", "reflection_matrix"),
    ("reflection.weight", "reflection", "weight"),
    ("harmonics.kernel_basis", "harmonics", "kernel_basis"),
    ("harmonics.fraction_kernel", "harmonics", "fraction_kernel"),
    ("quad.integrate_measure", "quad", "integrate_measure"),
    ("quad.integrate_radial", "quad", "integrate_radial"),
    ("quad.sphere_rule", "quad", "sphere_rule"),
    ("dunklnum.dunkl_gradient", "dunklnum", "dunkl_gradient"),
    ("corpus.separable_mode", "corpus", "separable_mode"),
    ("corpus.mode_corpus", "corpus", "mode_corpus"),
    ("profiles.integral", "profiles", "integrate_profile_expression"),
    ("inequalities.sharpness_sweep", "inequalities", "sharpness_sweep"),
    ("inequalities.oracle_quotient", "inequalities", "oracle_quotient"),
    ("inequalities.quadrature_quotient", "inequalities", "quadrature_quotient"),
    ("inequalities.mode_quotient", "inequalities", "mode_quotient"),
    ("inequalities.hardy_remainder_check", "inequalities", "hardy_remainder_check"),
    ("inequalities.hardy_eps_check", "inequalities", "hardy_eps_check"),
    ("cli.run_suite", "cli", "run_suite"),
    ("cli.emit_report", "cli", "emit_report"),
)

# spans that also count the points of one positional argument
POINT_ARGS = {"reflection.weight": 1, "dunklnum.dunkl_gradient": 2}

PROFILE_METHODS = {
    "integral_value_power": "profiles.integral",
    "integral_deriv_power": "profiles.integral",
    "integral_laplacian_sq": "profiles.integral",
    "value": "profiles.pointwise",
    "deriv": "profiles.pointwise",
    "deriv2": "profiles.pointwise",
    "radial_laplacian": "profiles.pointwise",
}
DISTANCE_FIELDS = ("delta", "grad_delta", "laplacian_delta",
                   "dunkl_laplacian_delta", "rho_pairing")
SMOOTH_FIELDS = ("value", "gradient", "laplacian", "hessian")


def rows(x) -> int:
    """Number of points in a single point, an (M, N) batch or a 1-D grid."""
    shape = np.shape(x)
    return shape[0] if shape else 1


def _package(name):
    return importlib.import_module(f"dunkl_lab.{name}")


class Tracer:
    def __init__(self):
        self.active = False
        self.counts = Counter()
        self.times = Counter()
        self._stack = []  # time spent in wrapped children, per open span
        self._distinct = set()
        self._patches = Patches()

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` as a timed span; ``before`` may rewrite the bound
        arguments, ``after`` sees the result."""
        sig = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                before(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                elapsed = perf_counter() - start
                inner = self._stack.pop()
                self.times[name] += elapsed - inner
                if self._stack:
                    self._stack[-1] += elapsed

        return wrapper

    def point_span(self, name, fn, arg=0):
        """A span that also counts the points in positional argument ``arg``."""

        def before(arguments):
            self.counts[name + ".points"] += rows(list(arguments.values())[arg])

        return self.span(name, fn, before=before)

    def counted(self, name, fn, weigh=None):
        """Counter-only wrapper for the hot binary operators."""

        @functools.wraps(fn)
        def wrapper(a, b):
            if self.active:
                self.counts[name + ".calls"] += 1
                if weigh is not None:
                    self.counts[name + ".term_pairs"] += weigh(a, b)
            return fn(a, b)

        return wrapper

    def points_only(self, name, fn):
        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            if self.active:
                self.counts[name] += rows(x)
            return fn(x, *args, **kwargs)

        return wrapper

    def begin_op(self):
        """Distinct divided-difference inputs are counted per op."""
        self._distinct.clear()

    # -- hooks for particular layers ---------------------------------------

    def _count_distinct(self, arguments):
        p, root = arguments["p"], arguments["root"]
        key = hash((root.direction, p.nvars, frozenset(p.terms.items())))
        if key not in self._distinct:
            self._distinct.add(key)
            self.counts["polyalg.divided_difference.distinct"] += 1

    def _measure_points(self, arguments):
        grid, rule = arguments["grid"], arguments["rule"]
        self.counts["quad.integrate_measure.useful_points"] += (
            grid.nodes_per_interval * (len(grid.breakpoints) - 1) * len(rule.nodes)
        )
        arguments["f"] = self.points_only("quad.integrate_measure.points",
                                          arguments["f"])

    def _radial_points(self, arguments):
        arguments["g"] = self.points_only("quad.integrate_radial.points",
                                          arguments["g"])

    def _monomials(self, arguments):
        n, N = arguments["n"], arguments["rs"].dimension
        self.counts["harmonics.kernel_basis.monomials"] += comb(n + N - 1, N - 1)

    def _report_bytes(self, _result, args):
        outdir, _suite, _details, csvs = args
        names = ["summary.json", *csvs]
        self.counts["cli.report_bytes"] += sum(
            (Path(outdir) / n).stat().st_size for n in names
        )

    def _sphere_rule(self, fn):
        """Count the nodes of rules built, not of cache hits."""
        misses = getattr(fn, "cache_info", None)
        pending = []

        def before(_arguments):
            pending.append(misses().misses if misses else None)

        def after(rule, _args):
            start = pending.pop()
            if start is None or misses().misses > start:
                self.counts["quad.sphere_rule.nodes"] += len(rule.nodes)

        return self.span("quad.sphere_rule", fn, before, after)

    def _wrap_fields(self, obj, name, fields):
        return dataclasses.replace(obj, **{
            f: self.point_span(name, getattr(obj, f))
            for f in fields if getattr(obj, f) is not None
        })

    # -- install -----------------------------------------------------------

    def install(self):
        """Wrap every traced callable; call after importing ``dunkl_lab``."""
        hooks = {
            "polyalg.divided_difference": dict(before=self._count_distinct),
            "quad.integrate_measure": dict(before=self._measure_points),
            "quad.integrate_radial": dict(before=self._radial_points),
            "harmonics.kernel_basis": dict(before=self._monomials),
            "cli.emit_report": dict(after=self._report_bytes),
        }
        rebind = self._patches.rebind
        for name, module, attr in SPANS:
            fn = getattr(_package(module), attr)
            if name == "quad.sphere_rule":
                wrapped = self._sphere_rule(fn)
            elif name in POINT_ARGS:
                wrapped = self.point_span(name, fn, POINT_ARGS[name])
            else:
                wrapped = self.span(name, fn, **hooks.get(name, {}))
            rebind(fn, wrapped)

        polyalg = _package("polyalg")
        poly = polyalg.Polynomial

        def term_pairs(a, b):
            return len(a.terms) * (len(b.terms) if isinstance(b, poly) else 1)

        rebind(vars(poly)["__mul__"], self.counted("polyalg.mul", poly.__mul__,
                                                    term_pairs), [poly])
        rebind(vars(poly)["__add__"], self.counted("polyalg.add", poly.__add__),
               [poly])

        root = _package("reflection").Root
        vector = vars(root)["vector"]
        counts = self.counts

        def root_vector(r):
            if self.active:
                counts["reflection.root_vector.calls"] += 1
            return vector.fget(r)

        rebind(vector, property(root_vector), [root])

        profile = _package("profiles").PiecewiseProfile
        for method, name in PROFILE_METHODS.items():
            fn = vars(profile)[method]
            rebind(fn, self.span(name, fn), [profile])

        domains = _package("domains")
        distance_data = domains.distance_data

        def traced_distance_data(*args, **kwargs):
            return self._wrap_fields(distance_data(*args, **kwargs),
                                     "domains.distance_fn", DISTANCE_FIELDS)

        rebind(distance_data, functools.wraps(distance_data)(traced_distance_data))

        corpus = _package("corpus")
        smooth = corpus.SmoothFunction

        def traced_smooth_function(*args, **kwargs):
            fn = smooth(*args, **kwargs)
            return self._wrap_fields(dataclasses.replace(fn, check=False),
                                     "corpus.smooth_fn", SMOOTH_FIELDS)

        # only the corpus module constructs through this name
        rebind(smooth, traced_smooth_function, [corpus])

    def uninstall(self):
        self._patches.restore()

    # -- results -----------------------------------------------------------

    def take(self):
        """(counts, self times) recorded since the last take; resets both."""
        snapshot = (dict(self.counts), dict(self.times))
        self.counts.clear()
        self.times.clear()
        return snapshot

    @staticmethod
    def metrics(setup, passes, overhead_ratio: float) -> dict:
        """Per-layer metrics: counts of set-up plus the first traced pass;
        self times of set-up plus the median over traced passes."""
        counts = Counter(setup[0])
        counts.update(passes[0][0])
        names = {n for _, t in passes for n in t} | set(setup[1])
        times = {
            n: setup[1].get(n, 0.0) + median([t.get(n, 0.0) for _, t in passes])
            for n in names
        }
        values = {}
        for metric, _unit in PER_LAYER:
            if metric.endswith(".self_s"):
                values[metric] = times.get(metric[: -len(".self_s")], 0.0)
            else:
                values[metric] = counts.get(metric, 0)
        for metric, num, den in RATIOS:
            values[metric] = counts[num] / counts[den] if counts[den] else 0.0
        values["trace.overhead_ratio"] = overhead_ratio
        return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
