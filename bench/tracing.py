"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each function in ``WRAPPED`` at every place it is
bound inside ``bic_lab`` (the defining module, the package namespace and
every module that imported it by name), so calls the package makes to itself
are seen too; ``Tracer.enable(False)`` puts the originals back for a while.  Spans are kept in memory as ``[name, task, parent, start,
end, raised]`` and written out when the run ends; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import csv
import functools
import sys
from time import perf_counter

WRAPPED = (
    ("hamiltonian", "build"),
    ("hamiltonian", "eigensystem"),
    ("bic", "solve_bic"),
    ("bic", "certify"),
    ("spectrum", "spectrum_series"),
    ("spectrum", "peak_metrics"),
    ("spectrum", "refine_peak"),
    ("spectrum", "sweep_eta"),
    ("microscopic", "pv_integral"),
    ("microscopic", "derive_couplings"),
    ("discretized", "discretize"),
    ("discretized", "resolvent_check"),
    ("discretized", "compare_pole_approximation"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in WRAPPED)

#: counts read from arguments and results, as (metric, unit)
COUNTS = (
    ("spectrum.refine_peak.f_evals", "count"),
    ("spectrum.spectrum_series.points", "count"),
    ("discretized.discretize.states", "count"),
    ("discretized.resolvent_check.probes", "count"),
)
#: ratios of two counters, as (metric, numerator, denominator)
RATIOS = (
    ("spectrum.peak_metrics.analytic_frac", "peak_metrics.analytic", "peak_metrics.lines"),
    ("spectrum.peak_metrics.baseline_frac", "peak_metrics.baseline", "peak_metrics.lines"),
    ("spectrum.sweep_eta.error_frac", "sweep_eta.errors", "sweep_eta.points"),
    ("bic.certify.bic_frac", "certify.bic", "certify.calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.task = -1
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bic_lab" or name.startswith("bic_lab.")]
        #: (module, attribute, original, wrapper) for every binding replaced
        self._bindings = []
        for module_name, func_name in WRAPPED:
            original = getattr(sys.modules[f"bic_lab.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off)."""
        for module, attr, original, wrapper in self._bindings:
            setattr(module, attr, wrapper if on else original)

    def _counted(self, f):
        def counted(x):
            self.counts["spectrum.refine_peak.f_evals"] += 1
            return f(x)
        return counted

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "spectrum.refine_peak":
                if "f" in kwargs:
                    kwargs["f"] = self._counted(kwargs["f"])
                else:
                    args = (self._counted(args[0]),) + args[1:]
            span = [name, self.task, self._stack[-1] if self._stack else -1, 0.0, 0.0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    def layer_metrics(self, busy_s: float) -> dict:
        """Per-function calls, self time and errors, the counts and ratios,
        and the task time no span covers, as {metric: (value, unit)}."""
        child_s = collections.Counter()
        for name, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = collections.Counter()
        errors = collections.Counter()
        self_s = collections.Counter()
        root_s = 0.0
        for i, (name, _, parent, start, end, raised) in enumerate(self.spans):
            calls[name] += 1
            errors[name] += raised
            self_s[name] += (end - start) - child_s[i]
            if parent < 0:
                root_s += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.errors"] = (errors[name], "count")
        for metric, unit in COUNTS:
            out[metric] = (self.counts[metric], unit)
        for metric, num, den in RATIOS:
            d = self.counts[den]
            out[metric] = (self.counts[num] / d if d else 0.0, "1")
        out["trace.unattributed_s"] = (busy_s - root_s, "s")
        return out

    def write_spans(self, path: str) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["task", "name", "parent", "start_s", "end_s", "raised"])
            for name, task, parent, start, end, raised in self.spans:
                out.writerow([task, name, parent, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", int(raised)])


def _observe_spectrum_series(counts, series):
    counts["spectrum.spectrum_series.points"] += len(series.grid)


def _observe_peak_metrics(counts, metrics):
    counts["peak_metrics.lines"] += 1
    counts["peak_metrics.analytic"] += not metrics.refined
    counts["peak_metrics.baseline"] += metrics.baseline != 0.0


def _observe_sweep_eta(counts, result):
    counts["sweep_eta.points"] += len(result.points)
    counts["sweep_eta.errors"] += sum(p.error is not None for p in result.points)


def _observe_certify(counts, report):
    counts["certify.calls"] += 1
    counts["certify.bic"] += report.is_bic


def _observe_discretize(counts, model):
    counts["discretized.discretize.states"] += model.size


def _observe_resolvent_check(counts, report):
    counts["discretized.resolvent_check.probes"] += len(report.probes)


_OBSERVERS = {
    "spectrum.spectrum_series": _observe_spectrum_series,
    "spectrum.peak_metrics": _observe_peak_metrics,
    "spectrum.sweep_eta": _observe_sweep_eta,
    "bic.certify": _observe_certify,
    "discretized.discretize": _observe_discretize,
    "discretized.resolvent_check": _observe_resolvent_check,
}
