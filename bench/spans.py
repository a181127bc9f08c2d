"""Outside-in layer tracing for the benchmark.

Each layer is timed by replacing its public functions in the namespaces that
call them (``overfit_lab.experiments``, ``overfit_lab.regression`` and
``overfit_lab.cli``) with wrappers that open a span around the call.  Nothing
under ``src/`` is edited, and ``instrument`` restores every attribute on exit.

A span's self time is its duration minus the durations of the spans opened
directly inside it.  Calls are single-threaded and strictly nested, so the
children of a span never overlap and their durations can simply be summed.

Memoization caveat: ``KernelMatrix`` caches its factor SVD, so the SVD is
charged to whichever public call touches it first.  In ``smin-study`` and
``condnum`` that is ``singular_extremes`` (values only).  In
``learning-curve`` it is ``min_norm_solve`` (full SVD), and the later
``singular_extremes``, ``bias_monte_carlo`` and ``variance_closed_form``
calls read the cached factors.
"""

from __future__ import annotations

import contextlib
import functools
import os
import types
import warnings
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Accumulates self time per span name and event counts per counter name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._child_s = []  # one accumulator per open span

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counts, args, result)`` adds events."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.self_s[name] += dur - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dur
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return spanned


def _design_bytes(counts, args, result):
    # computed from the array shape (8 bytes per float64 entry), not measured
    counts["features.sample_design.bytes"] += 8 * result.entries.size


def _accurate(counts, args, result):
    counts["linalg.singular_extremes.accurate_calls"] += int(result.accurate)


def _solve_flags(counts, args, result):
    counts["linalg.min_norm_solve.rank_deficient"] += int(result.rank < args[0].size)
    counts["linalg.min_norm_solve.inconsistent"] += int(result.inconsistent)


def _file_bytes(name):
    def count(counts, args, result):
        counts[f"{name}.bytes"] += os.path.getsize(args[1])

    return count


# (module attribute to replace, span name, event counter)
_TARGETS = (
    ("experiments", "make_spectrum", "spectra.make_spectrum", None),
    ("experiments", "sample_design", "features.sample_design", _design_bytes),
    ("regression", "sample_design", "features.sample_design", _design_bytes),
    ("experiments", "assemble_kernel", "linalg.assemble_kernel", None),
    ("experiments", "singular_extremes", "linalg.singular_extremes", _accurate),
    ("experiments", "row_norm_diagnostics", "linalg.row_norm_diagnostics", None),
    ("regression", "min_norm_solve", "linalg.min_norm_solve", _solve_flags),
    ("experiments", "synthesize_labels", "regression.synthesize_labels", None),
    ("experiments", "fit_ridgeless", "regression.fit_ridgeless", None),
    ("regression", "empirical_test_error", "regression.empirical_test_error", None),
    ("regression", "bias_monte_carlo", "regression.bias_monte_carlo", None),
    ("regression", "variance_closed_form", "regression.variance_closed_form", None),
    ("experiments", "aggregate", "experiments.aggregate", None),
    ("cli", "run_experiment", "experiments.sweep", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers for the duration of the block, then restore."""
    from overfit_lab import cli, csvio, errors, experiments, plotting, regression

    modules = {"cli": cli, "experiments": experiments, "regression": regression}
    saved = []

    def replace(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def count_rank_warning(message, category=UserWarning, stacklevel=1, **kwargs):
        if category is errors.RankDeficientKernelWarning:
            tracer.counts["regression.variance_closed_form.rank_warnings"] += 1
        warnings.warn(message, category, stacklevel + 1, **kwargs)

    try:
        for mod_name, attr, span, count in _TARGETS:
            module = modules[mod_name]
            replace(module, attr, tracer.wrap(span, getattr(module, attr), count))
        # cli reaches csv and plot output through module attributes; give it
        # stand-in modules whose writers are wrapped
        replace(cli, "csvio", _proxy(csvio, write_csv=tracer.wrap(
            "csvio.write_csv", csvio.write_csv, _file_bytes("csvio.write_csv"))))
        replace(cli, "plotting", _proxy(plotting, render_plot=tracer.wrap(
            "plotting.render_plot", plotting.render_plot,
            _file_bytes("plotting.render_plot"))))
        # regression's only warning is the rank-deficiency warning of
        # variance_closed_form; count it without changing how it is shown
        replace(regression, "warnings", _proxy(warnings, warn=count_rank_warning))
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _proxy(module, **overrides):
    """Namespace exposing ``module``'s public attributes with some replaced."""
    attrs = {k: v for k, v in vars(module).items() if not k.startswith("__")}
    attrs.update(overrides)
    return types.SimpleNamespace(**attrs)
