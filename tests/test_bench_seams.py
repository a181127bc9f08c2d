"""The seams the benchmark's tracer wraps: ``bench/spans.py`` replaces library
functions in the namespaces that call them, so those names must resolve, be
restored, and still be reached by a sweep.  These tests only read ``bench/``.
"""

import importlib
from pathlib import Path

import pytest

from overfit_lab import cli, regression

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("spans")


def _module(name):
    return importlib.import_module(f"overfit_lab.{name}")


def test_every_target_resolves(spans):
    for mod_name, attr, _, _ in spans._TARGETS:
        assert callable(getattr(_module(mod_name), attr)), (mod_name, attr)


def test_instrument_restores_every_attribute(spans):
    seams = [(_module(m), attr) for m, attr, _, _ in spans._TARGETS]
    seams += [(cli, "csvio"), (cli, "plotting"), (regression, "warnings")]
    before = [getattr(module, attr) for module, attr in seams]
    with spans.instrument(spans.Tracer()):
        inside = [getattr(module, attr) for module, attr in seams]
    assert all(a is not b for a, b in zip(before, inside))
    assert all(getattr(module, attr) is value
               for (module, attr), value in zip(seams, before))


@pytest.mark.parametrize("subcommand, expected", [
    ("learning-curve", ("regression.fit_ridgeless",
                        "regression.empirical_test_error",
                        "regression.variance_closed_form",
                        "linalg.min_norm_solve", "linalg.singular_extremes")),
    ("smin-study", ("linalg.singular_extremes", "linalg.row_norm_diagnostics")),
])
def test_sweep_reaches_every_span(spans, tmp_path, subcommand, expected):
    with spans.instrument(spans.Tracer()) as tracer:
        assert cli.main([subcommand, "--out", str(tmp_path / "x.csv"),
                         "--n-grid", "8", "--trials", "1", "--n-test", "20"]) == 0
    for name in expected:
        assert tracer.counts[f"{name}.calls"] >= 1, name
    # the bias is exact (regression.population_bias): the Monte-Carlo span is
    # retired and no sweep reaches it
    assert tracer.counts["regression.bias_monte_carlo.calls"] == 0
