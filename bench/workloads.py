"""Benchmark workloads and the output checks run after every sweep.

A workload is a fixed list of ``overfit-lab`` CLI invocations (a "sweep")
over the acceptance grid N in {64, 128, 256, 512}, M = 10 N, with the
benchmark seed passed through ``--master-seed``.  Each workload stresses a
different layer; README.md says why each is here and which metrics each
layer should move.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass

N_GRID = (64, 128, 256, 512)
N_TEST = 1000  # the CLI default, used by every learning-curve sweep here

# The reference CSVs under reference/ were taken at this seed, the library's
# default master_seed.  Every run sweeps it once, untimed, before measuring.
REFERENCE_SEED = 2024


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int
    sweeps: tuple  # (subcommand, spectrum) pairs, run in order

    def overrides(self, spectrum, seed):
        """Config keys passed to the CLI as ``--key value`` flags."""
        return {
            "spectrum": spectrum, "a": "1.0", "eta": "10",
            "n_grid": ",".join(map(str, N_GRID)),
            "trials": str(self.trials), "master_seed": str(seed),
        }

    def argv(self, subcommand, spectrum, seed, out_csv, out_svg):
        argv = [subcommand, "--out", out_csv, "--plot", out_svg]
        for key, value in self.overrides(spectrum, seed).items():
            argv += [f"--{key.replace('_', '-')}", value]
        return argv

    def expected_rows(self, subcommand):
        laws = 4 if subcommand == "smin-study" else 1
        return len(N_GRID) * self.trials * laws

    @property
    def trials_per_sweep(self):
        return sum(self.expected_rows(sub) for sub, _ in self.sweeps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("smin-laws", trials=2, sweeps=(("smin-study", "polynomial"),)),
        Workload("learning-poly", trials=2,
                 sweeps=(("learning-curve", "polynomial"),)),
        Workload("steep-exp", trials=4,
                 sweeps=(("condnum", "exponential"), ("learning-curve", "exponential"))),
    )
}


# Fields that must parse as finite numbers in every row of a sweep.  On
# cosine/sine designs s_min may sit at the noise floor, where the library
# reports it as 0 and the condition number as inf by contract.
REQUIRED_FINITE = {
    "smin-study": ("s_max", "s_min", "s_min_over_n_lambda_n", "s_min_over_n",
                   "min_p_squared"),
    "learning-curve": ("s_max", "s_min", "condition_number", "mse", "bias",
                       "variance"),
    "condnum": ("s_max", "s_min", "condition_number", "ratio_to_theory"),
}
DEPENDENT_LAWS = ("cosine", "sine")


def read_rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def bad_rows(subcommand, rows):
    """Count rows whose required fields are not all finite."""
    fields = REQUIRED_FINITE[subcommand]
    bad = 0
    for r in rows:
        need = fields
        if subcommand == "smin-study" and r["law"] not in DEPENDENT_LAWS:
            need = fields + ("condition_number",)
        bad += not all(_finite(r[f]) for f in need)
    return bad


def _median_by_n(rows, field, law=None):
    out = {}
    for n in N_GRID:
        vals = [float(r[field]) for r in rows
                if int(r["N"]) == n and (law is None or r["law"] == law)]
        out[n] = statistics.median(vals)
    return out


def _band(curve):
    return max(curve.values()) / min(curve.values())


def paper_criteria(subcommand, rows):
    """The paper criteria a sweep reproduces, as (name, ok, detail) triples.

    Thresholds are those of tests/test_acceptance.py; medians are taken over
    the sweep's trials at each N.
    """
    if subcommand == "smin-study":
        cos = _median_by_n(rows, "s_min_over_n_lambda_n", "cosine")
        gau = _median_by_n(rows, "s_min_over_n_lambda_n", "gaussian")
        uni = _median_by_n(rows, "s_min_over_n_lambda_n", "uniform_subgaussian")
        collapse = cos[512] / cos[64]
        ratios = [uni[n] / gau[n] for n in N_GRID]
        return [
            ("criterion 6: cosine s_min collapse (<= 0.5)", collapse <= 0.5,
             f"{collapse:.4g}"),
            ("criterion 6: gaussian band (<= 2)", _band(gau) <= 2.0,
             f"{_band(gau):.4g}"),
            ("criterion 7: uniform/gaussian s_min ratio in [0.5, 2]",
             all(0.5 <= r <= 2.0 for r in ratios),
             ", ".join(f"{r:.4g}" for r in ratios)),
        ]
    if subcommand == "condnum":
        band = _band(_median_by_n(rows, "ratio_to_theory"))
        return [("criterion 2: exponential condition-ratio band (<= 3)",
                 band <= 3.0, f"{band:.4g}")]
    mse = _median_by_n(rows, "mse")
    if rows[0]["spectrum"] == "polynomial":
        return [("criterion 3: tempered MSE band (<= 5)", _band(mse) <= 5.0,
                 f"{_band(mse):.4g}")]
    growth = mse[512] / mse[64]
    return [("criterion 4: catastrophic MSE growth N=64 -> 512 (>= 4)",
             growth >= 4.0, f"{growth:.4g}")]


# --- comparison against the reference CSVs ----------------------------------

# Cells compared as text: identity and bookkeeping columns.
EXACT_COLUMNS = ("experiment", "seed", "N", "M", "trial", "spectrum", "law",
                 "kernel", "m_truncated", "bound_holds")
# Deterministic floats.  A certified fast singular-value path may move a value
# of G by up to 1e-6 relative, 2e-6 once squared into K; 1e-5 leaves room.
FLOAT_RTOL = 1e-5
# The Monte-Carlo bias averages n_test squared Gaussian residuals, so its
# relative standard error is sqrt(2 / n_test).  Six standard errors lets an
# exact population bias (or a reseeded estimator) pass and a wrong one fail.
BIAS_RTOL = 6.0 * math.sqrt(2.0 / N_TEST)
# Below this share of s_max, s_min on a dependent (cosine/sine) design is
# roundoff: the values only have to agree on being there.  It sits 100x above
# the library's 1e-13 zero cutoff.
NOISE_FLOOR = 1e-11
SMIN_DERIVED = ("s_min", "condition_number", "s_min_over_n_lambda_n",
                "s_min_over_n")


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_to_reference(rows, ref_rows):
    """Return a list of mismatch descriptions (empty when the sweep agrees)."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if list(row) != list(ref):
            return [f"columns {list(row)} differ from reference {list(ref)}"]
        skip = ()
        if ref["law"] in DEPENDENT_LAWS and ref["s_min"]:
            in_noise = [float(r["s_min"]) < NOISE_FLOOR * float(r["s_max"])
                        for r in (row, ref)]
            if any(in_noise):
                skip = SMIN_DERIVED
                if not all(in_noise):
                    problems.append(f"row {i}: s_min leaves the noise floor")
        for col, want in ref.items():
            got = row[col]
            if col in skip or got == want:
                continue
            if col in EXACT_COLUMNS or not got or not want:
                ok = False
            else:
                rtol = BIAS_RTOL if col == "bias" else FLOAT_RTOL
                ok = _close(float(got), float(want), rtol)
            if not ok:
                problems.append(f"row {i}: {col} = {got!r}, reference {want!r}")
    return problems
