"""Acceptance suite: one test per criterion, full protocol scale.

Protocol: N in {64, 128, 256, 512}, M = 10 N (capped only where an
exponential tail would underflow), 20 seeded trials per N, 1000 test points,
unit noise.  Each test prints a PASS/FAIL line with the measured margin.
"""

import numpy as np
import pytest

from conftest import mc_noise_variance
from overfit_lab.csvio import write_csv
from overfit_lab.experiments import ExperimentConfig, run_experiment
from overfit_lab.features import DesignMatrix, FeatureLaw, sample_design
from overfit_lab.linalg import (
    KernelMatrix,
    assemble_kernel,
    min_norm_solve,
    singular_extremes,
)
from overfit_lab.regression import variance_closed_form
from overfit_lab.spectra import make_spectrum

GRID = (64, 128, 256, 512)
GAUSSIAN = FeatureLaw("gaussian")


def _announce(num, ok, text):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {text}")


def _median_curve(report, field, law=None, kernel=None, spectrum=None):
    out = {}
    for (n, spec, lw, kern, _m), stats in report.aggregates.items():
        if law is not None and lw != law:
            continue
        if kernel is not None and kern != kernel:
            continue
        if spectrum is not None and spec != spectrum:
            continue
        out[n] = stats[field].median
    return out


@pytest.fixture(scope="module")
def condnum_poly():
    return run_experiment(ExperimentConfig(
        experiment="condnum", spectrum="polynomial", a=1.0, n_grid=GRID))


@pytest.fixture(scope="module")
def condnum_exp():
    return run_experiment(ExperimentConfig(
        experiment="condnum", spectrum="exponential", a=1.0, n_grid=GRID))


@pytest.fixture(scope="module")
def learning_poly():
    return run_experiment(ExperimentConfig(
        experiment="learning_curve", spectrum="polynomial", a=1.0, n_grid=GRID))


@pytest.fixture(scope="module")
def learning_exp():
    return run_experiment(ExperimentConfig(
        experiment="learning_curve", spectrum="exponential", a=1.0, n_grid=GRID))


@pytest.fixture(scope="module")
def smin_report():
    return run_experiment(ExperimentConfig(
        experiment="smin_study", spectrum="polynomial", a=1.0, n_grid=GRID))


def test_criterion_01_condition_number_polynomial(condnum_poly):
    meds = _median_curve(condnum_poly, "ratio_to_theory")
    band = max(meds.values()) / min(meds.values())
    ok = band <= 2.0
    _announce(1, ok, "condition-number scaling, polynomial decay: "
                     f"median ratio band {band:.3f} (limit 2) across N={list(meds)}")
    assert ok


def test_criterion_02_condition_number_exponential(condnum_exp):
    meds = _median_curve(condnum_exp, "ratio_to_theory")
    band = max(meds.values()) / min(meds.values())
    ok = band <= 3.0
    _announce(2, ok, "condition-number scaling, exponential decay: "
                     f"median ratio band {band:.3f} (limit 3) across N={list(meds)}")
    assert ok


def test_criterion_03_tempered_overfitting(learning_poly):
    meds = _median_curve(learning_poly, "mse")
    band = max(meds.values()) / min(meds.values())
    ok = band <= 5.0
    _announce(3, ok, "tempered overfitting, polynomial decay: "
                     f"median MSE band {band:.3f} (limit 5)")
    assert ok


def test_criterion_04_catastrophic_overfitting(learning_exp):
    meds = _median_curve(learning_exp, "mse")
    growth = meds[512] / meds[64]
    ok = growth >= 4.0
    _announce(4, ok, "catastrophic overfitting, exponential decay: "
                     f"median MSE grows {growth:.2f}x from N=64 to N=512 (need >= 4)")
    assert ok


def test_criterion_05_variance_closed_form():
    worst = 0.0
    for kind, seed in (("polynomial", 11), ("polynomial", 12), ("polynomial", 13),
                       ("exponential", 14), ("exponential", 15)):
        n, m = 64, 640
        s = make_spectrum(kind, 1.0, m)
        d = sample_design(GAUSSIAN, m, n, seed=seed)
        K = assemble_kernel(s, d)
        closed = variance_closed_form(K, sigma=1.0)
        mc = mc_noise_variance(K, s, GAUSSIAN, sigma=1.0, draws=2000,
                               batches=20, n_test=1000, seed=seed + 5000)
        worst = max(worst, abs(closed - mc) / closed)
    ok = worst <= 0.05
    _announce(5, ok, "closed-form variance vs 2000-draw Monte Carlo: "
                     f"worst relative gap {worst:.3%} over 5 instances (limit 5%)")
    assert ok


def test_criterion_06_dependent_feature_collapse(smin_report):
    cos = _median_curve(smin_report, "s_min_over_n_lambda_n", law="cosine")
    gau = _median_curve(smin_report, "s_min_over_n_lambda_n", law="gaussian")
    collapse = cos[512] / cos[64]
    band = max(gau.values()) / min(gau.values())
    ok = collapse <= 0.5 and band <= 2.0
    _announce(6, ok, "dependent-feature collapse: cosine s_min ratio "
                     f"{collapse:.4f} of its N=64 value (limit 0.5); "
                     f"gaussian band {band:.3f} (limit 2)")
    assert ok


def test_criterion_07_sub_gaussian_equivalence(smin_report):
    gau = _median_curve(smin_report, "s_min_over_n_lambda_n", law="gaussian")
    uni = _median_curve(smin_report, "s_min_over_n_lambda_n", law="uniform_subgaussian")
    ratios = {n: uni[n] / gau[n] for n in GRID}
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    worst = max(ratios.values(), key=lambda r: abs(np.log(r)))
    _announce(7, ok, "sub-Gaussian design equivalence: uniform/gaussian median "
                     f"s_min ratio within factor 2 at every N (worst {worst:.3f})")
    assert ok


def test_criterion_08_finite_rank_inequality():
    report = run_experiment(ExperimentConfig(
        experiment="truncation", spectrum="polynomial", a=1.0,
        n_grid=(64,), trials=20, eta_full=100, truncation_etas=(10,)))
    holds = sum(r.bound_holds for r in report.records)
    ok = holds >= 19
    _announce(8, ok, "finite-rank truncation inequality at M=10N: "
                     f"holds in {holds}/20 trials (need >= 19)")
    assert ok


def test_criterion_09_exact_recovery():
    report = run_experiment(ExperimentConfig(
        experiment="learning_curve", eta=1, sigma=0.0,
        n_grid=(32, 64), trials=3, n_test=200))
    worst = max(r.mse for r in report.records)
    ok = worst <= 1e-8
    _announce(9, ok, "exact recovery with square invertible design, no noise: "
                     f"worst test MSE {worst:.3e} (limit 1e-8)")
    assert ok


def test_criterion_10_numerical_contracts(tmp_path):
    # pseudo-inverse range / null-space contract at 1e-8
    rng = np.random.default_rng(123)
    b = rng.standard_normal((20, 9))
    K = KernelMatrix.from_entries(b @ b.T)
    y = rng.standard_normal(20)
    sol = min_norm_solve(K, y)
    u, sv, _ = np.linalg.svd(K.entries)
    rank = int((sv > 1e-12 * sv[0]).sum())
    y_range = u[:, :rank] @ (u[:, :rank].T @ y)
    range_ok = np.linalg.norm(K.entries @ sol.alpha - y_range) <= 1e-8 * np.linalg.norm(y)
    null_ok = (np.linalg.norm(u[:, rank:].T @ sol.alpha)
               <= 1e-8 * np.linalg.norm(sol.alpha))

    # Gram-factor equivalence at 1e-12 relative
    s = make_spectrum("polynomial", 1.0, 100)
    d = DesignMatrix(rng.standard_normal((100, 25)), GAUSSIAN)
    K2 = assemble_kernel(s, d)
    oracle = d.entries.T @ np.diag(s.eigenvalues) @ d.entries
    gram_rel = np.linalg.norm(K2.entries - oracle) / np.linalg.norm(oracle)
    gram_ok = gram_rel < 1e-12
    factor_sv = np.linalg.svd(K2.factor, compute_uv=False)
    summary = singular_extremes(K2)
    factor_ok = (abs(summary.s_max - factor_sv[0] ** 2) <= 1e-10 * summary.s_max
                 and abs(summary.s_min - factor_sv[-1] ** 2) <= 1e-10 * summary.s_min)

    # byte-identical CSV for identical config + seed
    cfg = ExperimentConfig(experiment="condnum", n_grid=(16, 32), trials=3,
                           master_seed=31)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_csv(run_experiment(cfg), p1)
    write_csv(run_experiment(cfg), p2)
    determinism_ok = p1.read_bytes() == p2.read_bytes()

    ok = range_ok and null_ok and gram_ok and factor_ok and determinism_ok
    _announce(10, ok, "numerical contracts: pseudo-inverse range/null 1e-8 "
                      f"({'ok' if range_ok and null_ok else 'FAIL'}), "
                      f"Gram-factor rel {gram_rel:.2e} (limit 1e-12), "
                      f"factor-square match ({'ok' if factor_ok else 'FAIL'}), "
                      f"byte-identical CSV ({'ok' if determinism_ok else 'FAIL'})")
    assert ok
