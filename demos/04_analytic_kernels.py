"""Interpolation with closed-form kernels: Laplacian stays tame, NTK does not.

Both kernels here have polynomially decaying spectra, yet ridgeless
interpolation of the same kind of in-span target behaves differently:
the Laplacian on Gaussian inputs keeps its test error bounded, while the
1-hidden-layer ReLU tangent kernel on the unit disk degrades as N grows.
Eigen-decay alone does not decide the overfitting regime once features
are dependent.

CLI equivalent:
    overfit-lab kernel-interp --kernel ntk_1hidden --out out/ntk.csv
"""

from pathlib import Path

import numpy as np

from overfit_lab import (
    AnalyticKernel,
    ExperimentConfig,
    kernel_gram,
    ntk_kappa0,
    ntk_kappa1,
    render_plot,
    run_experiment,
    singular_extremes,
    write_csv,
)

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

print("arc-cosine functions at a few inner products:")
for t in (-1.0, 0.0, 0.5, 1.0):
    print(f"  t={t:+.1f}  kappa0={ntk_kappa0(t):.5f}  kappa1={ntk_kappa1(t):.5f}")

for kernel, domain in (("laplacian", "std_normal_1d"), ("ntk_1hidden", "unit_disk_2d")):
    cfg = ExperimentConfig(experiment="kernel_interp", kernel=kernel,
                           input_domain=domain, n_grid=(16, 32, 64, 128),
                           trials=10, n_test=400)
    report = run_experiment(cfg)
    write_csv(report, OUT / f"interp_{kernel}.csv")
    render_plot(report, OUT / f"interp_{kernel}.svg",
                y_field="mse", log_x=True, log_y=True)
    print(f"\n{kernel} on {domain}: median test MSE (sigma = 1)")
    for n in cfg.n_grid:
        stats = report.aggregates[(n, None, domain, kernel, None)]
        print(f"  N={n:4d}  mse={stats['mse'].median:12.4f}  "
              f"s_min={stats['s_min'].median:.3e}")

# empirical spectrum of a Laplacian Gram matrix: moderate decay
rng = np.random.default_rng(0)
K = kernel_gram(AnalyticKernel("laplacian", 1), rng.standard_normal((256, 1)))
vals = singular_extremes(K).full_singular_values
print("\nLaplacian Gram spectrum at N=256: "
      f"s_1={vals[0]:.2f}  s_64={vals[63]:.4f}  s_256={vals[255]:.2e}")
print(f"\nwrote CSVs and SVGs to {OUT}")
