"""Independent versus dependent features: where the smallest singular value goes.

Gaussian and uniform designs (independent entries) keep s_min(K) at the scale
N * lambda_N.  Cosine and sine feature maps are isotropic too, but their
entries are functions of a single random angle; nearly-coincident angles make
columns nearly parallel and s_min collapses.  The tail-row diagnostic
min_i P_i^2 tracks the loss of independence.

CLI equivalent:
    overfit-lab smin-study --out out/smin.csv
"""

from pathlib import Path

import numpy as np

from overfit_lab import (
    ExperimentConfig,
    assemble_kernel,
    make_spectrum,
    render_plot,
    row_norm_diagnostics,
    run_experiment,
    sample_design,
    singular_extremes,
    write_csv,
    write_singular_values_csv,
)

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

cfg = ExperimentConfig(experiment="smin_study", spectrum="polynomial", a=1.0,
                       n_grid=(32, 64, 128, 256), trials=10)
report = run_experiment(cfg)
write_csv(report, OUT / "smin_study.csv")
render_plot(report, OUT / "smin_study.svg",
            y_field="s_min_over_n_lambda_n", log_x=True, log_y=True)

print("median s_min(K) / (N lambda_N) per feature law")
laws = ("gaussian", "uniform_subgaussian", "cosine", "sine")
print(f"{'N':>6s} " + " ".join(f"{law:>20s}" for law in laws))
for n in cfg.n_grid:
    row = [report.aggregates[(n, "polynomial", law, None, None)]
           ["s_min_over_n_lambda_n"].median for law in laws]
    print(f"{n:6d} " + " ".join(f"{v:20.6f}" for v in row))

print("\nmin_i P_i^2 medians (tail-row diagnostic; 1 = fully independent-like)")
for n in cfg.n_grid:
    row = [report.aggregates[(n, "polynomial", law, None, None)]
           ["min_p_squared"].median for law in laws]
    print(f"{n:6d} " + " ".join(f"{v:20.4f}" for v in row))

# dump one full singular spectrum per law for a closer look
n = 128
s = make_spectrum("polynomial", 1.0, 10 * n)
for law in ("gaussian", "cosine"):
    psi = sample_design(law, 10 * n, n, seed=1).entries
    summary = singular_extremes(assemble_kernel(s, psi))
    write_singular_values_csv(summary.full_singular_values,
                              OUT / f"singular_values_{law}.csv")
    diag = row_norm_diagnostics(psi, n)
    print(f"\n{law}: s_min(K)={summary.s_min:.3e}  n*lambda_n={n*s.eigenvalues[n-1]:.3e}"
          f"  min P_i^2={diag.min_p_squared:.4f}")

print(f"\nwrote CSVs and SVGs to {OUT}")
