"""Tempered versus catastrophic overfitting of the ridgeless interpolant.

Fits the minimum-norm interpolant to noisy labels (sigma = 1) on Gaussian
designs with M = 10 N and tracks the test MSE against the noise-free target
as N grows.  Polynomial decay keeps the curve inside a constant band;
exponential decay makes it grow linearly in N.

CLI equivalent:
    overfit-lab learning-curve --spectrum exponential --out out/lc_exp.csv
"""

from pathlib import Path

from overfit_lab import ExperimentConfig, render_plot, run_experiment, write_csv

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

curves = {}
for kind in ("polynomial", "exponential"):
    cfg = ExperimentConfig(experiment="learning_curve", spectrum=kind, a=1.0,
                           n_grid=(32, 64, 128, 256), trials=10, n_test=500)
    report = run_experiment(cfg)
    write_csv(report, OUT / f"learning_{kind}.csv")
    render_plot(report, OUT / f"learning_{kind}.svg",
                y_field="mse", log_x=True, log_y=True)
    curves[kind] = {n: stats["mse"].median
                    for (n, *_), stats in report.aggregates.items()}

print("median test MSE (noise sigma = 1, M = 10 N)")
print(f"{'N':>6s} {'polynomial':>12s} {'exponential':>12s}")
for n in sorted(curves["polynomial"]):
    print(f"{n:6d} {curves['polynomial'][n]:12.3f} {curves['exponential'][n]:12.1f}")

poly = list(curves["polynomial"].values())
expo = list(curves["exponential"].values())
print(f"\npolynomial band (max/min): {max(poly)/min(poly):.2f}  -> tempered")
print(f"exponential growth 256/32: {expo[-1]/expo[0]:.1f}x      -> catastrophic")
print(f"\nwrote CSVs and SVGs to {OUT}")
