"""How eigen-decay drives the conditioning of random kernel matrices.

Builds polynomial and exponential spectra, assembles K = Psi^T Lambda Psi
from Gaussian designs with M = 10 N, and compares the measured condition
number against its predicted scale: lambda_1/lambda_N for polynomial decay,
N * lambda_1/lambda_N for exponential decay.  The ratio flattens to a
constant in both cases.

CLI equivalent:
    overfit-lab condnum --spectrum polynomial --out out/condnum_poly.csv
"""

from pathlib import Path

from overfit_lab import (
    ExperimentConfig,
    make_spectrum,
    render_plot,
    run_experiment,
    theoretical_condition_ratio,
    write_csv,
    write_spectrum_csv,
)

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

print("== spectra ==")
for kind in ("polynomial", "exponential"):
    s = make_spectrum(kind, 1.0, 512)
    print(f"{kind:12s} lambda_1={s.eigenvalues[0]:.3g}  "
          f"lambda_64={s.eigenvalues[63]:.3g}  lambda_512={s.eigenvalues[511]:.3g}")
    write_spectrum_csv(s, OUT / f"spectrum_{kind}.csv")
    for n in (16, 64):
        print(f"   predicted condition scale at N={n:3d}: "
              f"poly-style {theoretical_condition_ratio(s, n, 'poly'):.3g}   "
              f"exp-style {theoretical_condition_ratio(s, n, 'exp'):.3g}")

print("\n== measured / predicted condition number (medians over trials) ==")
for kind in ("polynomial", "exponential"):
    cfg = ExperimentConfig(experiment="condnum", spectrum=kind, a=1.0,
                           n_grid=(32, 64, 128, 256), trials=10)
    report = run_experiment(cfg)
    write_csv(report, OUT / f"condnum_{kind}.csv")
    render_plot(report, OUT / f"condnum_{kind}.svg",
                y_field="ratio_to_theory", log_x=True)
    for (n, *_), stats in sorted(report.aggregates.items()):
        agg = stats["ratio_to_theory"]
        print(f"{kind:12s} N={n:4d}  ratio median {agg.median:8.3f}   "
              f"IQR [{agg.q25:.3f}, {agg.q75:.3f}]")

print(f"\nwrote CSVs and SVGs to {OUT}")
