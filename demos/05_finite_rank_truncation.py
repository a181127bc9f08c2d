"""Truncating the feature expansion barely moves the interpolant's variance.

With a polynomial spectrum of nominal length 100 N, keeping only the leading
M rows changes the noise variance V by less than 3 V(M) + sigma^2/N once M
clears a modest multiple of N.  This is what justifies simulating kernels of
infinite rank with finite feature blocks.

CLI equivalent:
    overfit-lab truncation --out out/truncation.csv
"""

from pathlib import Path

from overfit_lab import (
    ExperimentConfig,
    FeatureLaw,
    assemble_kernel,
    make_spectrum,
    run_experiment,
    sample_design,
    truncation_study,
    write_csv,
)

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

n = 64
s = make_spectrum("polynomial", 1.0, 100 * n)
K = assemble_kernel(s, sample_design(FeatureLaw("gaussian"), 100 * n, n, seed=3))
print(f"single design, N={n}, full rank M={100*n}:")
print(f"{'M':>7s} {'V(M)':>10s} {'|V-V(M)|':>12s} {'3V(M)+s^2/N':>13s} {'holds':>6s}")
for row in truncation_study(K, sigma=1.0, M_list=[2 * n, 4 * n, 10 * n, 40 * n]):
    print(f"{row['m_truncated']:7d} {row['variance']:10.4f} {row['truncation_gap']:12.6f} "
          f"{row['truncation_bound']:13.4f} {str(row['bound_holds']):>6s}")

cfg = ExperimentConfig(experiment="truncation", spectrum="polynomial", a=1.0,
                       n_grid=(32, 64), trials=10, eta_full=100,
                       truncation_etas=(5, 10, 20))
report = run_experiment(cfg)
write_csv(report, OUT / "truncation.csv")

print("\nacross seeds: fraction of trials where the bound holds")
for (n_key, _, _, _, m_trunc), stats in sorted(report.aggregates.items()):
    group = [r for r in report.records if r.N == n_key and r.m_truncated == m_trunc]
    frac = sum(r.bound_holds for r in group) / len(group)
    print(f"  N={n_key:4d} M={m_trunc:5d}  holds in {frac:.0%} of trials  "
          f"median gap {stats['truncation_gap'].median:.5f}")

print(f"\nwrote CSV to {OUT}")
