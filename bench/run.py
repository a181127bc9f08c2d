"""Sweep benchmark for overfit-lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from
``src/``.  Every run first sweeps the workload once at the reference seed,
untimed, and checks that sweep against reference/ and the paper criteria.
Then:

* ``--trace 0`` measures set-up time in fresh interpreters, then repeats the
  workload's sweep at ``--seed`` for S seconds and reports the end-to-end
  metrics (medians over sweeps).
* ``--trace 1`` alternates untraced and traced sweeps at ``--seed`` for S
  seconds and reports per-layer self times and counts (medians over traced
  sweeps), plus the tracing overhead.

The second-to-last line of standard output is a JSON object with the run
metadata; the last is the result.  The exit code is 0 when every output
check passed and 1 otherwise; 2 means the run could not start.
See README.md for the metrics and what each layer is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7  # single cold starts spread by about a third; report the median
MIN_SWEEPS = 3  # timed sweeps per untraced run, at least
MIN_TRACED = 2  # traced sweeps per traced run, so their counts can be compared

# Per-layer metrics: self time per sweep of a span, or events per sweep.
LAYER_TIMES = {
    "spectra.make_spectrum.s": "spectra.make_spectrum",
    "features.sample_design.s": "features.sample_design",
    "linalg.assemble_kernel.s": "linalg.assemble_kernel",
    "linalg.singular_extremes.s": "linalg.singular_extremes",
    "linalg.row_norm_diagnostics.s": "linalg.row_norm_diagnostics",
    "linalg.min_norm_solve.s": "linalg.min_norm_solve",
    "regression.synthesize_labels.s": "regression.synthesize_labels",
    "regression.fit_ridgeless.s": "regression.fit_ridgeless",
    "regression.empirical_test_error.s": "regression.empirical_test_error",
    "regression.bias_monte_carlo.s": "regression.bias_monte_carlo",
    "regression.variance_closed_form.s": "regression.variance_closed_form",
    "experiments.sweep.self_s": "experiments.sweep",
    "experiments.aggregate.s": "experiments.aggregate",
    "csvio.write_csv.s": "csvio.write_csv",
    "plotting.render_plot.s": "plotting.render_plot",
}
LAYER_COUNTS = {
    "features.sample_design.calls": "count",
    "features.sample_design.bytes": "B_computed",
    "linalg.singular_extremes.calls": "count",
    "linalg.singular_extremes.accurate_calls": "count",
    "linalg.min_norm_solve.rank_deficient": "count",
    "linalg.min_norm_solve.inconsistent": "count",
    "regression.variance_closed_form.rank_warnings": "count",
    "csvio.write_csv.bytes": "B",
    "plotting.render_plot.bytes": "B",
}


@dataclass
class Sweep:
    """One pass over a workload's CLI invocations."""

    wall_s: float
    cpu_s: float
    exit_codes: list
    outputs: dict  # subcommand -> (csv bytes, svg bytes), or None if missing


def cpu_seconds() -> float:
    """User + system CPU of this process (all threads) and reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def cap_thread_env(nproc: int) -> dict:
    """Lower any BLAS/OpenMP thread count above nproc; return the settings."""
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ.get(var) for var in THREAD_VARS}


def run_sweep(workload, seed, out_dir: Path, tracer=None) -> Sweep:
    """Run the workload's sweep in this process through ``cli.main``."""
    from overfit_lab import cli

    import spans

    paths = {}
    for sub, _ in workload.sweeps:
        paths[sub] = (out_dir / f"{sub}.csv", out_dir / f"{sub}.svg")
        for p in paths[sub]:
            p.unlink(missing_ok=True)
    codes = []
    with spans.instrument(tracer) if tracer else contextlib.nullcontext():
        c0, t0 = cpu_seconds(), time.perf_counter()
        for sub, spectrum in workload.sweeps:
            csv_path, svg_path = paths[sub]
            argv = workload.argv(sub, spectrum, seed, str(csv_path), str(svg_path))
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash fails the check; keep the run reporting
                traceback.print_exc()
                codes.append("exception")
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    outputs = {}
    for sub, (csv_path, svg_path) in paths.items():
        present = csv_path.is_file() and svg_path.is_file()
        outputs[sub] = (csv_path.read_bytes(), svg_path.read_bytes()) if present else None
    return Sweep(wall, cpu, codes, outputs)


def check_rows(workload, sweep: Sweep, problems: list):
    """Every invocation exited 0 and wrote one row per trial, all finite."""
    from workloads import bad_rows, read_rows

    for (sub, _), code in zip(workload.sweeps, sweep.exit_codes):
        out = sweep.outputs[sub]
        if code != 0 or out is None:
            problems.append(f"{sub}: exit code {code}, outputs present: {out is not None}")
            continue
        rows = read_rows(out[0])
        expected = workload.expected_rows(sub)
        if len(rows) != expected:
            problems.append(f"{sub}: {len(rows)} rows, expected {expected}")
        try:
            bad = bad_rows(sub, rows)
        except KeyError as exc:
            bad = f"all (no column {exc})"
        if bad:
            problems.append(f"{sub}: {bad} rows with non-finite required fields")


def check_against_reference(workload, sweep: Sweep, problems: list):
    """Compare a reference-seed sweep with reference/ and the paper criteria.

    The sweep runs the first ``workload.trials`` trials of the acceptance
    protocol (20 trials); seeding is per trial, so those rows are exactly the
    reference's leading trials.  The paper criteria are statistical claims at
    20 trials, so they are evaluated on the reference with its leading trials
    replaced by the new rows.
    """
    from workloads import compare_to_reference, paper_criteria, read_rows

    for sub, spectrum in workload.sweeps:
        if sweep.outputs[sub] is None:
            continue  # check_rows reports it
        rows = read_rows(sweep.outputs[sub][0])
        ref = read_rows((REFERENCE_DIR / f"{sub}-{spectrum}.csv").read_bytes())
        head = [r for r in ref if int(r["trial"]) < workload.trials]
        tail = [r for r in ref if int(r["trial"]) >= workload.trials]
        try:
            problems.extend(f"{sub} vs reference: {p}"
                            for p in compare_to_reference(rows, head)[:10])
            for name, ok, detail in paper_criteria(sub, rows + tail):
                if not ok:
                    problems.append(f"{sub}: {name} failed: {detail}")
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{sub}: output cannot be checked: {exc!r}")


def measure_setup(workload):
    """Seconds for a fresh interpreter to import overfit_lab and parse the
    workload's configs: (median, samples) over several interpreters."""
    configs = [
        dict(workload.overrides(spectrum, 0), experiment=sub.replace("-", "_"))
        for sub, spectrum in workload.sweeps
    ]
    probe = ("import overfit_lab.cli\n"
             "from overfit_lab.config import parse_config\n"
             f"for c in {configs!r}:\n"
             "    parse_config('', c)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def untraced_phase(workload, seed, seconds, out_dir, problems):
    sweeps = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(sweeps) < MIN_SWEEPS:
        sweeps.append(run_sweep(workload, seed, out_dir))
    if any(s.outputs != sweeps[0].outputs for s in sweeps[1:]):
        problems.append("repeated sweeps of one config wrote different bytes")
    n = workload.trials_per_sweep
    metrics = {
        "trials_per_s": (statistics.median(n / s.wall_s for s in sweeps), "1/s"),
        "cpu_s_per_trial": (statistics.median(s.cpu_s / n for s in sweeps), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"wall_s": [s.wall_s for s in sweeps], "cpu_s": [s.cpu_s for s in sweeps]}
    return sweeps, metrics, samples


def traced_phase(workload, seed, seconds, out_dir, problems):
    from spans import Tracer

    untraced, traced, tracers = [], [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(traced) < MIN_TRACED:
        untraced.append(run_sweep(workload, seed, out_dir))
        tracers.append(Tracer())
        traced.append(run_sweep(workload, seed, out_dir, tracers[-1]))
    if any(s.outputs != untraced[0].outputs for s in untraced[1:] + traced):
        problems.append("traced sweeps wrote different bytes from untraced ones")
    if any(t.counts != tracers[0].counts for t in tracers[1:]):
        problems.append("per-layer counts differ between repeated traced sweeps")
    metrics = {
        name: (statistics.median(t.self_s.get(span, 0.0) for t in tracers), "s")
        for name, span in LAYER_TIMES.items()
    }
    metrics.update({name: (tracers[0].counts.get(name, 0), unit)
                    for name, unit in LAYER_COUNTS.items()})
    overhead = (statistics.median(s.wall_s for s in traced)
                / statistics.median(s.wall_s for s in untraced) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    samples = {"untraced_wall_s": [s.wall_s for s in untraced],
               "traced_wall_s": [s.wall_s for s in traced]}
    return untraced + traced, metrics, samples


def run_metadata(args, workload, nproc, threads) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "overfit_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trials": workload.trials,
        "trials_per_sweep": workload.trials_per_sweep,
        "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "thread_env": threads, "commit": commit, "src_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import REFERENCE_SEED, WORKLOADS

    args = parse_args(argv)
    if not (SRC / "overfit_lab" / "__init__.py").is_file():
        print(f"error: no overfit_lab sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_thread_env(nproc)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    problems = []
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH_DIR) as tmp:
        out_dir = Path(tmp)
        if not args.trace:
            setup_s, setup_samples = measure_setup(workload)
        check = run_sweep(workload, REFERENCE_SEED, out_dir)
        check_rows(workload, check, problems)
        check_against_reference(workload, check, problems)
        phase = traced_phase if args.trace else untraced_phase
        sweeps, metrics, samples = phase(workload, args.seed, args.seconds,
                                         out_dir, problems)
    # the later sweeps are byte-compared with the first, so check that one
    check_rows(workload, sweeps[0], problems)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        samples["setup_s"] = setup_samples
    # a failed check (a missing row or non-finite field among them) fails
    # every trial of the run
    attempted = workload.trials_per_sweep * (len(sweeps) + 1)
    correct = not problems

    meta = run_metadata(args, workload, nproc, threads)
    meta.update(reference_seed=REFERENCE_SEED, samples=samples, problems=problems)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
