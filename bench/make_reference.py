"""Regenerate the reference CSVs the benchmark compares against.

    python3 bench/make_reference.py

Runs every workload's sweep at the full acceptance protocol (20 trials per N)
at the reference seed and writes one CSV per (subcommand, spectrum) into
bench/reference/.  Run it only when an intended change to the numerics is
accepted; the benchmark's output check compares against these files.
"""

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import run

PROTOCOL_TRIALS = 20


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import REFERENCE_SEED, WORKLOADS

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".out-", dir=run.BENCH_DIR) as tmp:
        for workload in WORKLOADS.values():
            full = dataclasses.replace(workload, trials=PROTOCOL_TRIALS)
            sweep = run.run_sweep(full, REFERENCE_SEED, Path(tmp))
            problems = []
            run.check_rows(full, sweep, problems)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            for sub, spectrum in full.sweeps:
                shutil.copyfile(Path(tmp) / f"{sub}.csv",
                                run.REFERENCE_DIR / f"{sub}-{spectrum}.csv")
            print(f"{workload.name}: {sweep.wall_s:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
