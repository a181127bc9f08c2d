"""Command line front end.

    overfit-lab <subcommand> [--config FILE] [--key value ...] --out PATH

Subcommands: the experiments of ``experiments.TRIALS`` spelt with ``-``,
and spectrum-dump.  Every config key is a flag (``--n_grid`` or ``--n-grid``)
overriding the config file; the environment variable OVERFIT_LAB_SEED
overrides master_seed (explicit flags still win).  Exit codes: 0 success,
1 validation or usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import csvio, plotting
from .config import CONFIG_KEYS, parse_config
from .errors import NumericError, OverfitLabError
from .experiments import TRIALS, run_experiment
from .spectra import make_spectrum

SUBCOMMANDS = {e.replace("_", "-"): e for e in TRIALS} | {"spectrum-dump": None}

# (y field, log y axis) of each experiment's plot; every x axis (N) is log
PLOT_DEFAULTS = {
    "condnum": ("ratio_to_theory", False),
    "learning_curve": ("mse", True),
    "smin_study": ("s_min_over_n_lambda_n", True),
    "kernel_interp": ("mse", True),
    "truncation": ("truncation_gap", False),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise OverfitLabError(message)


def _attach_values(argv, flags) -> list[str]:
    """Rewrite ``--flag value`` as ``--flag=value``.

    A flag takes the next token as its value whatever it looks like;
    argparse alone reads a value such as ``-1e3`` or ``-inf`` as an option.
    """
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in flags else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv=None) -> int:
    parser = _Parser(
        prog="overfit-lab",
        description="kernel interpolation experiments with controlled eigen-decay",
        allow_abbrev=False,
    )
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--plot", help="optional SVG plot path")
    flags = {"--config", "--out", "--plot"}
    for key in sorted(CONFIG_KEYS):
        spellings = dict.fromkeys((f"--{key}", f"--{key.replace('_', '-')}"))
        parser.add_argument(*spellings, dest=key, help=f"config key {key}")
        flags.update(spellings)

    try:
        args = parser.parse_args(_attach_values(
            sys.argv[1:] if argv is None else argv, flags))
        overrides = {k: getattr(args, k) for k in CONFIG_KEYS
                     if getattr(args, k) is not None}
        env_seed = os.environ.get("OVERFIT_LAB_SEED")
        if env_seed is not None and "master_seed" not in overrides:
            overrides["master_seed"] = env_seed
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        if SUBCOMMANDS[args.subcommand] is not None:
            overrides["experiment"] = SUBCOMMANDS[args.subcommand]
        cfg = parse_config(text, overrides)

        if args.subcommand == "spectrum-dump":
            if args.plot:
                parser.error("spectrum-dump draws no plot; --plot is not accepted")
            length = cfg.spectrum_length or cfg.feature_count(max(cfg.n_grid))
            spec = make_spectrum(cfg.spectrum, cfg.a, length)
            csvio.write_spectrum_csv(spec, args.out)
            return 0

        report = run_experiment(cfg)
        csvio.write_csv(report, args.out)
        if args.plot:
            y_field, log_y = PLOT_DEFAULTS[cfg.experiment]
            plotting.render_plot(report, args.plot, y_field=y_field,
                                 log_x=True, log_y=log_y)
        return 0
    except (NumericError, np.linalg.LinAlgError, FloatingPointError,
            OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (OverfitLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
