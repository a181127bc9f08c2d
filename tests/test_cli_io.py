import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import overfit_lab.cli as cli
import overfit_lab.experiments as experiments
from overfit_lab import linalg
from overfit_lab.config import CONFIG_KEYS, parse_config, serialize_config
from overfit_lab.csvio import write_csv, write_singular_values_csv, write_spectrum_csv
from overfit_lab.errors import ConfigError, NumericError, PlotFieldError
from overfit_lab.experiments import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    aggregate,
    run_experiment,
)
from overfit_lab.features import FEATURE_LAWS, INPUT_DOMAINS, KERNEL_KINDS
from overfit_lab.plotting import render_plot
from overfit_lab.spectra import DECAY_KINDS

# frozen output of the condnum sweep (n_grid=(8,), trials=2, master_seed=7), whose
# values come from the certified Gram-eigenvalue route; schema drift or any
# nondeterminism shows up as a byte difference here.  Re-frozen when the
# design streamed through 32-row blocks and K became their sum: s_min,
# condition_number and ratio_to_theory moved by at most 3.6e-14 relative,
# s_max by 3.6e-16, inside the certificate's bound.  Re-frozen when the
# blocks became one 80-row fold summed into K by dsyrk and K's values were
# taken in place: s_min, condition_number and ratio_to_theory moved by at
# most 3.6e-14 relative, s_max by 3.6e-16, under 0.5% of the certificate's
# bound
GOLDEN_CONDNUM = """\
experiment,seed,N,M,trial,spectrum,law,kernel,s_max,s_min,condition_number,ratio_to_theory,s_min_over_n_lambda_n,s_min_over_n,min_p_squared,mse,bias,variance,m_truncated,variance_full,truncation_gap,truncation_bound,bound_holds
condnum,1082242704324474087,8,80,0,polynomial,gaussian,,9.937382405140138,0.06365397068214777,156.11567194703142,2.439307374172366,,,,,,,,,,,
condnum,219182256276397182,8,80,1,polynomial,gaussian,,7.1943380327101965,0.05741825807979973,125.29704441245023,1.957766318944535,,,,,,,,,,,
"""

# SHA-256 of the CSV of each tiny sweep below; any change to a value, the row
# order or the schema changes the digest.  The learning-curve and truncation
# digests were re-frozen when the full solve moved to the certified Gram route
# (values moved by at most 2.6e-10 relative, s_min at exponential N=16).  The
# learning-curve digests were re-frozen again when the exact population bias
# replaced the Monte-Carlo estimate over n_test=20 columns: only ``bias``
# moved, by at most 30% relative (polynomial) and 44% (exponential), the
# spread of a 20-column estimate.  The smin-study digest was re-frozen when
# cosine and sine designs moved to block angle addition: only their rows
# moved, s_min, condition_number and the s_min ratios by at most 8.0e-14
# relative, min_p_squared by 9.1e-15 and s_max by 4.7e-16.  The
# learning-curve and truncation digests were re-frozen when the trial
# streamed its test design into residuals and the variance summed over row
# blocks: mse moved by at most 3.7e-16 relative (polynomial) and 6.7e-16
# (exponential), variance by 3.8e-16; in truncation variance by 3.8e-16,
# variance_full by 4.6e-16, truncation_bound by 4.4e-16 and
# truncation_gap, a difference of two variances, by 1.5e-14.  The
# smin-study digest was re-frozen when each design streamed through a buffer
# of 2 N rows (at least 32) and K became the sum of the blocks' Grams; every
# row kept its route ("gram_eigh" at N <= 16, also for cosine and sine) and
# moved within its certificate's bound (the ledger, ``golden_moves``):
# s_min, condition_number and the s_min ratios by at most 2.8e-13 relative
# (sine, N=16), s_max by 1.0e-15 and min_p_squared, its tail sums now added
# block by block, by 9.3e-16.  The smin-study digest was re-frozen again
# when the designs streamed through one fold of up to 128 rows (all of
# M <= 160 here), summed into K by dsyrk, and K's values were taken in
# place on two lanes; every row kept "gram_eigh" and moved under 0.6% of
# its certificate's bound: s_min, condition_number and the s_min ratios by
# at most 3.0e-13 relative (sine, N=16), s_max by 1.2e-15 and
# min_p_squared by 9.3e-16.  The exponential learning curve takes the
# Jacobi path at N=32; the ntk case puts the anchors in training.
GOLDEN_SHA256 = {
    "learning_curve-polynomial": (
        dict(experiment="learning_curve", n_grid=(8, 16), trials=2, n_test=20),
        "698673fd49dd029d3d9a30ee1f0247f8b24948659ef68202ff1a8cd362e8b59d",
    ),
    "learning_curve-exponential": (
        dict(experiment="learning_curve", spectrum="exponential", n_grid=(16, 32),
             trials=2, n_test=20),
        "293e9b16e6e50a900d4d810d540d4b823ea3d1a444e3b0f88a2743ce104e741d",
    ),
    "smin_study": (
        dict(experiment="smin_study", n_grid=(8, 16), trials=2),
        "420c6831d56609201badb6a132c2dfcbb33f03aac631ded7075928321316bf44",
    ),
    "kernel_interp": (
        dict(experiment="kernel_interp", n_grid=(16, 32), trials=2, n_test=20),
        "e90409d43afcf70275405fb6ab3429c46b9804e98aaae047a6677487251d590a",
    ),
    "kernel_interp-anchors": (
        dict(experiment="kernel_interp", kernel="ntk_1hidden",
             anchors_in_training=True, n_anchors=4, n_grid=(8, 16), trials=2,
             n_test=20),
        "fb1c50edca53473ca7852491bdfc41c66770d4d926d46d4a172db6ddb603ff12",
    ),
    "truncation": (
        dict(experiment="truncation", n_grid=(8, 16), trials=2, eta_full=20,
             truncation_etas=(5, 10)),
        "eb2e0cf58fdd0b53e86becf349ef49b6ba02ba382a6333fd7493c48e4655c89a",
    ),
}

# the CSV each digest above freezes, one file per sweep (the move ledger)
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_moves(got: bytes, want: bytes) -> str:
    """Where a sweep's CSV ``got`` moved from its golden ``want``: per
    column, the largest relative move and the row (1-based, below the
    header) it sits in.  A cell that is not a finite number on both sides
    moves by inf when its text differs."""
    got_rows, want_rows = (list(csv.DictReader(io.StringIO(b.decode())))
                           for b in (got, want))
    if len(got_rows) != len(want_rows) or got_rows and list(got_rows[0]) != list(want_rows[0]):
        return f"golden moves: {len(got_rows)} rows against {len(want_rows)}, or other columns"
    worst = {}
    for i, (row, ref) in enumerate(zip(got_rows, want_rows), 1):
        for col, text in ref.items():
            if row[col] == text:
                continue
            try:
                a, b = float(row[col]), float(text)
                move = abs(a - b) / max(abs(a), abs(b))
            except (ValueError, ZeroDivisionError):
                move = math.inf
            if not move <= worst.get(col, (-1.0,))[0]:
                worst[col] = (move, i)
    lines = [f"{col}: {move:.3g} relative at row {i}" for col, (move, i) in worst.items()]
    return "\n".join(["golden moves:", *lines] if lines else ["golden moves: no value moved"])


# SHA-256 of the --plot SVG of each plotting subcommand for a tiny sweep at
# master seed 7 (the same sweeps as above where there is one); any change to a
# plotted value, an axis choice or the markup changes the digest
GOLDEN_SVG_SHA256 = {
    "condnum": (
        ["--n-grid", "8 16", "--trials", "2"],
        "0882cdf8d464ba50f36ff89209acc712e9d5de7263d740b14e91026ba4b9db02",
    ),
    "learning-curve": (
        ["--n-grid", "8 16", "--trials", "2", "--n-test", "20"],
        "afeb1794e3057350779c68fbf4ff8f94c7446dae8e20ec9c85e536664b801dec",
    ),
    "smin-study": (
        ["--n-grid", "8 16", "--trials", "2"],
        "2377d1cf8c657aa363a7f530e7f66f813e645ccb38456958533435f99b493a8a",
    ),
    "kernel-interp": (
        ["--n-grid", "16 32", "--trials", "2", "--n-test", "20"],
        "1f0da24234b02e105926a384f1caf8b4e8373cee291f132570ea9156baeb514d",
    ),
    "truncation": (
        ["--n-grid", "8 16", "--trials", "2", "--eta-full", "20",
         "--truncation-etas", "5 10"],
        "81fce61993c69aa23941098bd0acedb14a8c0fde8ac6f2ee8ade932e9de3a997",
    ),
}


class TestParseConfig:
    def test_empty_file_gives_protocol_defaults(self):
        cfg = parse_config("")
        assert cfg.eta == 10
        assert cfg.trials == 20
        assert cfg.n_test == 1000
        assert cfg.sigma == 1.0

    def test_eta_one_rejected_at_boundary(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config("eta = 1\n")

    def test_flag_override_beats_file(self):
        cfg = parse_config("trials = 20\n", overrides={"trials": "5"})
        assert cfg.trials == 5

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 2.*banana"):
            parse_config("trials = 3\nbanana = 7\n")

    def test_malformed_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 1.*trials"):
            parse_config("trials = many\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# protocol\n\ntrials = 3  # fewer\nn_grid = 8, 16\n")
        assert cfg.trials == 3
        assert cfg.n_grid == (8, 16)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override.*banana"):
            parse_config("", overrides={"banana": "1"})

    def test_round_trip(self):
        cfg = ExperimentConfig(
            experiment="learning_curve", spectrum="exponential", a=0.5,
            n_grid=(16, 32), trials=4, sigma=0.25, master_seed=99,
            anchors_in_training=True, truncation_etas=(3, 7),
            interval_hi=1.75,
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_numpy_scalars(self):
        # numpy floats serialize as plain decimals (their repr is np.float64(0.5))
        cfg = ExperimentConfig(a=np.float64(0.5), sigma=np.float64(0.25))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_invariants_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config("n_grid = 64, 32\n")


class TestCsv:
    def _mini_report(self):
        cfg = ExperimentConfig(experiment="condnum", n_grid=(8,), trials=2,
                               master_seed=7)
        return run_experiment(cfg)

    def test_empty_report_header_only(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "empty.csv"
        write_csv(ExperimentReport(cfg, [], {}), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("experiment,seed,N,M,trial")

    def test_single_record_two_lines(self, tmp_path):
        cfg = ExperimentConfig()
        rec = TrialRecord("condnum", seed=1, N=8, M=80, trial=0, mse=0.125)
        path = tmp_path / "one.csv"
        write_csv(ExperimentReport(cfg, [rec], {}), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert ",0.125," in lines[1]

    def test_rewrite_is_byte_identical(self, tmp_path):
        report = self._mini_report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(report, p1)
        write_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_golden_file(self, tmp_path):
        report = self._mini_report()
        path = tmp_path / "golden.csv"
        write_csv(report, path)
        assert path.read_text() == GOLDEN_CONDNUM

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_golden_digest(self, tmp_path, name):
        # the digest is the byte check; the CSV committed beside it only
        # explains a mismatch, by the largest move per column
        kw, digest = GOLDEN_SHA256[name]
        golden = (GOLDEN_DIR / f"{name}.csv").read_bytes()
        assert hashlib.sha256(golden).hexdigest() == digest, f"{name}.csv is stale"
        path = tmp_path / f"{name}.csv"
        write_csv(run_experiment(ExperimentConfig(master_seed=7, **kw)), path)
        got = path.read_bytes()
        assert hashlib.sha256(got).hexdigest() == digest, golden_moves(got, golden)

    def test_golden_moves_name_the_moved_cell(self):
        # a variance scaled by 1 + 1e-12 shows up as a 1e-12 move in that
        # column, at that row, and nowhere else
        golden = (GOLDEN_DIR / "truncation.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(golden.decode())))
        rows[2]["variance"] = repr(float(rows[2]["variance"]) * (1 + 1e-12))
        out = io.StringIO(newline="")
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        report = golden_moves(out.getvalue().encode(), golden).splitlines()
        assert len(report) == 2 and report[1].startswith("variance: 1e-12 ")
        assert report[1].endswith(" at row 3")
        assert golden_moves(golden, golden).endswith("no value moved")

    def test_inf_sentinel(self, tmp_path):
        cfg = ExperimentConfig()
        rec = TrialRecord("condnum", seed=1, N=8, M=80, trial=0,
                          condition_number=math.inf)
        path = tmp_path / "inf.csv"
        write_csv(ExperimentReport(cfg, [rec], {}), path)
        assert ",inf," in path.read_text()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv(self._mini_report(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_spectrum_csv(self, tmp_path):
        from overfit_lab.spectra import make_spectrum

        path = tmp_path / "spec.csv"
        write_spectrum_csv(make_spectrum("polynomial", 1.0, 3), path)
        assert path.read_text() == "k,lambda_k\n1,1.0\n2,0.25\n3,0.1111111111111111\n"

    def test_singular_values_csv(self, tmp_path):
        path = tmp_path / "sv.csv"
        write_singular_values_csv([4.0, 1.0], path)
        assert path.read_text() == "index,singular_value\n1,4.0\n2,1.0\n"


def _toy_report(ns=(8, 16, 32), laws=("gaussian",), value=lambda n, i: 1.0 + i):
    cfg = ExperimentConfig()
    recs = []
    for law in laws:
        for n in ns:
            for i in range(3):
                recs.append(TrialRecord(
                    "condnum", seed=i, N=n, M=10 * n, trial=i,
                    spectrum="polynomial", law=law,
                    ratio_to_theory=value(n, i),
                ))
    return ExperimentReport(cfg, recs, aggregate(recs))


class TestRenderPlot:
    def test_single_n_marker_only(self, tmp_path):
        report = _toy_report(ns=(8,))
        path = tmp_path / "one.svg"
        render_plot(report, path, y_field="ratio_to_theory")
        text = path.read_text()
        ET.fromstring(text)  # well-formed XML
        assert "<polyline" not in text
        assert "<circle" in text

    def test_series_per_varying_group(self, tmp_path):
        report = _toy_report(laws=("gaussian", "cosine"))
        path = tmp_path / "two.svg"
        render_plot(report, path, y_field="ratio_to_theory")
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert ">cosine<" in text and ">gaussian<" in text

    def test_nonfinite_dropped_with_count(self, tmp_path):
        report = _toy_report(value=lambda n, i: math.inf if n == 16 else 1.0)
        path = tmp_path / "drop.svg"
        render_plot(report, path, y_field="ratio_to_theory")
        text = path.read_text()
        assert "<!-- dropped-points: 1 -->" in text

    def test_missing_field(self, tmp_path):
        report = _toy_report()
        with pytest.raises(PlotFieldError):
            render_plot(report, tmp_path / "x.svg", y_field="mse")

    def test_log_axes_deterministic(self, tmp_path):
        report = _toy_report()
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_plot(report, p1, y_field="ratio_to_theory", log_x=True, log_y=True)
        render_plot(report, p2, y_field="ratio_to_theory", log_x=True, log_y=True)
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def test_condnum_end_to_end(self, tmp_path):
        out = tmp_path / "out.csv"
        plot = tmp_path / "out.svg"
        code = cli.main([
            "condnum", "--out", str(out), "--plot", str(plot),
            "--n_grid", "8", "--trials", "2",
        ])
        assert code == 0
        assert out.read_text().startswith("experiment,seed,N,M,trial")
        assert plot.read_text().startswith("<?xml")

    @pytest.mark.parametrize("subcommand", sorted(GOLDEN_SVG_SHA256))
    def test_golden_plot_digest(self, tmp_path, subcommand):
        flags, digest = GOLDEN_SVG_SHA256[subcommand]
        plot = tmp_path / "plot.svg"
        code = cli.main([subcommand, "--master-seed", "7", *flags,
                         "--out", str(tmp_path / "out.csv"), "--plot", str(plot)])
        assert code == 0
        assert hashlib.sha256(plot.read_bytes()).hexdigest() == digest

    def test_config_file_plus_flags(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 4\nn_grid = 8\n")
        out = tmp_path / "o.csv"
        code = cli.main(["condnum", "--config", str(cfg_file),
                         "--trials", "2", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == 1 + 2  # header + two trials

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["condnum", "--out", str(tmp_path / "x.csv"),
                         "--eta", "1"])
        assert code == 1
        assert "eta" in capsys.readouterr().err
        # an infinite interval end is a validation error, not a sampler crash
        code = cli.main(["kernel-interp", "--out", str(tmp_path / "x.csv"),
                         "--n-grid", "8", "--trials", "1",
                         "--input-domain", "uniform_interval",
                         "--interval-hi", "inf"])
        assert code == 1
        assert "interval_hi must be finite" in capsys.readouterr().err
        # every subcommand rejects an unknown enum value, read or not
        code = cli.main(["smin-study", "--out", str(tmp_path / "x.csv"),
                         "--law", "foo"])
        assert code == 1
        assert "law" in capsys.readouterr().err

    def test_import_loads_no_scipy(self, tmp_path):
        # no import loads scipy, nor any sweep where a bundled OpenBLAS runs
        # the Jacobi SVD through ctypes: steep condnum, learning-curve and
        # truncation sweeps take that path
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        code = "import overfit_lab.cli, sys; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
        if linalg._openblas("scipy") is None:
            pytest.skip("scipy's bundled scipy-openblas or its LAPACKE_dgejsv_work "
                        "not found; the Jacobi SVD imports scipy.linalg")
        steep = ["--spectrum", "exponential", "--n-grid", "32", "--trials", "1",
                 "--n-test", "20"]
        argvs = [[sub, *steep] for sub in ("condnum", "learning-curve", "truncation")]
        argvs += [["smin-study", "--n-grid", "16", "--trials", "1"],
                  ["kernel-interp", "--n-grid", "16", "--trials", "1", "--n-test", "20"]]
        code = (
            "import overfit_lab.cli as c, sys\n"
            f"for i, argv in enumerate({argvs!r}):\n"
            f"    assert c.main([*argv, '--out', {str(tmp_path)!r} + f'/{{i}}.csv']) == 0\n"
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "         or None)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("argv,mapped", [
        (["condnum", "--spectrum", "exponential", "--n-grid", "32,64"], False),
        (["smin-study", "--n-grid", "16,256"], False),
        (["learning-curve", "--n-grid", "16,64", "--n-test", "20"], False),
        # the Jacobi SVD with vectors (a steep fit) still runs scipy's
        # library, until ROADMAP item 2's last step
        (["learning-curve", "--spectrum", "exponential", "--n-grid", "32",
          "--n-test", "20"], True),
    ], ids=["condnum-steep", "smin-study", "learning-curve", "learning-curve-steep"])
    def test_sweep_maps_one_openblas(self, tmp_path, argv, mapped):
        # values-only factorizations run numpy's bundled OpenBLAS; a fresh
        # interpreter maps scipy's only for a call with vectors
        if not Path("/proc/self/maps").exists():
            pytest.skip("no /proc/self/maps to read the mapped libraries from")
        for package in ("numpy", "scipy"):
            if linalg._openblas(package) is None:
                pytest.skip(f"{package}'s bundled scipy-openblas or its "
                            "LAPACKE_dgejsv_work not found")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        code = (
            "import overfit_lab.cli as c\n"
            f"assert c.main([*{argv!r}, '--trials', '1', '--out', "
            f"{str(tmp_path / 'out.csv')!r}]) == 0\n"
            "print('libscipy_openblas-' in open('/proc/self/maps').read())\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[-1] == str(mapped)

    @pytest.mark.parametrize("subcommand", sorted(cli.SUBCOMMANDS))
    def test_range_checks_in_every_subcommand(self, tmp_path, capsys, subcommand):
        # a range error is a validation error (exit 1) whether or not the
        # subcommand reads the key
        for flags, message in ((["--bandwidth", "0"], "bandwidth must be positive"),
                               (["--interval-lo", "3", "--interval-hi", "1"],
                                "interval_lo must be below interval_hi")):
            code = cli.main([subcommand, *flags, "--n-grid", "4", "--trials", "1",
                             "--out", str(tmp_path / "x.csv")])
            assert code == 1, flags
            assert message in capsys.readouterr().err

    def test_unknown_flag_exit_code(self, tmp_path):
        out = ["--out", str(tmp_path / "x.csv")]
        # usage errors are validation errors (exit 1), never argparse's 2
        for argv in (["condnum", *out, "--banana", "1"],
                     ["condnum", *out, "--tri", "1"],  # flags are never abbreviated
                     ["condnum", "--trials", "1"],  # no --out
                     ["condnm", *out],
                     ["condnum", *out, "--trials"]):
            assert cli.main(argv) == 1, argv

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise NumericError("synthetic")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert cli.main(["condnum", "--out", str(tmp_path / "x.csv"),
                         "--n_grid", "8", "--trials", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["learning-curve", "--sigma", "1e300"],
        ["kernel-interp", "--kernel", "gaussian_rbf", "--bandwidth", "1e300"],
        ["kernel-interp", "--sigma", "1e300"],
    ])
    def test_overflow_exit_code(self, tmp_path, capsys, argv):
        # a float power that overflows (sigma**2, bandwidth**2) raises
        # OverflowError, and noise of 1e300 takes the kernel-interp mse to
        # inf, which its record rejects: numeric failures, not a crash or an
        # inf cell in the CSV
        out = tmp_path / "x.csv"
        code = cli.main([*argv, "--out", str(out), "--n-grid", "8", "--trials", "1"])
        assert code == 2 and not out.exists()
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["learning-curve", "smin-study"])
    def test_pool_thread_failure_exit_code(self, tmp_path, monkeypatch, capsys,
                                           subcommand):
        # a numeric failure on a trial's pool thread surfaces from the trial
        # as itself: exit 2, not a crash.  The learning curve streams its
        # test design there, and its training design, drawn on the calling
        # thread, is drawn as usual.  smin-study decomposes its second lane
        # there (uniform, then sine), and the failure is in the last draw;
        # the calling thread's lane (gaussian, cosine) is drawn as usual
        real_fill, real_blocks = experiments.fill_design, experiments.design_blocks
        threads = []

        def on_main(law):
            threads.append(threading.current_thread())
            if threading.current_thread() is not threading.main_thread() and (
                    subcommand == "learning-curve" or law == FEATURE_LAWS[-1]):
                raise NumericError("synthetic draw failure")

        def failing_fill(law, out, seed):
            on_main(law)
            return real_fill(law, out, seed)

        def failing_blocks(law, *args):  # the generator is drawn where it is iterated
            on_main(law)
            yield from real_blocks(law, *args)

        monkeypatch.setattr(experiments, "fill_design", failing_fill)
        monkeypatch.setattr(experiments, "design_blocks", failing_blocks)
        code = cli.main([subcommand, "--out", str(tmp_path / "x.csv"),
                         "--n_grid", "8", "--trials", "1", "--n-test", "20"])
        assert code == 2
        assert "synthetic draw failure" in capsys.readouterr().err
        if subcommand == "smin-study":
            assert sorted(t is threading.main_thread() for t in threads) == [
                False, False, True, True]
        else:
            assert len(threads) > threads.count(threading.main_thread()) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_exit_code(self, tmp_path, monkeypatch, capsys, bad):
        # a non-finite design entry fails the Gram route's trace check and
        # then the factor SVD: exit 2.  smin-study streams each design in
        # row blocks; the entry is in the last row of the last block
        real = experiments.design_blocks

        def spoiled_blocks(law, M, block, seed):
            for rows in real(law, M, block, seed):
                if rows.stop == M:
                    block[rows.stop - rows.start - 1, 0] = bad
                yield rows

        monkeypatch.setattr(experiments, "design_blocks", spoiled_blocks)
        code = cli.main(["smin-study", "--out", str(tmp_path / "x.csv"),
                         "--n_grid", "16", "--trials", "1"])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_nan_record_exit_code(self, tmp_path, monkeypatch, capsys):
        # a NaN reaching a TrialRecord is a numeric failure of that trial
        real = experiments.row_norm_diagnostics

        def nan_diagnostics(*args):
            return dataclasses.replace(real(*args), min_p_squared=float("nan"))

        monkeypatch.setattr(experiments, "row_norm_diagnostics", nan_diagnostics)
        code = cli.main(["smin-study", "--out", str(tmp_path / "x.csv"),
                         "--n_grid", "8", "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "numeric failure" in err and "min_p_squared" in err

    def test_truncation_underflow_exit_code(self, tmp_path, capsys):
        # the full-rank spectrum is capped like every other: a=4 underflows
        # past index 172, so N=256 cannot be simulated, and at N=172 the cap
        # leaves no truncation level above N; either run fails
        for grid, n in (("32,64,128,256", "N=256"), ("64,172", "N=172")):
            code = cli.main(["truncation", "--out", str(tmp_path / "t.csv"),
                             "--spectrum", "exponential", "--a", "4.0",
                             "--n-grid", grid, "--trials", "1",
                             "--truncation-etas", "2"])
            assert code == 1
            assert n in capsys.readouterr().err

    def test_uncapped_decay_rate_exit_code(self, tmp_path, capsys):
        # exp(-a M) stays above the underflow floor for more M than a float
        # holds: a validation error naming a, before anything is computed
        out = tmp_path / "x.csv"
        code = cli.main(["smin-study", "--spectrum", "exponential", "--a", "5e-324",
                         "--n-grid", "12", "--trials", "1", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "a=5e-324" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        out3 = tmp_path / "c.csv"
        args = ["condnum", "--n_grid", "8", "--trials", "1"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("OVERFIT_LAB_SEED", "12345")
        assert cli.main(args + ["--out", str(out2)]) == 0
        # explicit flag still wins over the environment
        assert cli.main(args + ["--out", str(out3),
                                "--master_seed", "2024"]) == 0
        assert out1.read_bytes() != out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    def test_spectrum_dump(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = cli.main(["spectrum-dump", "--out", str(out),
                         "--spectrum_length", "4"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,lambda_k"
        assert lines[1] == "1,1.0"
        assert len(lines) == 5
        # the default length is M at the largest N, capped like every sweep
        assert cli.main(["spectrum-dump", "--out", str(out),
                         "--spectrum", "exponential"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 690
        # it draws no plot, so --plot is a usage error
        plot = tmp_path / "spec.svg"
        assert cli.main(["spectrum-dump", "--out", str(out),
                         "--plot", str(plot)]) == 1
        assert not plot.exists()

    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_config_key_is_a_flag(self, tmp_path, key):
        # the serialized default of each field, passed in both spellings
        defaults = dict(line.split(" = ", 1) for line in
                        serialize_config(ExperimentConfig()).splitlines())
        for flag in (f"--{key}", f"--{key.replace('_', '-')}"):
            assert cli.main(["spectrum-dump", "--out", str(tmp_path / "s.csv"),
                             flag, defaults[key], "--spectrum-length", "4"]) == 0

    def test_flag_values_that_look_like_options(self, tmp_path, capsys):
        # a flag takes the next token as its value: --key -1e3 is --key=-1e3,
        # and --a -inf reaches the config's own validation
        base = ["kernel-interp", "--n-grid", "8", "--trials", "1", "--n-test", "5",
                "--input-domain", "uniform_interval", "--interval-hi", "1e3"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert cli.main(base + ["--interval-lo", "-1e3", "--out", str(spaced)]) == 0
        assert cli.main(base + ["--interval-lo=-1e3", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        capsys.readouterr()
        assert cli.main(["condnum", "--out", str(tmp_path / "x.csv"),
                         "--a", "-inf"]) == 1
        assert "decay parameter a must be positive" in capsys.readouterr().err

    def test_hyphenated_flags_accepted(self, tmp_path):
        out = tmp_path / "h.csv"
        assert cli.main(["condnum", "--n-grid", "8", "--trials", "1",
                         "--out", str(out)]) == 0

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["condnum", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "x.csv")]) == 1


# extreme finite floats: the largest and smallest normal and subnormal
# magnitudes of both signs and powers that overflow when squared, then
# ordinary positive values (a decay rate a > 1.23 puts an N = 16
# exponential factor on the Jacobi path: lambda_1/lambda_16 = e^(15 a) > 1e8),
# then any finite float
_EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e150, 1e300, -1e300, 5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(0.01, 40.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _flag_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


# one strategy per config key; int keys stay small and n_grid and trials are
# always given, so every example is cheap (N <= 16 and one trial); enum keys
# add one unknown value
_CONFIG_VALUES = {
    "experiment": st.sampled_from([*experiments.TRIALS, "foo"]),
    "spectrum": st.sampled_from([*DECAY_KINDS, "foo"]),
    "a": _EXTREME_FLOATS,
    "law": st.sampled_from([*FEATURE_LAWS, "foo"]),
    "eta": st.integers(-1, 40),
    "n_grid": st.lists(st.integers(-1, 16), min_size=1, max_size=3,
                       unique=True).map(sorted),
    "trials": st.just(1),
    "n_test": st.integers(-1, 64),
    "sigma": _EXTREME_FLOATS,
    "master_seed": st.integers(-2**70, 2**70),
    "kernel": st.sampled_from([*KERNEL_KINDS, "foo"]),
    "bandwidth": _EXTREME_FLOATS,
    "input_domain": st.sampled_from(["", *INPUT_DOMAINS, "foo"]),
    "interval_lo": _EXTREME_FLOATS,
    "interval_hi": _EXTREME_FLOATS,
    "n_anchors": st.integers(-1, 20),
    "anchors_in_training": st.booleans(),
    "eta_full": st.integers(-1, 120),
    "truncation_etas": st.lists(st.integers(-1, 12), max_size=3),
    "spectrum_length": st.integers(-1, 200),
}


def test_property_strategy_covers_every_config_key():
    assert set(_CONFIG_VALUES) == CONFIG_KEYS


def _assert_exit_contract(argv) -> int:
    """Run ``cli.main(argv + --out)`` and check the exit-code contract: 0, 1
    or 2 and nothing raised; exit 0 wrote only finite floats, except the
    sentinels of an s_min cut to 0; exit 2 reported a numeric failure."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = cli.main([*argv, "--out", str(out)])
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("numeric failure"), (argv, err.getvalue())
        if code == 0:
            for row in csv.DictReader(out.open(encoding="utf-8")):
                for name, cell in row.items():
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # empty, or a name
                    assert math.isfinite(value) or name in (
                        "condition_number", "ratio_to_theory"), (argv, name, cell)
    return code


def _argv(subcommand, config) -> list[str]:
    argv = [subcommand]
    for key, value in config.items():
        argv += [f"--{key}", _flag_value(value)]
    return argv


@settings(max_examples=400, deadline=None)
@given(subcommand=st.sampled_from(sorted(cli.SUBCOMMANDS)),
       config=st.fixed_dictionaries(
           {key: _CONFIG_VALUES[key] for key in ("n_grid", "trials")},
           optional={key: values for key, values in _CONFIG_VALUES.items()
                     if key not in ("n_grid", "trials")}))
def test_every_config_keeps_the_exit_code_contract(subcommand, config):
    code = _assert_exit_contract(_argv(subcommand, config))
    event(f"{subcommand} exit {code}")


@settings(max_examples=100, deadline=None)
@given(subcommand=st.sampled_from(["condnum", "learning-curve", "smin-study",
                                   "truncation"]),
       config=st.fixed_dictionaries(
           {"spectrum": st.just("exponential"),
            "a": st.one_of(st.floats(1.3, 60.0), _EXTREME_FLOATS),
            "n_grid": st.lists(st.integers(12, 16), min_size=1, max_size=2,
                               unique=True).map(sorted),
            "trials": st.just(1)},
           optional={key: _CONFIG_VALUES[key] for key in (
               "law", "eta", "n_test", "sigma", "master_seed", "eta_full",
               "truncation_etas")}))
def test_steep_configs_keep_the_exit_code_contract(subcommand, config):
    # the same contract where the factors are steep: a decay rate a puts an
    # N-column factor on the Jacobi path once e^((N - 1) a) > 1e8, so every
    # N = 16 factor here and the N = 12 ones from a > 1.68
    code = _assert_exit_contract(_argv(subcommand, config))
    event(f"{subcommand} exit {code}")
