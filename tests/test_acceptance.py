"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The comparison grid runs once per session in the reduced 32x32 mode
(full 3-sample x 3-SNR x 3-fraction grid, 10 trials per cell, matched seeds)
and is shared by criteria 4, 5, 6 and 9.

Two sub-criteria are implemented faithfully and are expected to fail on this
implementation; the analysis lives in the project decision notes:
  - 4a (spline beats the raw noisy arm in 100% of cells): the noisy arm's
    region-mean PRE is nearly unbiased here (0.3-6%), so at 20% good frames
    the spline's own reconstruction error can exceed it.
  - 5 vs noisy (>= 30 point PRE reduction at 30 dB): with a region-mean PRE
    of ~2% for the noisy arm there are no 30 points to remove.
"""

import time

import numpy as np
import pytest

from straintc.cli import main as cli_main
from straintc.evaluate import run_grid
from straintc.fit import fit_stack
from straintc.kalman import KalmanSpec
from straintc.phantom import frame_times, preset, synth_cumulative, tau_map

from test_fit import normal_equations_deviation
from test_kalman import denoise
from test_spline import oracle_deviation, reconstruct_curve

GRID_SEED = 0
GRID_TRIALS = 10
GRID_SIZE = 32
SNRS = (30.0, 40.0, 60.0)
FRACTIONS = (0.20, 0.50, 0.75)
SAMPLES = ("A", "B", "C")


def report(criterion, ok, detail=""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def grid():
    start = time.perf_counter()
    results = run_grid(samples=SAMPLES, snrs=SNRS, fractions=FRACTIONS,
                       trials=GRID_TRIALS, seed=GRID_SEED,
                       width=GRID_SIZE, height=GRID_SIZE, jobs=2)
    elapsed = time.perf_counter() - start
    whole = {(r.sample, r.method, r.snr_db, r.good_fraction): r
             for r in results if r.region == "whole"}
    return whole, elapsed


def cells():
    return [(s, snr, f) for s in SAMPLES for snr in SNRS for f in FRACTIONS]


def test_criterion_1_exact_recovery_round_trip():
    spec = preset("A")
    truth = tau_map(spec)
    start = time.perf_counter()
    tc = fit_stack(synth_cumulative(spec), truth=truth)
    elapsed = time.perf_counter() - start
    rel = np.abs(tc.tau_map - truth) / truth
    report("1 (exact recovery, 128x128x300)",
           bool(tc.converged_mask.all()) and rel.max() < 1e-4 and elapsed < 60.0,
           f"max rel tau err {rel.max():.2e}, {elapsed:.1f} s")


def test_criterion_2_spline_oracle_equivalence():
    # reconstruct_stack on one (n_frames, 1, 1) stack per instance: its bad
    # frames against the dense oracle's spline through the good frames
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        deviation, knots_exact = oracle_deviation(rng, int(rng.integers(4, 51)))
        worst = max(worst, deviation)
        assert knots_exact  # good frames pass through bit-exactly
    knot_frames = np.array([5, 15, 30, 40])
    line = 2 * frame_times(50, 0.1) + 1
    _, out = reconstruct_curve(knot_frames, line[knot_frames], 50)
    linear_ok = np.allclose(out, line, atol=1e-12)
    report("2 (spline reconstruction vs dense oracle, 200 instances)",
           worst < 1e-10 and linear_ok,
           f"worst scaled deviation {worst:.2e}")


def test_criterion_3_jacobian_correctness():
    # the LM engine's normal equations J^T J and J^T r against those of a
    # central-difference Jacobian of exp_model
    rng = np.random.default_rng(3)
    t = np.arange(1, 301) * 0.5
    worst_jtj = worst_jtr = 0.0
    for _ in range(100):
        eta = rng.uniform(-0.05, 0.05)
        gamma = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.05)
        tau = rng.uniform(0.5, 50.0)
        jtj_dev, jtr_dev = normal_equations_deviation(t, np.array([eta, gamma, tau]))
        worst_jtj, worst_jtr = max(worst_jtj, jtj_dev), max(worst_jtr, jtr_dev)
    report("3 (normal equations vs central differences, 100 points)",
           max(worst_jtj, worst_jtr) < 1e-5,
           f"worst scaled deviation J^T J {worst_jtj:.2e}, J^T r {worst_jtr:.2e}")


def test_criterion_4a_spline_below_noisy_everywhere(grid):
    whole, _ = grid
    wins = [(s, snr, f) for s, snr, f in cells()
            if whole[(s, "spline", snr, f)].pre_mean < whole[(s, "noisy", snr, f)].pre_mean]
    losses = [c for c in cells() if c not in wins]
    report("4a (spline |PRE| < noisy |PRE| in 100% of cells)",
           len(wins) == len(cells()),
           f"{len(wins)}/27 cells; losing cells (all at 20% good frames): {losses}")


def test_criterion_4b_spline_below_kalman(grid):
    whole, _ = grid
    wins = sum(whole[(s, "spline", snr, f)].pre_mean < whole[(s, "kalman", snr, f)].pre_mean
               for s, snr, f in cells())
    report("4b (spline |PRE| < Kalman |PRE| in >= 90% of cells)",
           wins >= 0.9 * len(cells()), f"{wins}/27 cells")


def test_criterion_4c_spline_combined_below_15_percent(grid):
    whole, _ = grid
    worst = max(whole[(s, "spline", snr, f)].pre_mean for s, snr, f in cells())
    report("4c (spline combined |PRE| < 15% in every cell)",
           worst < 15.0, f"worst spline cell {worst:.2f}%")


def test_criterion_4_reduced_grid_runtime(grid):
    _, elapsed = grid
    report("4 runtime (reduced 32x32 grid under 5 minutes)",
           elapsed < 300.0, f"{elapsed:.1f} s for 27 cells x 3 methods x 10 trials")


def _mean_at_30db(whole, method):
    return float(np.mean([whole[(s, method, 30.0, f)].pre_mean
                          for s in SAMPLES for f in FRACTIONS]))


def test_criterion_5_improvement_vs_noisy_at_30db(grid):
    whole, _ = grid
    gap = _mean_at_30db(whole, "noisy") - _mean_at_30db(whole, "spline")
    report("5 (spline reduces mean |PRE| vs noisy by >= 30 points at 30 dB)",
           gap >= 30.0, f"gap {gap:.2f} points "
           f"(noisy {_mean_at_30db(whole, 'noisy'):.2f}%, spline {_mean_at_30db(whole, 'spline'):.2f}%)")


def test_criterion_5_improvement_vs_kalman_at_30db(grid):
    whole, _ = grid
    gap = _mean_at_30db(whole, "kalman") - _mean_at_30db(whole, "spline")
    report("5 (spline reduces mean |PRE| vs Kalman by >= 20 points at 30 dB)",
           gap >= 20.0, f"gap {gap:.2f} points")


def test_criterion_6_monotone_in_good_fraction(grid):
    whole, _ = grid
    ok = True
    detail = []
    for s in SAMPLES:
        inversions = []
        for method in ("noisy", "kalman", "spline"):
            for snr in SNRS:
                row = [whole[(s, method, snr, f)] for f in FRACTIONS]
                for lo, hi in zip(row, row[1:]):
                    if hi.pre_mean > lo.pre_mean:
                        within_std = (hi.pre_mean - lo.pre_mean
                                      <= max(lo.pre_std, hi.pre_std))
                        inversions.append(within_std)
        table_ok = len(inversions) <= 1 and all(inversions)
        ok = ok and table_ok
        detail.append(f"{s}:{len(inversions)} inversion(s)")
    report("6 (|PRE| non-increasing in good fraction, <= 1 in-std inversion per table)",
           ok, ", ".join(detail))


def test_criterion_7_kalman_baseline_sanity():
    # kalman_denoise on stacks whose pixels are the series
    spec = KalmanSpec(process_ratio=1e-3)
    const = denoise(np.full(300, 0.02), spec)
    const_ok = abs(const[-1] - 0.02) < 1e-6

    rng = np.random.default_rng(7)
    noise = rng.standard_normal((10_000, 60))
    var_ok = denoise(noise).var() < noise.var()

    lin_spec = KalmanSpec(process_ratio=1e-2)
    x, y = rng.standard_normal((2, 150))
    combined = denoise(2.5 * x - 1.25 * y, lin_spec)
    parts = 2.5 * denoise(x, lin_spec) - 1.25 * denoise(y, lin_spec)
    lin_dev = np.abs(combined - parts).max() / max(np.abs(parts).max(), 1e-12)
    lin_ok = lin_dev < 1e-9

    report("7 (Kalman: constant convergence, variance reduction, linearity)",
           const_ok and var_ok and lin_ok,
           f"const err {abs(const[-1] - 0.02):.1e}, linearity dev {lin_dev:.1e}")


def test_criterion_8_manifest_rerun_byte_identical(tmp_path):
    first = tmp_path / "run1"
    rerun = tmp_path / "run2"
    base = ["grid", "--samples", "A", "--snrs", "60", "--fractions", "0.75",
            "--trials", "2", "--seed", "11", "--size", "16"]
    assert cli_main(base + ["--out", str(first)]) == 0
    assert cli_main(["grid", "--from-manifest", str(first / "manifest.txt"),
                     "--out", str(rerun)]) == 0
    same_csv = (first / "grid.csv").read_bytes() == (rerun / "grid.csv").read_bytes()
    same_table = (first / "table_A.txt").read_bytes() == (rerun / "table_A.txt").read_bytes()
    report("8 (grid cell rerun from manifest is byte-identical)",
           same_csv and same_table, "grid.csv and table_A.txt compared")


def test_criterion_9_runtime_ordering_report(grid):
    whole, _ = grid
    totals = {m: sum(whole[(s, m, snr, f)].wall_time_s
                     for s, snr, f in cells()) for m in ("noisy", "kalman", "spline")}
    overhead = (totals["spline"] - totals["noisy"]) / totals["noisy"]
    ordering_ok = overhead < 0.10 and totals["kalman"] > totals["spline"]
    # non-binding criterion: the ordering is reported, not asserted
    print(f"[acceptance] criterion 9 (runtime ordering, non-binding): "
          f"{'OK' if ordering_ok else 'VIOLATED'}  "
          f"noisy {totals['noisy']:.1f} s, spline {totals['spline']:.1f} s "
          f"({overhead * 100:+.1f}%), kalman {totals['kalman']:.1f} s")
    assert all(t > 0 for t in totals.values())
