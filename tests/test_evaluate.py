import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from straintc import evaluate
from straintc import fit as fit_mod
from straintc.degrade import NoiseSpec, add_noise, place_bad_frames
from straintc.evaluate import compute_pre, detect_bad_frames, format_grid_table, run_grid
from straintc.fit import LMConfig, TCImage
from straintc.kalman import KalmanSpec, kalman_denoise
from straintc.phantom import (InputError, StrainStack, inclusion_mask, preset,
                              synth_cumulative, synth_incremental, tau_map)
from straintc.spline import reconstruct_stack


def image(tau, converged=None):
    tau = np.asarray(tau, dtype=float)
    conv = np.ones(tau.shape, bool) if converged is None else converged
    return TCImage(tau, conv)


def disk_mask(h, w, r):
    y, x = np.ogrid[:h, :w]
    return (y - (h - 1) / 2) ** 2 + (x - (w - 1) / 2) ** 2 < r ** 2


def pre_rows(tc, truth):
    return {r.region: r for r in compute_pre(tc, truth)}


def test_pre_identity_is_exactly_zero():
    truth = np.where(disk_mask(16, 16, 4), 4.66, 11.42)
    rows = compute_pre(image(truth.copy()), truth)
    assert [r.region for r in rows] == ["inclusion", "background", "whole"]
    for r in rows:
        assert r.pre_percent == 0.0


def test_pre_doubling_is_plus_100():
    inc = disk_mask(16, 16, 4)
    truth = np.where(inc, 4.66, 11.42)
    rows = pre_rows(image(np.where(inc, 2 * 4.66, 11.42)), truth)
    assert rows["inclusion"].pre_percent == pytest.approx(100.0)
    assert rows["background"].pre_percent == 0.0


def test_pre_direct_arithmetic():
    truth = np.full((8, 8), 4.0)
    r = pre_rows(image(np.full((8, 8), 5.0)), truth)["background"]
    assert r.pre_percent == pytest.approx(25.0)
    assert r.mean_estimated_tau == pytest.approx(5.0)
    assert r.true_tau == pytest.approx(4.0)
    assert r.coverage == 1.0


def test_pre_sign_retained_per_region():
    inc = disk_mask(16, 16, 4)
    truth = np.where(inc, 4.0, 10.0)
    rows = pre_rows(image(np.where(inc, 3.0, 10.0)), truth)
    assert rows["inclusion"].pre_percent == pytest.approx(-25.0)
    # the whole-image summary combines absolute per-region errors
    n_inc = inc.sum()
    expected = 25.0 * n_inc / inc.size
    assert rows["whole"].pre_percent == pytest.approx(expected)


def test_pre_excludes_non_converged_and_reports_coverage():
    inc = disk_mask(8, 8, 2)
    truth = np.where(inc, 2.0, 4.0)
    tau = truth.copy()
    conv = np.ones((8, 8), bool)
    bg = ~inc
    idx = np.argwhere(bg)[:3]
    tau[tuple(idx.T)] = 400.0
    conv[tuple(idx.T)] = False  # garbage pixels are masked out
    r = pre_rows(image(tau, conv), truth)["background"]
    assert r.pre_percent == 0.0
    assert r.coverage == pytest.approx(1 - 3 / bg.sum())


@pytest.mark.filterwarnings("error")
def test_pre_empty_region_is_nan():
    inc = disk_mask(8, 8, 2)
    truth = np.where(inc, 4.0, 10.0)
    conv = ~inc  # nothing converged inside the inclusion
    rows = pre_rows(image(truth, conv), truth)
    empty = rows["inclusion"]
    assert np.isnan(empty.pre_percent) and np.isnan(empty.mean_estimated_tau)
    assert empty.true_tau == 4.0 and empty.coverage == 0.0
    assert rows["background"].pre_percent == 0.0 and rows["background"].coverage == 1.0
    # "whole" is NaN with it, and its coverage is the pixel-weighted one
    whole = rows["whole"]
    assert np.isnan(whole.pre_percent) and np.isnan(whole.mean_estimated_tau)
    assert whole.coverage == pytest.approx((~inc).sum() / inc.size)


def test_pre_empty_inclusion_mask_scores_background_as_whole():
    # a uniform truth map is all background; n * x / n with these 99 pixels
    # rounds the last bit of the PRE, so the lone region is copied to
    # "whole" rather than weighted by its count
    rng = np.random.default_rng(0)
    truth = np.full((9, 11), 4.66)
    tc = image(rng.uniform(3.0, 7.0, (9, 11)), rng.random((9, 11)) < 0.8)
    rows = compute_pre(tc, truth)
    assert [r.region for r in rows] == ["background", "whole"]
    bg, whole = rows
    assert bg.pre_percent > 0
    assert (whole.pre_percent, whole.mean_estimated_tau, whole.true_tau, whole.coverage) \
        == (bg.pre_percent, bg.mean_estimated_tau, bg.true_tau, bg.coverage)


def test_pre_inclusion_is_the_smaller_region_ties_to_the_smaller_tau():
    # the regions come from the truth map's values, not from their order
    inc = disk_mask(8, 8, 2)
    truth = np.where(inc, 11.42, 4.66)
    rows = pre_rows(image(truth), truth)
    assert rows["inclusion"].true_tau == 11.42 and rows["background"].true_tau == 4.66
    half = np.repeat([11.42, 4.66], 32).reshape(8, 8)
    rows = pre_rows(image(half), half)
    assert rows["inclusion"].true_tau == 4.66 and rows["background"].true_tau == 11.42


def test_pre_requires_truth():
    # a truth map is one value per pixel of the image, each finite and > 0,
    # and two distinct values at most
    tc = TCImage(np.ones((4, 4)), np.ones((4, 4), bool))

    def one_pixel(value):
        truth = np.full((4, 4), 4.66)
        truth[2, 3] = value
        return truth

    for truth, message in [
        (None, r"truth map shape \(\) does not match the stack's \(4, 4\)"),
        (np.ones((4, 5)), r"truth map shape \(4, 5\) does not match the stack's \(4, 4\)"),
        *((one_pixel(value), "finite and > 0") for value in (-1.0, np.inf, np.nan)),
        (np.zeros((4, 4)), "finite and > 0"),
        (np.repeat([4.66, 11.42, 2.0], [10, 4, 2]).reshape(4, 4),
         "1 or 2 distinct values, found 3"),
    ]:
        with pytest.raises(InputError, match=message):
            compute_pre(tc, truth)


def tiny_grid(**kw):
    args = dict(samples=("A",), snrs=(60.0,), fractions=(0.75,), trials=2,
                seed=3, width=8, height=8)
    args.update(kw)
    return run_grid(**args)


def test_grid_shape_and_determinism():
    a = tiny_grid()
    b = tiny_grid()
    assert len(a) == 3 * 3  # 3 methods x 3 regions
    for ra, rb in zip(a, b):  # every field except wall time is reproducible
        assert (ra.sample, ra.method, ra.snr_db, ra.good_fraction, ra.region,
                ra.trials) == (rb.sample, rb.method, rb.snr_db,
                               rb.good_fraction, rb.region, rb.trials)
        assert ra.pre_mean == rb.pre_mean
        assert ra.pre_std == rb.pre_std
        assert ra.coverage == rb.coverage


def test_grid_parallel_matches_serial():
    serial = tiny_grid()
    parallel = tiny_grid(jobs=2)
    for rs, rp in zip(serial, parallel):
        assert (rs.sample, rs.method, rs.region) == (rp.sample, rp.method, rp.region)
        assert rs.pre_mean == rp.pre_mean
        assert rs.pre_std == rp.pre_std
        assert rs.coverage == rp.coverage


def test_grid_near_clean_round_trip():
    # all frames good at extreme SNR: every method is a near-identity and
    # PRE collapses
    res = run_grid(samples=("A",), methods=("noisy", "spline"), snrs=(120.0,),
                   fractions=(1.0,), trials=1, seed=0, width=8, height=8)
    for r in res:
        assert r.pre_mean < 0.1
        assert r.coverage == 1.0


def test_grid_map_callback():
    seen = []
    run_grid(samples=("A",), methods=("noisy",), snrs=(60.0,), fractions=(0.75,),
             trials=1, seed=0, width=8, height=8,
             map_callback=lambda *args: seen.append(args))
    assert len(seen) == 1
    sample, method, snr, fraction, tc = seen[0]
    assert (sample, method, snr, fraction) == ("A", "noisy", 60.0, 0.75)
    assert tc.tau_map.shape == (8, 8)


def test_grid_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        tiny_grid(trials=0)
    with pytest.raises(ValueError, match="jobs"):
        tiny_grid(jobs=0)


def test_grid_rejects_unknown_method_before_any_cell(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a cell ran before the methods were checked")
    monkeypatch.setattr(evaluate, "_run_cell", unreachable)
    with pytest.raises(ValueError, match="unknown methods \\['foo'\\]"):
        tiny_grid(methods=("noisy", "foo"))


@pytest.mark.parametrize("kw, message", [
    (dict(samples=("A", "Z")), "unknown preset 'Z'"),
    (dict(samples=("a",)), "unknown preset 'a'"),
    (dict(snrs=(60.0, float("nan"))), "base_snr_db .* be finite, got nan"),
    (dict(snrs=(60.0, float("inf"))), "base_snr_db .* be finite, got inf"),
    (dict(fractions=(0.75, 1.5)), "good_frame_fraction"),
    (dict(width=0), "pixel dimensions"),
    (dict(seed=-1), "rng_seed"),
    (dict(samples=("A", "A")), "samples must be distinct"),
    (dict(samples=()), "samples must be distinct and non-empty"),
    (dict(methods=("noisy", "noisy")), "methods must be distinct"),
    (dict(methods=()), "methods must be distinct and non-empty"),
    (dict(snrs=(30, 30.0)), "snrs must be distinct"),
    (dict(snrs=()), "snrs must be distinct and non-empty"),
    (dict(fractions=(0.75, 0.75)), "fractions must be distinct"),
    (dict(fractions=()), "fractions must be distinct and non-empty"),
], ids=["sample", "lower_case_sample", "nan_snr", "inf_snr", "fraction", "width", "seed",
        "repeated_sample", "no_sample", "repeated_method", "no_method", "repeated_snr",
        "no_snr", "repeated_fraction", "no_fraction"])
def test_grid_rejects_bad_cell_inputs_before_any_cell(monkeypatch, kw, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a cell ran before its inputs were checked")
    monkeypatch.setattr(evaluate, "_run_cell", unreachable)
    with pytest.raises(ValueError, match=message):
        tiny_grid(**kw)


def test_grid_builds_each_phantom_and_mask_once(monkeypatch):
    # one phantom spec per sample and one mask per cell-trial, built by
    # run_grid up front and handed to the cells
    calls = {"preset": 0, "place_bad_frames": 0}

    def counted(name):
        original = getattr(evaluate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(evaluate, name, counted(name))
    run_grid(samples=("A", "B"), snrs=(30.0, 60.0), fractions=(0.75,), trials=3,
             width=8, height=8)
    assert calls == {"preset": 2, "place_bad_frames": 2 * 2 * 3}


def test_grid_rows_aggregate_trials_computed_by_hand():
    # each trial rebuilt from the protocol's pieces, all from one clean stack,
    # which a cell keeps until its last trial's noise draw; the rows are the
    # plain mean and std of |PRE| and the mean coverage over trials
    res = run_grid(samples=("C",), snrs=(30.0,), fractions=(0.5,), trials=3, seed=4,
                   width=12, height=12)
    spec = preset("C", width_px=12, height_px=12)
    clean, truth = synth_incremental(spec), tau_map(spec)
    arms = {"noisy": lambda degraded, mask: degraded,
            "kalman": lambda degraded, mask: kalman_denoise(degraded, KalmanSpec()),
            "spline": reconstruct_stack}
    pre = {(m, r): [] for m in arms for r in evaluate.REGIONS}
    cover = {(m, r): [] for m in arms for r in evaluate.REGIONS}
    for trial in range(3):
        noise = NoiseSpec(30.0, 0.5, evaluate._trial_seed(4, "C", 30.0, 0.5, trial))
        mask = place_bad_frames(spec.n_frames, noise)
        degraded = add_noise(clean, mask, noise)
        for method, arm in arms.items():
            for row in compute_pre(fit_mod.fit_stack(arm(degraded, mask)), truth):
                pre[method, row.region].append(abs(row.pre_percent))
                cover[method, row.region].append(row.coverage)
    assert [(r.method, r.region) for r in res] == list(pre)
    for r in res:
        key = r.method, r.region
        assert r.trials == 3
        assert r.pre_mean == np.mean(pre[key]) and r.pre_std == np.std(pre[key])
        assert r.coverage == np.mean(cover[key])


def test_grid_empty_region_is_nan_not_abort():
    # one LM iteration converges no pixel, so every region of every trial is
    # empty; the grid still completes and reports it
    res = tiny_grid(lm_config=LMConfig(max_iterations=1))
    assert len(res) == 3 * 3
    for r in res:
        assert np.isnan(r.pre_mean) and np.isnan(r.pre_std)
        assert r.coverage == 0.0


@pytest.mark.filterwarnings("error")
def test_grid_region_without_pixels_is_nan_and_whole_is_the_other():
    # no pixel center of a 2x2 phantom lies inside the inclusion
    res = {(r.method, r.region): r for r in tiny_grid(width=2, height=2, trials=1)}
    for method in evaluate.METHODS:
        inc, bg, whole = (res[method, region] for region in evaluate.REGIONS)
        assert np.isnan(inc.pre_mean) and inc.coverage == 0.0
        assert not np.isnan(bg.pre_mean) and bg.coverage > 0
        assert (whole.pre_mean, whole.coverage) == (bg.pre_mean, bg.coverage)


@pytest.mark.filterwarnings("error")
def test_grid_one_pixel_scores_background():
    # the lone pixel of a 1x1 phantom lies in the inclusion, but its uniform
    # truth map reads as all background, which is where the grid scores it
    res = {(r.method, r.region): r for r in tiny_grid(width=1, height=1, trials=1)}
    for method in evaluate.METHODS:
        inc, bg, whole = (res[method, region] for region in evaluate.REGIONS)
        assert np.isnan(inc.pre_mean) and np.isnan(inc.pre_std) and inc.coverage == 0.0
        assert np.isfinite(bg.pre_mean) and bg.coverage == 1.0
        assert (whole.pre_mean, whole.coverage) == (bg.pre_mean, bg.coverage)


def test_two_trial_cell_holds_no_stack(monkeypatch):
    # a cell-trial synthesizes, degrades and fits its stack one pixel block
    # at a time, and a cell keeps no stack from one trial to the next; with
    # one fit thread and 16 blocks of 256 pixels, a 2-trial 64x64 cell
    # peaks at about half a stack traced (the blocks of one task, the
    # masks and the maps), where any whole clean or degraded stack would
    # make it more than one
    monkeypatch.setattr(fit_mod, "_fit_threads", 1)
    monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", 256 * 300 * 8)
    assert len(fit_mod._block_edges(64 * 64, 300)) - 1 == 16
    stack = 64 * 64 * 300 * 8
    tracemalloc.start()
    try:
        run_grid(samples=("A",), snrs=(30.0,), fractions=(0.75,), trials=2, width=64, height=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack, f"peak {peak / stack:.2f} stacks"


def test_full_size_cell_trial_stays_below_four_stacks(monkeypatch):
    # a 128x128x300 stack is 37.5 MiB; a cell-trial builds none, and this
    # cell peaks at about 28 MiB traced with two fit threads
    monkeypatch.setattr(fit_mod, "_fit_threads", 2)
    stack_bytes = 128 * 128 * 300 * 8
    tracemalloc.start()
    try:
        run_grid(samples=("A",), snrs=(60.0,), fractions=(0.75,), trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * stack_bytes, f"peak {peak / 2 ** 20:.1f} MiB"


def test_one_trial_full_size_cell_stays_below_two_stacks(monkeypatch):
    # the costliest one-trial cell peaks at about 32 MiB traced with two fit
    # threads: the blocks in flight, the masks and the maps
    monkeypatch.setattr(fit_mod, "_fit_threads", 2)
    stack_bytes = 128 * 128 * 300 * 8
    tracemalloc.start()
    try:
        run_grid(samples=("C",), snrs=(30.0,), fractions=(0.2,), trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * stack_bytes, f"peak {peak / 2 ** 20:.1f} MiB"


def test_grid_rows_match_cumulate_then_fit(monkeypatch):
    # the grid streams each cell-trial through the fit one pixel block at a
    # time, each block synthesized, given its noise and fitted by all three
    # arms; synthesizing and degrading the whole stack, denoising it with
    # kalman_denoise or reconstruct_stack, then cumulating and fitting it,
    # gives the same rows, bit for bit, with 16 x 16 pixels in one block and
    # in four blocks of 64, and 15 x 17 in four blocks, fitted on two threads
    # whose tasks interleave often (each frame's noise generator must run
    # through the blocks in pixel order)
    arms = {"noisy": lambda degraded, mask: degraded,
            "kalman": lambda degraded, mask: kalman_denoise(degraded, KalmanSpec()),
            "spline": reconstruct_stack}
    samples, fractions, trials = ("A", "B", "C"), (0.2, 0.75), 2
    monkeypatch.setattr(fit_mod, "_fit_threads", 2)
    interval = sys.getswitchinterval()
    for height, width, block_bytes, n_blocks in ((16, 16, fit_mod._BLOCK_BYTES, 1),
                                                 (16, 16, 64 * 300 * 8, 4),
                                                 (15, 17, 64 * 300 * 8, 4)):
        monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", block_bytes)
        assert len(fit_mod._block_edges(height * width, 300)) - 1 == n_blocks
        sys.setswitchinterval(1e-5)
        try:
            res = run_grid(samples=samples, snrs=(30.0,), fractions=fractions, trials=trials,
                           width=width, height=height)
            # with one arm, the two threads gather successive blocks
            spline = run_grid(samples=samples, methods=("spline",), snrs=(30.0,),
                              fractions=fractions, trials=trials, width=width, height=height)
        finally:
            sys.setswitchinterval(interval)
        scores = [(r.sample, r.method, r.good_fraction, r.region, r.pre_mean, r.pre_std,
                   r.coverage) for r in res]
        assert [(r.sample, r.method, r.good_fraction, r.region, r.pre_mean, r.pre_std,
                 r.coverage) for r in spline] == [row for row in scores if row[1] == "spline"]
        expected = []
        for sample in samples:
            spec = preset(sample, width_px=width, height_px=height)
            clean, truth = synth_incremental(spec), tau_map(spec)
            for frac in fractions:
                pre = {(m, r): [] for m in arms for r in evaluate.REGIONS}
                cover = {(m, r): [] for m in arms for r in evaluate.REGIONS}
                for trial in range(trials):
                    noise = NoiseSpec(30.0, frac,
                                      evaluate._trial_seed(0, sample, 30.0, frac, trial))
                    mask = place_bad_frames(spec.n_frames, noise)
                    degraded = add_noise(clean, mask, noise)
                    for method, arm in arms.items():
                        tc = fit_mod.fit_stack(fit_mod.cumulate(arm(degraded, mask)))
                        for row in compute_pre(tc, truth):
                            pre[method, row.region].append(abs(row.pre_percent))
                            cover[method, row.region].append(row.coverage)
                expected += [(sample, method, frac, region, np.mean(pre[method, region]),
                              np.std(pre[method, region]), np.mean(cover[method, region]))
                             for method, region in pre]
        assert scores == expected


@pytest.mark.parametrize("jobs, cpus, pools", [(64, 4, [3]), (64, 2, [2]), (2, 8, [2]),
                                               (8, 1, [])])
def test_grid_caps_workers(monkeypatch, jobs, cpus, pools):
    # a recording stand-in for the pool: no worker process starts; 3 cells
    # cap the workers at 3, and one usable worker runs the cells in-process
    # with the process's fit threads; pool workers fit on one thread each
    seen = []

    class FakePool:
        def __init__(self, max_workers, initializer):
            seen.append(max_workers)
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(evaluate, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(evaluate.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(evaluate.fit_mod, "_fit_threads", 2)
    res = tiny_grid(snrs=(30.0, 40.0, 60.0), trials=1, jobs=jobs)
    assert seen == pools
    assert evaluate.fit_mod._fit_threads == (1 if pools else 2)
    assert len(res) == 3 * 3 * 3


def test_format_grid_table():
    res = run_grid(samples=("A",), snrs=(30.0, 60.0), fractions=(0.5, 0.75),
                   trials=1, seed=1, width=8, height=8)
    table = format_grid_table(res, "A")
    lines = table.strip().splitlines()
    assert lines[0].startswith("Sample A")
    assert lines[1].split() == ["PGF", "(%)", "50", "75"]
    assert lines[2].split() == ["SNR", "(dB)", "30", "60", "30", "60"]
    assert [ln.split()[0] for ln in lines[3:]] == ["noisy", "kalman", "spline"]
    assert all(len(ln.split()) == 5 for ln in lines[3:])
    with pytest.raises(ValueError, match="no grid results"):
        format_grid_table(res, "B")


def test_region_masks_partition():
    spec = preset("A", width_px=16, height_px=16)
    inc = inclusion_mask(spec)
    # the inclusion and its complement, the background, split the two tau values
    assert np.array_equal(tau_map(spec) == 4.66, inc)
    assert np.array_equal(tau_map(spec) == 11.42, ~inc)


@pytest.mark.parametrize("sample", ["A", "B", "C"])
def test_truth_regions_are_the_phantom_geometry(sample):
    # an image converged exactly on the geometric inclusion covers the whole
    # inclusion compute_pre reads from the truth map and none of its
    # background: the two agree at every size but 1x1
    for width, height in ((2, 2), (3, 3), (8, 8), (17, 17), (32, 32), (128, 128),
                          (20, 12), (9, 31)):
        spec = preset(sample, width_px=width, height_px=height)
        inc, truth = inclusion_mask(spec), tau_map(spec)
        rows = pre_rows(TCImage(truth, inc), truth)
        assert ("inclusion" in rows) == inc.any()
        if inc.any():
            assert rows["inclusion"].coverage == 1.0
        assert rows["background"].coverage == 0.0


# ---------------------------------------------------------------------------
# bad-frame detector

def test_detector_clean_stack_all_good():
    stack = synth_incremental(preset("A", width_px=16, height_px=16))
    mask = detect_bad_frames(stack)
    assert mask.good.all()


def test_detected_mask_degrades_to_a_finite_stack():
    # a detected mask holds labels only, so add_noise takes it like the
    # protocol's own
    stack = synth_incremental(preset("A", width_px=8, height_px=8, n_frames=40))
    ns = NoiseSpec(base_snr_db=30.0, good_frame_fraction=0.75, rng_seed=2)
    degraded = add_noise(stack, place_bad_frames(stack.n_frames, ns), ns)
    detected = detect_bad_frames(degraded)
    assert not detected.good.all()
    assert np.isfinite(add_noise(stack, detected, ns).frames).all()


def test_detector_identical_frames_all_good():
    stack = StrainStack(np.full((40, 8, 8), 1e-3), 0.5, "incremental")
    assert detect_bad_frames(stack).good.all()


def test_detector_flags_pure_noise_frame():
    spec = preset("A", width_px=32, height_px=32, n_frames=80)
    clean = synth_incremental(spec)
    rng = np.random.default_rng(0)
    hits = 0
    trials = 100
    for _ in range(trials):
        frames = clean.frames.copy()
        # replace one interior frame with pure 0 dB noise; the first and last
        # frames have degenerate detection windows and are documented blind
        k = int(rng.integers(1, spec.n_frames - 1))
        sigma = np.sqrt(np.mean(frames[k] ** 2))
        frames[k] = rng.standard_normal(frames[k].shape) * sigma
        mask = detect_bad_frames(StrainStack(frames, 0.5, "incremental"))
        flagged = np.flatnonzero(~mask.good)
        if flagged.size and k in flagged:
            hits += 1
    assert hits / trials > 0.99


def test_detector_flags_bad_frames_in_noisy_stack():
    spec = preset("A", width_px=32, height_px=32)
    clean = synth_incremental(spec)
    ns = NoiseSpec(base_snr_db=60.0, good_frame_fraction=0.9, rng_seed=2)
    mask = place_bad_frames(spec.n_frames, ns)
    degraded = add_noise(clean, mask, ns)
    detected = detect_bad_frames(degraded)
    interior_bad = mask.bad_indices[(mask.bad_indices > 0)
                                    & (mask.bad_indices < spec.n_frames - 1)]
    found = set(detected.bad_indices)
    recall = np.mean([b in found for b in interior_bad])
    assert recall > 0.95
    # good frames adjacent to runs of bad frames may be flagged too (the
    # contaminated moving median pulls them over threshold); anything flagged
    # farther than the window half-width from a true bad frame is a real
    # false alarm
    half = 3
    stray = [f for f in detected.bad_indices
             if np.abs(mask.bad_indices - f).min() > half]
    assert not stray


def test_detector_validation():
    stack = StrainStack(np.zeros((5, 4, 4)), 0.5, "incremental")
    with pytest.raises(InputError, match="at least 8"):
        detect_bad_frames(stack)
    cumulative = synth_cumulative(preset("A", width_px=8, height_px=8))
    with pytest.raises(InputError, match="expected an incremental stack"):
        detect_bad_frames(cumulative)


# the detector's temporal medians come from min/max selection networks, and
# its spatial medians from a one-point partition

def median_loop(frames):
    """The detector's labels with np.median for the temporal reference and
    the spatial medians, as the comparator networks and _median replaced
    it."""
    n = frames.shape[0]
    frames = frames.reshape(n, -1)
    half_max = evaluate._DETECT_WINDOW // 2
    rel_dev = np.empty(n)
    for k in range(n):
        half = min(half_max, k, n - 1 - k)
        ref = np.median(frames[k - half:k + half + 1], axis=0)
        dev = np.median(np.abs(frames[k] - ref))
        mag = np.median(np.abs(ref))
        rel_dev[k] = dev / max(mag, np.finfo(np.float64).tiny)
    scale = max(float(np.median(rel_dev)), evaluate._DETECT_MIN_SCALE)
    return rel_dev <= evaluate._DETECT_THRESHOLD * scale


def test_every_detector_window_has_a_median_network():
    windows = range(evaluate._DETECT_WINDOW, 0, -2)
    assert evaluate._DETECT_WINDOW % 2 == 1
    assert set(windows) <= set(evaluate._MEDIAN_NETWORKS)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_median_network_on_every_binary_input(m):
    # 0-1 principle: a comparator network that selects the median of every
    # 0/1 input selects it for every input
    bits = (np.arange(2 ** m)[None, :] >> np.arange(m)[:, None]) & 1
    expected = (bits.sum(axis=0) > m // 2).astype(float)
    assert np.array_equal(evaluate._median_rows(bits.astype(float)), expected)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_median_network_on_every_permutation(m):
    perms = np.array(list(itertools.permutations(range(m))), dtype=float).T
    assert np.array_equal(evaluate._median_rows(perms), np.full(perms.shape[1], m // 2))


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_median_network_equals_np_median(m):
    rng = np.random.default_rng(m)
    specials = np.array([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0])
    rows = np.concatenate([
        rng.choice(specials, size=(m, 4000)),  # ties, signed zeros, extremes, subnormals
        rng.integers(-2, 3, size=(m, 4000)) * 0.5,  # many ties
        rng.standard_normal((m, 4000)),
    ], axis=1)
    # array_equal treats -0.0 == 0.0: where they tie, np.median and the
    # network may return zeros of different sign; the detector only uses
    # the median through abs(), which removes the sign
    assert np.array_equal(evaluate._median_rows(rows), np.median(rows, axis=0))


def _detector_cases():
    """The minimum stack, constant frames, a pure-noise frame in each
    shrunken edge window, odd (9x7, 1x1) and tiny even (1x2) pixel counts,
    and a degraded 128x128 stack."""
    yield np.random.default_rng(8).standard_normal((8, 16, 16))
    yield np.full((30, 8, 8), 2.5e-4)
    odd = synth_incremental(preset("B", width_px=9, height_px=7, n_frames=40)).frames
    sigma = np.sqrt(np.mean(odd[17] ** 2))
    odd[17] = np.random.default_rng(6).standard_normal(odd[17].shape) * sigma
    yield odd
    yield np.random.default_rng(9).standard_normal((12, 1, 1))
    yield np.random.default_rng(10).standard_normal((12, 1, 2))
    clean = synth_incremental(preset("A", width_px=16, height_px=16, n_frames=40)).frames
    rng = np.random.default_rng(5)
    for k in (0, 1, 2, 3, 36, 37, 38, 39):
        frames = clean.copy()
        frames[k] = rng.standard_normal(frames[k].shape) * np.sqrt(np.mean(frames[k] ** 2))
        yield frames
    spec = preset("C")
    noise = NoiseSpec(base_snr_db=30.0, good_frame_fraction=0.2, rng_seed=1)
    yield add_noise(synth_incremental(spec), place_bad_frames(spec.n_frames, noise),
                    noise).frames


def test_detector_equals_np_median_loop():
    for frames in _detector_cases():
        detected = detect_bad_frames(StrainStack(frames, 0.5, "incremental"))
        assert np.array_equal(detected.good, median_loop(frames))


def test_detector_leaves_frames_unchanged():
    # the spatial medians partition their input in place, so they must only
    # ever see fresh temporaries
    for frames in _detector_cases():
        stack = StrainStack(frames, 0.5, "incremental")
        before = stack.frames.tobytes()
        detect_bad_frames(stack)
        assert stack.frames.tobytes() == before


_MEDIAN_SPECIALS = np.array([0.0, 5e-324, 2.2e-308, 1.0, 1e300,
                             np.finfo(np.float64).max, np.inf])


def _median_inputs():
    """Non-negative arrays of sizes 1, 2, 3, 16383 and 16384 with ties,
    zeros, subnormals, huge values and inf, and 1000 random ones of 300
    values, about 1% of which a one-point partition leaves with the lower
    middle value off its sorted place."""
    for size in (1, 2, 3):
        for values in itertools.product(_MEDIAN_SPECIALS, repeat=size):
            yield np.array(values)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        yield rng.standard_exponential(300)
    for size in (16383, 16384):
        yield rng.choice(_MEDIAN_SPECIALS, size=size)
        yield rng.integers(0, 4, size=size) * 0.25
        yield rng.standard_exponential(size)
        yield np.zeros(size)


def test_median_equals_np_median_bit_for_bit():
    for a in _median_inputs():
        # the mean of the two largest finite values overflows to inf in both
        with np.errstate(over="ignore"):
            expected = np.median(a)
            got = evaluate._median(a.copy())
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), a
