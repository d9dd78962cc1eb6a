import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straintc import fit as fit_mod
from straintc import spline as spline_mod
from straintc.degrade import MIN_KNOTS, FrameQualityMask, NoiseSpec, place_bad_frames
from straintc.phantom import StrainStack, frame_times, preset, synth_incremental
from straintc.spline import reconstruct_stack


def dense_oracle_coeffs(knots, values):
    """Independent reference: solve the full natural-spline condition system
    (interpolation, C1/C2 continuity, zero end second derivatives) for all
    4*(n-1) local coefficients at once with a dense solve."""
    n = len(knots)
    m = n - 1
    A = np.zeros((4 * m, 4 * m))
    rhs = np.zeros(4 * m)
    h = np.diff(knots)
    row = 0
    for i in range(m):  # interpolation at both interval ends
        A[row, 4 * i + 3] = 1.0
        rhs[row] = values[i]
        row += 1
        A[row, 4 * i:4 * i + 4] = [h[i] ** 3, h[i] ** 2, h[i], 1.0]
        rhs[row] = values[i + 1]
        row += 1
    for i in range(m - 1):  # first and second derivative continuity
        A[row, 4 * i:4 * i + 3] = [3 * h[i] ** 2, 2 * h[i], 1.0]
        A[row, 4 * (i + 1) + 2] = -1.0
        row += 1
        A[row, 4 * i:4 * i + 2] = [6 * h[i], 2.0]
        A[row, 4 * (i + 1) + 1] = -2.0
        row += 1
    A[row, 1] = 2.0  # natural start
    row += 1
    A[row, 4 * (m - 1):4 * (m - 1) + 2] = [6 * h[-1], 2.0]  # natural end
    return np.linalg.solve(A, rhs).reshape(m, 4)


def oracle_values(knots, values, t):
    """The dense oracle's spline through (knots, values) at times t, past the
    end knots by the boundary interval's cubic; and max(1, largest
    |coefficient|), the scale its deviations are measured in."""
    coeffs = dense_oracle_coeffs(knots, values)
    idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    dt = t - knots[idx]
    a, b, c, d = coeffs[idx].T
    return ((a * dt + b) * dt + c) * dt + d, max(1.0, np.abs(coeffs).max())


def reconstruct_curve(knot_frames, values, n_frames, sample_time_s=0.1):
    """Frame times and reconstruct_stack's output curve for an
    (n_frames, 1, 1) stack whose good frames are knot_frames, holding the
    values.  The bad frames hold 1e3 on input, so that none of them can pass
    through unnoticed."""
    frames = np.full((n_frames, 1, 1), 1e3)
    frames[knot_frames, 0, 0] = values
    good = np.zeros(n_frames, bool)
    good[knot_frames] = True
    mask = FrameQualityMask(good)
    out = reconstruct_stack(StrainStack(frames, sample_time_s, "incremental"), mask)
    return frame_times(n_frames, sample_time_s), out.frames[:, 0, 0]


def random_instance(rng, n):
    """Knot frames, frame count and standard normal values of n knots 2 to 11
    frames (0.2 to 1.1 s) apart, so that every interval holds a bad frame;
    one bad frame precedes the first knot and one follows the last."""
    knot_frames = np.cumsum(rng.integers(2, 12, size=n)) - 1
    return knot_frames, int(knot_frames[-1]) + 2, rng.standard_normal(n)


def oracle_deviation(rng, n):
    """Worst scaled deviation of reconstruct_stack from the dense oracle on
    the bad frames of one random instance, and whether its good frames came
    through bit-exactly."""
    knot_frames, n_frames, values = random_instance(rng, n)
    t, out = reconstruct_curve(knot_frames, values, n_frames)
    expect, scale = oracle_values(t[knot_frames], values, t)
    bad = np.setdiff1d(np.arange(n_frames), knot_frames)
    return (np.abs(out[bad] - expect[bad]).max() / scale,
            np.array_equal(out[knot_frames], values))


def cubic(t, curve, lo, hi):
    """The cubic through the reconstructed frames lo..hi of curve, recovered
    by a least-squares fit."""
    return np.polynomial.Polynomial.fit(t[lo:hi + 1], curve[lo:hi + 1], 3)


def test_matches_dense_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        deviation, knots_exact = oracle_deviation(rng, int(rng.integers(4, 51)))
        assert deviation < 1e-10 and knots_exact


def test_linear_data_reproduced_exactly():
    # four knots; the frames between them and past both ends continue the line
    knot_frames = np.array([5, 15, 30, 40])
    t = frame_times(50, 0.1)
    _, out = reconstruct_curve(knot_frames, 2 * t[knot_frames] + 1, 50)
    assert out[22] == pytest.approx(2 * t[22] + 1, abs=1e-13)
    assert np.allclose(out, 2 * t + 1, atol=1e-12)


def test_knot_interpolation_exact():
    rng = np.random.default_rng(5)
    knot_frames, n_frames, values = random_instance(rng, 17)
    _, out = reconstruct_curve(knot_frames, values, n_frames)
    assert np.array_equal(out[knot_frames], values)  # bit-exact at every knot


def test_continuity_at_interior_knots():
    # knots 5 to 11 frames apart, so that each interval's cubic is recovered
    # from its two knots and at least four reconstructed frames; value, slope
    # and curvature agree on both sides of every interior knot
    rng = np.random.default_rng(7)
    knot_frames = np.cumsum(rng.integers(5, 12, size=30))
    t, out = reconstruct_curve(knot_frames, rng.standard_normal(30), knot_frames[-1] + 1)
    for lo, m, hi in zip(knot_frames, knot_frames[1:], knot_frames[2:]):
        left, right = cubic(t, out, lo, m), cubic(t, out, m, hi)
        for k in range(3):
            assert left.deriv(k)(t[m]) == pytest.approx(right.deriv(k)(t[m]), rel=1e-9, abs=1e-9)


def test_natural_boundary_conditions():
    # the first cubic also runs through the frames before the first knot and
    # the last one through those after the last knot; the curvature of both
    # vanishes at the end knots
    rng = np.random.default_rng(8)
    knot_frames = np.cumsum(rng.integers(5, 12, size=12))
    n_frames = knot_frames[-1] + 6
    t, out = reconstruct_curve(knot_frames, rng.standard_normal(12), n_frames)
    first, last = cubic(t, out, 0, knot_frames[1]), cubic(t, out, knot_frames[-2], n_frames - 1)
    curvatures = [cubic(t, out, lo, hi).deriv(2)(t[lo])
                  for lo, hi in zip(knot_frames, knot_frames[1:])]
    scale = max(1.0, np.abs(curvatures).max())
    assert abs(first.deriv(2)(t[knot_frames[0]])) < 1e-9 * scale
    assert abs(last.deriv(2)(t[knot_frames[-1]])) < 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 24), st.integers(0, 2 ** 31 - 1))
def test_interpolation_and_oracle_property(n, seed):
    deviation, knots_exact = oracle_deviation(np.random.default_rng(seed), n)
    assert knots_exact
    assert deviation < 1e-10


def test_exponential_error_within_standard_bound():
    # 20 evenly spaced knots of exp(-(t - t_0)/4.66) over 150 s, 100 frames
    # apart; the oracle bound is the classical (5/384) h^4 max|f''''|
    # interior term plus the (h^2/8) |f''(end)| boundary term a natural
    # spline incurs when the true second derivative does not vanish at the
    # ends, and it holds at every reconstructed frame
    tau = 4.66
    knot_frames = np.arange(0, 1901, 100)
    t = frame_times(1901, 150.0 / 1900)
    truth = np.exp(-(t - t[0]) / tau)
    _, out = reconstruct_curve(knot_frames, truth[knot_frames], t.size, 150.0 / 1900)
    h = t[100] - t[0]
    bad = np.setdiff1d(np.arange(t.size), knot_frames)
    err = np.abs(out - truth)[bad]
    f2_end = 1.0 / tau ** 2  # max |f''| at the left end
    f4_max = 1.0 / tau ** 4
    interior_bound = (5.0 / 384.0) * h ** 4 * f4_max
    full_bound = interior_bound + (h ** 2 / 8.0) * f2_end
    assert err.max() <= full_bound
    interior = (t[bad] >= t[knot_frames[2]]) & (t[bad] <= t[knot_frames[-3]])
    assert err[interior].max() <= interior_bound


# ---------------------------------------------------------------------------
# stack reconstruction

def zeroed_clean_stack(sample, mask, width=4):
    spec = preset(sample, width_px=width, height_px=width)
    clean = synth_incremental(spec)
    corrupted = clean.frames.copy()
    corrupted[mask.bad_indices] = 0.0
    return clean, StrainStack(corrupted, spec.sample_time_s, "incremental")


def mask_for(seed, fraction=0.75, n=300):
    ns = NoiseSpec(base_snr_db=30.0, good_frame_fraction=fraction, rng_seed=seed)
    return place_bad_frames(n, ns)


def test_all_good_mask_is_identity():
    spec = preset("A", width_px=4, height_px=4)
    clean = synth_incremental(spec)
    mask = FrameQualityMask(np.ones(300, bool))
    out = reconstruct_stack(clean, mask)
    assert np.array_equal(out.frames, clean.frames)


def test_good_frames_pass_through_bit_exact():
    mask = mask_for(seed=1)
    clean, corrupted = zeroed_clean_stack("A", mask)
    out = reconstruct_stack(corrupted, mask)
    assert np.array_equal(out.frames[mask.good], clean.frames[mask.good])


def test_single_interior_bad_frame_linear_data():
    t = frame_times(10, 0.5)
    frames = (0.002 * t - 0.001)[:, None, None] * np.ones((1, 3, 3))
    good = np.ones(10, bool)
    good[4] = False
    mask = FrameQualityMask(good)
    corrupted = frames.copy()
    corrupted[4] = 123.0
    out = reconstruct_stack(StrainStack(corrupted, 0.5, "incremental"), mask)
    assert np.allclose(out.frames[4], frames[4], rtol=1e-12)


def test_reconstruction_accuracy_interior_mask():
    # representative 25%-bad draw whose first and last frames are good and
    # whose early transient is unbroken (seed 1): every preset recovers all
    # masked values to better than 1%
    mask = mask_for(seed=1)
    for sample in ("A", "B", "C"):
        clean, corrupted = zeroed_clean_stack(sample, mask)
        out = reconstruct_stack(corrupted, mask)
        bad = mask.bad_indices
        rel = np.abs(out.frames[bad] - clean.frames[bad]) / np.abs(clean.frames[bad])
        assert rel.max() < 0.01
        assert np.median(rel) < 1e-3


def test_reconstruction_boundary_and_early_run_characterization():
    # seed 0 draws bad frames at both sequence ends and a 4-frame run inside
    # the early transient; interpolated positions stay accurate (about 1% for
    # the tau ~ 2.3 s presets, an order better for sample A) while the
    # clamped-cubic extrapolation at the ends is only qualitatively right
    mask = mask_for(seed=0)
    bad = mask.bad_indices
    assert bad[0] == 0 and bad[-1] == 299  # this seed exercises both ends
    t = frame_times(300, 0.5)
    good_t = t[mask.good]
    in_hull = (t[bad] >= good_t[0]) & (t[bad] <= good_t[-1])
    ceilings = {"A": 0.004, "B": 0.02, "C": 0.02}  # frozen from the oracle run
    for sample, ceiling in ceilings.items():
        clean, corrupted = zeroed_clean_stack(sample, mask)
        out = reconstruct_stack(corrupted, mask)
        rel = np.abs(out.frames[bad] - clean.frames[bad]) / np.abs(clean.frames[bad])
        assert rel[in_hull].max() < ceiling
        assert rel[~in_hull].max() < 0.5  # extrapolated ends: bounded, not tight
        assert np.median(rel) < 1e-3


def test_halving_bad_fraction_never_hurts():
    # nested masks: dropping every other bad frame from the same draw must
    # not increase the worst interpolated-frame error
    base = mask_for(seed=9, fraction=0.5)
    t = frame_times(300, 0.5)
    for sample in ("A", "B", "C"):
        prev_err = None
        bad = base.bad_indices
        for _ in range(3):
            good = np.ones(300, bool)
            good[bad] = False
            mask = FrameQualityMask(good)
            clean, corrupted = zeroed_clean_stack(sample, mask)
            out = reconstruct_stack(corrupted, mask)
            good_t = t[mask.good]
            hull = (t[bad] >= good_t[0]) & (t[bad] <= good_t[-1])
            rel = (np.abs(out.frames[bad] - clean.frames[bad])
                   / np.abs(clean.frames[bad]))[hull]
            err = rel.max()
            if prev_err is not None:
                assert err <= prev_err
            prev_err = err
            bad = bad[::2]


def test_idempotent_reconstruction():
    mask = mask_for(seed=4)
    _, corrupted = zeroed_clean_stack("B", mask)
    once = reconstruct_stack(corrupted, mask)
    twice = reconstruct_stack(once, mask)
    assert np.array_equal(once.frames, twice.frames)


def test_vectorized_matches_per_pixel():
    rng = np.random.default_rng(77)
    n = 40
    frames = rng.standard_normal((n, 3, 2))
    good = np.ones(n, bool)
    good[rng.choice(n, size=10, replace=False)] = False
    mask = FrameQualityMask(good)
    stack = StrainStack(frames, 0.5, "incremental")
    out = reconstruct_stack(stack, mask)
    t = frame_times(n, 0.5)
    for r in range(3):
        for c in range(2):
            expect, scale = oracle_values(t[good], frames[good, r, c], t[~good])
            assert np.allclose(out.frames[~good, r, c], expect, rtol=0, atol=1e-12 * scale)


def all_interval_reconstruction(stack, mask):
    """The vectorized formula that forms (a, b, c, d) for every interval and
    evaluates all bad frames at once, kept as the bitwise reference."""
    n = stack.n_frames
    t = frame_times(n, stack.sample_time_s)
    knots = t[mask.good]
    flat = stack.frames.reshape(n, -1)
    vals = flat[mask.good]
    h = np.diff(knots)[:, None]
    M = spline_mod._second_derivatives(h[:, 0])(np.diff(vals, axis=0) / h)
    a = (M[1:] - M[:-1]) / (6.0 * h)
    b = M[:-1] / 2.0
    c = np.diff(vals, axis=0) / h - h * (2.0 * M[:-1] + M[1:]) / 6.0
    d = vals[:-1]
    bad = mask.bad_indices
    idx = np.clip(np.searchsorted(knots, t[bad], side="right") - 1, 0, knots.size - 2)
    dt = (t[bad] - knots[idx])[:, None]
    out = flat.copy()
    out[bad] = ((a[idx] * dt + b[idx]) * dt + c[idx]) * dt + d[idx]
    return out.reshape(stack.frames.shape)


@pytest.mark.parametrize("fraction", [None, 0.05, 0.2, 0.75])
def test_reconstruction_matches_all_interval_formula(fraction, monkeypatch):
    # only the intervals holding a bad frame get coefficients, frames are
    # evaluated one by one, and pixels in the fit's blocks of columns (here a
    # budget of 8 columns, raised to the 64-column alignment, splits 12 x 16
    # pixels into three blocks of 64): the same operations, so the same bits;
    # fraction None keeps MIN_KNOTS good frames, the smallest knot system
    # (one elimination multiplier), and every mask has bad frames before the
    # first knot and after the last
    monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", 8 * 300 * 8)
    assert np.diff(fit_mod._block_edges(12 * 16, 300)).tolist() == [64, 64, 64]
    if fraction is None:
        good = np.zeros(300, bool)
        good[[17, 90, 101, 260]] = True
        assert good.sum() == MIN_KNOTS
    else:
        good = mask_for(seed=9, fraction=fraction).good.copy()
        good[[0, 1, -1]] = False
    mask = FrameQualityMask(good)
    rng = np.random.default_rng(2)
    stack = StrainStack(rng.standard_normal((300, 12, 16)), 0.5, "incremental")
    out = reconstruct_stack(stack, mask)
    assert np.array_equal(out.frames, all_interval_reconstruction(stack, mask))


def test_reconstruction_memory_does_not_grow_with_pixels(monkeypatch):
    # what reconstruct_stack allocates beyond its output is one block's
    # temporaries per thread: on one thread the same for 1024 and 4096
    # pixels (4 and 16 blocks), and on two threads, whose blocks overlap,
    # at most two blocks' temporaries
    n = 60
    monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", 8 * n * 256)
    assert [len(fit_mod._block_edges(side * side, n)) - 1 for side in (32, 64)] == [4, 16]
    mask = mask_for(seed=9, fraction=0.75, n=n)

    def beyond(side, threads):
        monkeypatch.setattr(fit_mod, "_CPUS", threads)
        stack = StrainStack(np.random.default_rng(side).standard_normal((n, side, side)),
                            0.5, "incremental")
        tracemalloc.start()
        try:
            out = reconstruct_stack(stack, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.frames.nbytes

    small, large = beyond(32, 1), beyond(64, 1)
    assert large <= 1.05 * small + 65536, f"{small} B at 1024 pixels, {large} B at 4096"
    two = beyond(64, 2)
    assert two <= 2 * (1.05 * small + 65536), f"{small} B on one thread, {two} B on two"


def test_reconstruction_does_not_depend_on_the_thread_count(monkeypatch):
    # the blocks run on the fit's pool; 2350 pixels in blocks of 64 give
    # each of two threads many blocks, and the bytes are those of one thread
    monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", 8 * 300 * 8)
    mask = mask_for(seed=9, fraction=0.2)
    stack = StrainStack(np.random.default_rng(5).standard_normal((300, 47, 50)), 0.5,
                        "incremental")
    outs = []
    for threads in (1, 2):
        monkeypatch.setattr(fit_mod, "_CPUS", threads)
        outs.append(reconstruct_stack(stack, mask).frames.tobytes())
    assert outs[0] == outs[1]


def test_insufficient_good_frames_propagates():
    good = np.zeros(20, bool)
    good[[3, 8, 15]] = True
    mask = FrameQualityMask(good)
    stack = StrainStack(np.zeros((20, 2, 2)), 0.5, "incremental")
    with pytest.raises(ValueError, match="insufficient good frames"):
        reconstruct_stack(stack, mask)


def test_reconstruct_rejects_cumulative():
    stack = StrainStack(np.zeros((10, 2, 2)), 0.5, "cumulative")
    mask = FrameQualityMask(np.ones(10, bool))
    with pytest.raises(ValueError, match="incremental"):
        reconstruct_stack(stack, mask)
