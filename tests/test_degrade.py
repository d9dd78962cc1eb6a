import numpy as np
import pytest

from straintc import degrade, phantom
from straintc.degrade import FrameQualityMask, NoiseSpec, add_noise, place_bad_frames
from straintc.phantom import StrainStack, preset, synth_incremental


def spec(frac=0.75, snr=30.0, seed=0):
    return NoiseSpec(base_snr_db=snr, good_frame_fraction=frac, rng_seed=seed)


def test_counts_75_percent():
    mask = place_bad_frames(300, spec(0.75))
    assert mask.n_good == 225
    assert mask.bad_indices.size == 75
    assert np.unique(mask.bad_indices).size == 75


def test_all_good_at_fraction_one():
    mask = place_bad_frames(300, spec(1.0))
    assert mask.n_good == 300
    assert mask.bad_indices.size == 0


def test_mask_deterministic():
    a = place_bad_frames(300, spec(0.5, seed=11))
    b = place_bad_frames(300, spec(0.5, seed=11))
    assert np.array_equal(a.good, b.good)
    c = place_bad_frames(300, spec(0.5, seed=12))
    assert not np.array_equal(a.good, c.good)


def test_mask_snr_labels():
    # add_noise degrades the good frames at the base SNR and the bad ones at
    # 0 dB: each frame's noise over its own standard normal draw is sigma
    stack = StrainStack(np.full((20, 4, 4), 1e-3), 0.5, "incremental")
    ns = spec(0.5, snr=40.0)
    mask = place_bad_frames(20, ns)
    noise = add_noise(stack, mask, ns).frames - stack.frames
    draws = np.stack([degrade._rng(ns.rng_seed, degrade._FRAME_STREAM, n).standard_normal((4, 4))
                      for n in range(20)])
    snr = 20 * np.log10(1e-3 / np.median(noise / draws, axis=(1, 2)))
    assert np.allclose(snr[mask.good], 40.0)
    assert np.allclose(snr[~mask.good], 0.0)


def test_insufficient_good_frames():
    with pytest.raises(ValueError, match="insufficient good frames"):
        place_bad_frames(300, spec(0.01))
    with pytest.raises(ValueError, match="insufficient good frames"):
        place_bad_frames(4, spec(0.5))


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(base_snr_db=0.0, good_frame_fraction=0.5)  # not above bad SNR
    with pytest.raises(ValueError):
        NoiseSpec(base_snr_db=30.0, good_frame_fraction=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(base_snr_db=30.0, good_frame_fraction=1.5)
    with pytest.raises(ValueError, match="finite"):
        NoiseSpec(base_snr_db=np.inf)
    # _rng would draw seed 1's mask and noise for a seed of 1.5
    with pytest.raises(ValueError, match="rng_seed must be an integer, got 1.5"):
        NoiseSpec(rng_seed=1.5)
    assert NoiseSpec(rng_seed=np.int64(1)) == NoiseSpec(rng_seed=1)
    assert NoiseSpec() == NoiseSpec(30.0, 0.75, 0)


def constant_stack(n=40, h=100, w=100, value=1e-3):
    return StrainStack(np.full((n, h, w), value), 0.5, "incremental")


def test_zero_db_noise_sigma_equals_rms():
    stack = constant_stack()
    ns = spec(0.5, snr=60.0, seed=3)
    mask = place_bad_frames(stack.n_frames, ns)
    noisy = add_noise(stack, mask, ns)
    noise = noisy.frames - stack.frames
    bad = mask.bad_indices[0]
    # 0 dB: noise std equals frame rms (here the constant value)
    assert np.std(noise[bad]) == pytest.approx(1e-3, rel=0.05)
    good = mask.good_indices[0]
    # 60 dB: noise std is 1e-3 of frame rms
    assert np.std(noise[good]) == pytest.approx(1e-6, rel=0.05)


def test_empirical_snr_within_half_db():
    # 10^4-sample frames: measured SNR lands within +-0.5 dB of target
    stack = constant_stack(n=30)
    for target in (30.0, 40.0, 60.0):
        ns = NoiseSpec(base_snr_db=target, good_frame_fraction=1.0, rng_seed=7)
        mask = place_bad_frames(stack.n_frames, ns)
        noisy = add_noise(stack, mask, ns)
        noise = noisy.frames - stack.frames
        for n in range(0, 30, 7):
            rms_clean = np.sqrt(np.mean(stack.frames[n] ** 2))
            measured = 20 * np.log10(rms_clean / np.std(noise[n]))
            assert abs(measured - target) < 0.5


def test_noise_zero_mean():
    stack = constant_stack(n=10, h=128, w=128)
    ns = spec(0.5, snr=20.0, seed=5)
    mask = place_bad_frames(stack.n_frames, ns)
    noise = add_noise(stack, mask, ns).frames - stack.frames
    sigma = 1e-3 * 10 ** (-np.where(mask.good, 20.0, 0.0) / 20)
    for n in range(10):
        assert abs(noise[n].mean()) < 4 * sigma[n] / np.sqrt(128 * 128)


def test_frames_get_independent_noise():
    stack = constant_stack(n=6, h=128, w=128)
    ns = spec(1.0, snr=30.0, seed=9)
    mask = place_bad_frames(stack.n_frames, ns)
    noise = add_noise(stack, mask, ns).frames - stack.frames
    flat = noise.reshape(6, -1)
    for i in range(6):
        for j in range(i + 1, 6):
            r = np.corrcoef(flat[i], flat[j])[0, 1]
            assert abs(r) < 0.05


def test_noise_reproducible_and_clean_recoverable():
    stack = synth_incremental(preset("A", width_px=16, height_px=16, n_frames=50))
    ns = spec(0.6, snr=30.0, seed=21)
    mask = place_bad_frames(stack.n_frames, ns)
    a = add_noise(stack, mask, ns)
    b = add_noise(stack, mask, ns)
    assert np.array_equal(a.frames, b.frames)
    # the noise field regenerates bit-exactly from the seed, so subtracting
    # it recovers the clean stack to rounding
    assert np.array_equal(a.frames - stack.frames, b.frames - stack.frames)
    recovered = a.frames - (b.frames - stack.frames)
    assert np.allclose(recovered, stack.frames, rtol=0, atol=1e-18)


@pytest.mark.parametrize("width", [1, 7, 64])
def test_add_noise_equals_whole_stack_expression(width):
    # the per-frame RMS comes from one frame at a time, with the bits of the
    # whole-stack expression, for frames of 10 to 640 pixels
    stack = synth_incremental(preset("B", width_px=width, height_px=10, n_frames=50))
    ns = spec(0.5, snr=40.0, seed=5)
    mask = place_bad_frames(stack.n_frames, ns)
    frames = stack.frames
    snr_db = np.where(mask.good, ns.base_snr_db, degrade.BAD_FRAME_SNR_DB)
    sigma = np.sqrt(np.mean(frames ** 2, axis=(1, 2))) * 10.0 ** (-snr_db / 20.0)
    noise = np.stack([degrade._rng(5, degrade._FRAME_STREAM, n).standard_normal(frames[n].shape)
                      for n in range(stack.n_frames)])
    expected = frames + sigma[:, None, None] * noise
    assert np.array_equal(add_noise(stack, mask, ns).frames, expected)


@pytest.mark.parametrize("cuts", [[], [1], [5, 64, 300], [100, 101, 639]])
def test_noise_added_block_by_block_equals_add_noise(cuts):
    # each frame's generator carries on through the blocks taken in pixel
    # order, so blocks of any size get add_noise's bits, with the RMS of
    # frames made one at a time
    spec_ = preset("C", width_px=64, height_px=10, n_frames=50)
    stack = synth_incremental(spec_)
    ns = spec(0.5, snr=30.0, seed=8)
    mask = place_bad_frames(stack.n_frames, ns)
    clean = phantom._incremental_blocks(spec_)
    rms = degrade._frame_rms(clean(slice(None), slice(k, k + 1)) for k in range(50))
    add = degrade._noise_blocks(rms, mask, ns)
    edges = [0, *cuts, 640]
    blocks = [add(clean(slice(lo, hi))) for lo, hi in zip(edges[:-1], edges[1:])]
    expected = add_noise(stack, mask, ns).frames.reshape(50, 640)
    assert np.array_equal(np.concatenate(blocks, axis=1), expected)


def test_add_noise_shape_mismatch():
    stack = constant_stack(n=10)
    ns = spec(0.5)
    mask = place_bad_frames(12, ns)
    with pytest.raises(ValueError, match="frames"):
        add_noise(stack, mask, ns)


def test_add_noise_rejects_cumulative():
    ns = spec(0.5)
    stack = StrainStack(np.ones((10, 4, 4)), 0.5, "cumulative")
    with pytest.raises(ValueError, match="incremental"):
        add_noise(stack, place_bad_frames(10, ns), ns)


def test_mask_vector_validation():
    with pytest.raises(ValueError):
        FrameQualityMask(np.ones((5, 2), bool))
