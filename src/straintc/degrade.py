"""SNR-controlled corruption of incremental strain stacks.

A fraction of frames is kept "good" at the base SNR; the rest are "bad"
frames degraded to BAD_FRAME_SNR_DB (0 dB), at temporal positions
drawn uniformly without replacement.  SNR here is the per-frame amplitude
ratio convention

    SNR_dB = 20 * log10(rms(clean frame) / sigma_noise)

so 0 dB means the added noise has the same RMS as the clean frame.  Noise is
scaled per frame because incremental strain magnitude decays with time; a
stack-global sigma would leave late frames far below the nominal SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phantom import InputError, StrainStack


# SNR of every bad frame: noise as strong as the frame's signal
BAD_FRAME_SNR_DB = 0.0
# fewest good frames a degraded stack keeps: the knots a natural cubic spline
# reconstruction needs
MIN_KNOTS = 4
# salts separating the independent RNG substreams derived from one user seed
_MASK_STREAM = 0
_FRAME_STREAM = 1
# bytes of frames add_noise squares at once: 40 frames of 128x128
_BLOCK_BYTES = 5 << 20


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption protocol: base SNR for good frames, the fraction of frames
    left good, and the seed making it reproducible."""

    base_snr_db: float
    good_frame_fraction: float
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.good_frame_fraction <= 1.0:
            raise ValueError(f"good_frame_fraction must lie in (0, 1], got {self.good_frame_fraction}")
        if not self.base_snr_db > BAD_FRAME_SNR_DB:
            raise ValueError("base_snr_db must exceed BAD_FRAME_SNR_DB (bad frames are strictly worse)")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass
class FrameQualityMask:
    """Per-frame good/bad labels and the SNR each frame was degraded at.

    applied_snr_db is NaN for masks produced by detection rather than by the
    corruption protocol.
    """

    good: np.ndarray
    applied_snr_db: np.ndarray

    def __post_init__(self):
        self.good = np.asarray(self.good, dtype=bool)
        self.applied_snr_db = np.asarray(self.applied_snr_db, dtype=np.float64)
        if self.good.shape != self.applied_snr_db.shape or self.good.ndim != 1:
            raise ValueError("good and applied_snr_db must be matching 1-D vectors")

    @property
    def n_frames(self):
        return self.good.size

    @property
    def n_good(self):
        return int(self.good.sum())

    @property
    def good_indices(self):
        return np.flatnonzero(self.good)

    @property
    def bad_indices(self):
        return np.flatnonzero(~self.good)


def place_bad_frames(n_frames: int, spec: NoiseSpec) -> FrameQualityMask:
    """Draw the bad-frame positions for a stack of n_frames frames.

    Exactly n_frames - round(fraction * n_frames) distinct frames are labeled
    bad, drawn uniformly without replacement; deterministic given the seed.
    A stack of fewer than MIN_KNOTS frames is an InputError; a fraction
    that leaves fewer than MIN_KNOTS good frames raises ValueError, since
    the spline reconstruction needs that many knots.
    """
    if n_frames < MIN_KNOTS:
        raise InputError(f"degrading needs at least {MIN_KNOTS} frames, got {n_frames}")
    n_good = int(round(spec.good_frame_fraction * n_frames))
    if n_good < MIN_KNOTS:
        raise ValueError(
            f"insufficient good frames: fraction {spec.good_frame_fraction} of "
            f"{n_frames} frames leaves {n_good} good frames, need >= {MIN_KNOTS}")
    n_bad = n_frames - n_good
    good = np.ones(n_frames, dtype=bool)
    if n_bad:
        bad = _rng(spec.rng_seed, _MASK_STREAM).choice(n_frames, size=n_bad, replace=False)
        good[bad] = False
    snr = np.where(good, spec.base_snr_db, BAD_FRAME_SNR_DB)
    return FrameQualityMask(good, snr)


def add_noise(stack: StrainStack, mask: FrameQualityMask, spec: NoiseSpec) -> StrainStack:
    """Add i.i.d. zero-mean Gaussian noise to every frame of an incremental
    stack, with per-frame sigma = rms(frame) * 10^(-SNR/20) where SNR comes
    from the mask.

    Each frame's noise is drawn from its own substream of (seed, frame index),
    so frames are independent and any frame is reproducible in isolation.
    """
    if stack.kind != "incremental":
        raise InputError("expected an incremental stack, got a cumulative one")
    if stack.n_frames != mask.n_frames:
        raise InputError(f"mask has {mask.n_frames} frames but the stack has {stack.n_frames}")
    frames = stack.frames
    # per-frame RMS from the squares of a block of frames at a time, so no
    # stack-sized temporary exists; the sums are those of the whole stack
    rms = np.empty(stack.n_frames)
    step = max(1, _BLOCK_BYTES // max(1, frames[:1].nbytes))
    for lo in range(0, stack.n_frames, step):
        rms[lo:lo + step] = np.sqrt(np.mean(frames[lo:lo + step] ** 2, axis=(1, 2)))
    sigma = rms * 10.0 ** (-mask.applied_snr_db / 20.0)
    out = np.empty(frames.shape)
    for n in range(stack.n_frames):
        # the arithmetic of frames[n] + sigma[n] * noise, without temporaries
        _rng(spec.rng_seed, _FRAME_STREAM, n).standard_normal(out=out[n])
        out[n] *= sigma[n]
        out[n] += frames[n]
    return StrainStack(out, stack.sample_time_s, "incremental")
