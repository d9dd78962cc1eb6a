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

import numbers
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


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption protocol: base SNR for good frames, the fraction of frames
    left good, and the seed making it reproducible."""

    base_snr_db: float = 30.0
    good_frame_fraction: float = 0.75
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.good_frame_fraction <= 1.0:
            raise ValueError(f"good_frame_fraction must lie in (0, 1], got {self.good_frame_fraction}")
        if not BAD_FRAME_SNR_DB < self.base_snr_db < np.inf:
            raise ValueError("base_snr_db must exceed BAD_FRAME_SNR_DB (bad frames are strictly "
                             f"worse) and be finite, got {self.base_snr_db}")
        if not isinstance(self.rng_seed, numbers.Integral):
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass
class FrameQualityMask:
    """Per-frame good/bad labels.  A frame's SNR follows from its label and
    the NoiseSpec: the base SNR if good, BAD_FRAME_SNR_DB if bad."""

    good: np.ndarray

    def __post_init__(self):
        self.good = np.asarray(self.good, dtype=bool)
        if self.good.ndim != 1:
            raise ValueError("good must be a 1-D vector")

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
    The mask holds only these labels: add_noise takes each frame's SNR
    from its label and the spec.
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
    return FrameQualityMask(good)


def _frame_rms(frames):
    """RMS of each frame of an iterable of frames, each squared on its own."""
    return np.sqrt([np.mean(f ** 2) for f in frames])


def _noise_blocks(rms, mask: FrameQualityMask, spec: NoiseSpec):
    """The noise of add_noise as a map on successive pixel blocks of an
    incremental stack, given its frames' RMS.

    add(block) adds the noise to a (n_frames, pixels) block of the stack's
    (n_frames, height * width) frames in place and returns it.  Frame n's
    noise comes from its own generator, which every call carries on from
    where the last one stopped: blocks taken in pixel order get the bits of
    one whole-frame draw, and the calls must not overlap.
    """
    snr_db = np.where(mask.good, spec.base_snr_db, BAD_FRAME_SNR_DB)
    sigma = rms * 10.0 ** (-snr_db / 20.0)
    gens = [_rng(spec.rng_seed, _FRAME_STREAM, n) for n in range(mask.n_frames)]

    def add(block):
        noise = np.empty(block.shape[1])
        for frame, gen, s in zip(block, gens, sigma):
            # frame + s * noise, without temporaries
            gen.standard_normal(out=noise)
            noise *= s
            frame += noise
        return block

    return add


def add_noise(stack: StrainStack, mask: FrameQualityMask, spec: NoiseSpec) -> StrainStack:
    """Add i.i.d. zero-mean Gaussian noise to every frame of an incremental
    stack, with per-frame sigma = rms(frame) * 10^(-SNR/20), where SNR is
    spec.base_snr_db on the mask's good frames and BAD_FRAME_SNR_DB on its
    bad ones.

    Each frame's noise is drawn from its own substream of (seed, frame index),
    so frames are independent and any frame is reproducible in isolation.
    """
    if stack.kind != "incremental":
        raise InputError("expected an incremental stack, got a cumulative one")
    if stack.n_frames != mask.n_frames:
        raise InputError(f"mask has {mask.n_frames} frames but the stack has {stack.n_frames}")
    frames = stack.frames
    add = _noise_blocks(_frame_rms(frames), mask, spec)
    out = add(frames.reshape(stack.n_frames, -1).copy())
    return StrainStack(out.reshape(frames.shape), stack.sample_time_s, "incremental")
