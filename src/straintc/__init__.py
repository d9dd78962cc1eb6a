"""Strain time-constant estimation from noisy temporal strain stacks.

Pipeline: synthesize a two-region creep phantom, corrupt it with
SNR-controlled noise and low-SNR "bad" frames, reconstruct the bad frames
per pixel with natural cubic splines (or smooth everything with a fixed-lag
Kalman baseline), fit the three-parameter exponential creep model with
Levenberg-Marquardt, and score the resulting time-constant images with
percent relative error over a Monte-Carlo comparison grid.

This module declares the public surface: the stage entry points and the
specs they take.  Result types import from their modules.
"""

from .degrade import FrameQualityMask, NoiseSpec, add_noise, place_bad_frames
from .evaluate import compute_pre, detect_bad_frames, run_grid
from .fit import LMConfig, cumulate, exp_model, fit_exponential, fit_stack
from .kalman import KalmanSpec, kalman_denoise
from .phantom import (StrainStack, frame_times, preset, synth_cumulative,
                      synth_incremental, tau_map)
from .spline import reconstruct_stack

__version__ = "0.1.0"

__all__ = [
    # data types and specs
    "StrainStack", "FrameQualityMask", "NoiseSpec", "KalmanSpec", "LMConfig",
    # phantom
    "preset", "synth_incremental", "synth_cumulative", "tau_map", "frame_times",
    # degrade
    "place_bad_frames", "add_noise",
    # denoise
    "kalman_denoise", "reconstruct_stack",
    # fit
    "cumulate", "fit_stack", "fit_exponential", "exp_model",
    # evaluate
    "compute_pre", "run_grid", "detect_bad_frames",
]
