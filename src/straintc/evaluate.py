"""Percent-relative-error evaluation and the Monte-Carlo comparison grid.

PRE for a region compares the mean of the converged per-pixel time-constant
estimates against the region's true value:

    PRE = (mean_estimated_tau - true_tau) / true_tau * 100

The regions come from the ground-truth tau map alone: a uniform map is all
background; otherwise the inclusion is the value covering fewer pixels
(ties go to the smaller tau) and the background the other.

It is signed per region; the "whole" summary combines the per-region
absolute PREs weighted by region pixel count, which is the number the grid
tables print (a single signed PRE against a single true value would be
ill-defined for a two-region phantom).  A region with no converged pixel
scores NaN with coverage 0, so "whole" reads NaN too; scoring never raises
on it, and the NaN carries into the grid cell's pre_mean.

The grid crosses sample presets, denoising methods, base SNR levels and
good-frame fractions; within one cell all methods see the same degraded
stack (matched seeds), so comparisons are paired.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import fit as fit_mod
# the grid streams its stacks through the fit and calls none of add_noise,
# synth_incremental, kalman_denoise or reconstruct_stack; perfbench's tracer
# wraps them at these names
from .degrade import (FrameQualityMask, NoiseSpec, _frame_rms, _noise_blocks, add_noise,
                      place_bad_frames)
from .kalman import KalmanSpec, kalman_denoise, smoother
from .phantom import (InputError, StrainStack, _incremental_blocks, frame_times, preset,
                      synth_incremental, tau_map)
from .spline import interpolator, reconstruct_stack


METHODS = ("noisy", "kalman", "spline")
DEFAULT_SNRS = (30.0, 40.0, 60.0)
DEFAULT_FRACTIONS = (0.20, 0.50, 0.75)
REGIONS = ("inclusion", "background", "whole")


@dataclass
class PREResult:
    """Region summary of a TC image; pre_percent is signed for the two
    physical regions and a weighted absolute combination for "whole"."""

    region: str
    pre_percent: float
    mean_estimated_tau: float
    true_tau: float
    coverage: float


@dataclass
class GridResult:
    """One (sample, method, SNR, fraction, region) cell aggregated over
    trials; pre_mean/pre_std summarize |PRE| across trials."""

    sample: str
    method: str
    snr_db: float
    good_fraction: float
    region: str
    trials: int
    pre_mean: float
    pre_std: float
    coverage: float
    wall_time_s: float


def compute_pre(tc, truth) -> list[PREResult]:
    """PRE rows of a TC image against its truth map: "inclusion", then
    "background" (each only if it has pixels), then "whole".

    The truth map gives the regions; it must match tc.tau_map's shape and
    hold one or two distinct values, each finite and > 0, or it is refused
    with InputError.  Non-converged pixels are excluded from the mean and
    reported through coverage instead; a region without converged pixels
    scores NaN PRE and mean with coverage 0.  "whole" weights the regions'
    values by pixel count, so it is NaN when either region is, and equals
    the one region (with |PRE|) when the other has no pixels.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != tc.tau_map.shape:
        raise InputError(f"truth map shape {truth.shape} does not match the "
                         f"stack's {tc.tau_map.shape}")
    if not np.all((truth > 0) & (truth < np.inf)):
        raise InputError("truth map values must be finite and > 0")
    values, sizes = np.unique(truth, return_counts=True)
    if values.size > 2:
        raise InputError(f"truth map must hold 1 or 2 distinct values, found {values.size}")
    inclusion = np.zeros(truth.shape, dtype=bool)
    if values.size == 2:
        # argmin takes the first of tied sizes, which is the smaller tau
        inclusion = truth == values[np.argmin(sizes)]
    rows, counts = [], []
    for region, mask in (("inclusion", inclusion), ("background", ~inclusion)):
        n = int(mask.sum())
        if n:
            sel = mask & tc.converged_mask
            true_tau = float(truth[mask].mean())
            mean_est = float(tc.tau_map[sel].mean()) if sel.any() else np.nan
            pre = (mean_est - true_tau) / true_tau * 100.0
            rows.append(PREResult(region, pre, mean_est, true_tau, float(sel.sum() / n)))
            counts.append(n)
    if len(counts) == 1:
        counts = [1]  # a lone region is its own whole, without rounding

    def mix(values):
        return sum(n * v for n, v in zip(counts, values)) / sum(counts)
    rows.append(PREResult("whole", mix(abs(r.pre_percent) for r in rows),
                          mix(r.mean_estimated_tau for r in rows),
                          mix(r.true_tau for r in rows), mix(r.coverage for r in rows)))
    return rows


def _trial_seed(seed, sample, snr_db, fraction, trial):
    """Stable per-trial seed; content-addressed so reordering the grid axes
    cannot silently change a cell's noise realization."""
    ss = np.random.SeedSequence([int(seed), ord(sample), int(round(snr_db * 100)),
                                 int(round(fraction * 10000)), int(trial)])
    return int(ss.generate_state(1)[0])


def _run_cell(cell, methods, kalman_spec, lm_config, want_maps, threads=None):
    """Run one grid cell, (spec, [(noise, mask), ...]) with a pair per trial,
    its fits on at most `threads` threads (the fit's default when None).

    Returns |PRE| and coverage as (method, region, trial) arrays (NaN and 0
    for a region without pixels), the seconds of each method's fit tasks
    summed over trials, and, if want_maps, each method's first-trial TC
    image.

    A trial's degraded stack is never built: the fit gathers it one pixel
    block at a time, each block synthesized for its pixels, given its noise
    and fitted by every method's arm, then freed.  Every arm fits the same
    degraded block through its own denoiser, so the rows are bit for bit
    those of add_noise(synth_incremental(spec), mask, noise), denoised
    whole by the arm's kalman_denoise or reconstruct_stack and fitted by
    fit_stack.
    """
    spec, trial_inputs = cell
    truth = tau_map(spec)
    n_frames, shape = spec.n_frames, truth.shape
    times = frame_times(n_frames, spec.sample_time_s)
    clean = _incremental_blocks(spec)
    # the noise scales with each whole clean frame's RMS, so the frames are
    # made for it first, one at a time (20-frame blocks at 128x128 raised
    # the peak resident memory of 6 one-trial cells from 83 to 87 MiB,
    # medians of 4 runs on a 2-core VM)
    rms = _frame_rms(clean(slice(None), slice(k, k + 1)) for k in range(n_frames))
    pre = np.full((len(methods), len(REGIONS), len(trial_inputs)), np.nan)
    cover = np.zeros(pre.shape)
    wall = np.zeros(len(methods))
    maps = {}
    for trial, (noise, mask) in enumerate(trial_inputs):
        add = _noise_blocks(rms, mask, noise)
        arms = {"noisy": None, "kalman": smoother(n_frames, kalman_spec),
                "spline": interpolator(mask, spec.sample_time_s)}
        fits, seconds = fit_mod._lm_engine(
            times, lambda lo, hi: add(clean(slice(lo, hi))), truth.size, lm_config,
            [arms[method] for method in methods], incremental=True, threads=threads)
        wall += seconds
        for i, (method, (_, _, tau, _, _, conv)) in enumerate(zip(methods, fits)):
            tc = fit_mod.TCImage(tau.reshape(shape), conv.reshape(shape))
            for row in compute_pre(tc, truth):
                j = REGIONS.index(row.region)
                pre[i, j, trial], cover[i, j, trial] = abs(row.pre_percent), row.coverage
            if want_maps and trial == 0:
                maps[method] = tc
    return pre, cover, wall, maps


def run_grid(samples=("A", "B", "C"), methods=METHODS, snrs=DEFAULT_SNRS,
             fractions=DEFAULT_FRACTIONS, trials=10, seed=0,
             width=128, height=128, kalman_spec=KalmanSpec(),
             lm_config=fit_mod.LMConfig(), jobs=1, map_callback=None):
    """Run the full comparison grid and return a list of GridResult rows.

    Results are deterministic for a given seed: each trial's noise seed is
    derived from (seed, sample, snr, fraction, trial) and aggregation order
    is fixed, so re-running a grid reproduces values bit-for-bit.  With
    jobs > 1 cells run in separate processes, at most one per CPU and per
    cell, each fitting on one thread; determinism is unaffected.
    map_callback(sample, method, snr, fraction, tc) receives the first
    trial's TC image of each cell.  Every cell's phantom spec, per-trial
    noise specs and bad-frame masks are built, and so checked, before the
    first cell runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    for name, values in (("samples", samples), ("methods", methods), ("snrs", snrs),
                         ("fractions", fractions)):
        if not 0 < len(values) == len(set(values)):
            raise ValueError(f"{name} must be distinct and non-empty, got {tuple(values)}")
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected some of {METHODS}")
    specs = {sample: preset(sample, width_px=width, height_px=height) for sample in samples}
    keys = [(sample, float(snr), float(frac))
            for sample in samples for snr in snrs for frac in fractions]
    cells = []
    for sample, snr, frac in keys:
        spec, noise = specs[sample], NoiseSpec(snr, frac, seed)
        noises = [replace(noise, rng_seed=_trial_seed(seed, sample, snr, frac, trial))
                  for trial in range(trials)]
        cells.append((spec, [(n, place_bad_frames(spec.n_frames, n)) for n in noises]))
    run_cell = partial(_run_cell, methods=tuple(methods), kalman_spec=kalman_spec,
                       lm_config=lm_config, want_maps=map_callback is not None)
    workers = min(jobs, fit_mod._CPUS, len(cells))
    if workers > 1:
        # one fit thread per worker: the workers already share out the CPUs,
        # so more fit threads gain no time and only add their blocks' memory
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(run_cell, threads=1), cells))
    else:
        outcomes = [run_cell(cell) for cell in cells]
    results = []
    for (sample, snr, frac), (pre, cover, wall, maps) in zip(keys, outcomes):
        results.extend(GridResult(
            sample=sample, method=method, snr_db=snr, good_fraction=frac, region=region,
            trials=trials, pre_mean=float(pre[i, j].mean()), pre_std=float(pre[i, j].std()),
            coverage=float(cover[i, j].mean()), wall_time_s=float(wall[i]))
            for i, method in enumerate(methods) for j, region in enumerate(REGIONS))
        if map_callback is not None:
            for method, tc in maps.items():
                map_callback(sample, method, snr, frac, tc)
    return results


def format_grid_table(results, sample) -> str:
    """Aligned text table of whole-region |PRE| (%) for one sample: methods
    as rows, good-frame percentage and SNR as nested columns."""
    rows = [r for r in results if r.sample == sample and r.region == "whole"]
    if not rows:
        raise ValueError(f"no grid results for sample {sample!r}")
    fractions = sorted({r.good_fraction for r in rows})
    snrs = sorted({r.snr_db for r in rows})
    methods = [m for m in METHODS if any(r.method == m for r in rows)]
    by_key = {(r.method, r.good_fraction, r.snr_db): r for r in rows}
    trials = rows[0].trials

    width = 8
    lines = [f"Sample {sample}: |PRE| (%) of estimated strain TC, whole region, "
             f"mean over {trials} trial(s)"]
    pgf = "".join(f"{f * 100:>{width * len(snrs)}.0f}" for f in fractions)
    lines.append(f"{'PGF (%)':<8}" + pgf)
    snr_hdr = "".join("".join(f"{s:>{width}.0f}" for s in snrs) for _ in fractions)
    lines.append(f"{'SNR (dB)':<8}" + snr_hdr)
    for method in methods:
        cells = "".join(
            f"{by_key[(method, f, s)].pre_mean:>{width}.2f}"
            for f in fractions for s in snrs)
        lines.append(f"{method:<8}" + cells)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bad-frame detection heuristic (the corruption protocol knows its labels;
# real pipelines need a guess)

# frames in the temporal moving-median reference; a frame is flagged when its
# normalized deviation exceeds _DETECT_THRESHOLD times the stack-global robust
# scale, floored at _DETECT_MIN_SCALE to keep clean stacks from flagging
# anything
_DETECT_WINDOW = 7
_DETECT_THRESHOLD = 4.0
_DETECT_MIN_SCALE = 0.01

# min/max median selection networks (Devillard 1998, "Fast median search"),
# one per window length: _DETECT_WINDOW and the odd windows it shrinks to at
# the stack edges; comparator (i, j) puts the min in slot i and the max in j
_MEDIAN_NETWORKS = {
    1: (),
    3: ((0, 1), (1, 2), (0, 1)),
    5: ((0, 1), (3, 4), (0, 3), (1, 4), (1, 2), (2, 3), (1, 2)),
    7: ((0, 5), (0, 3), (1, 6), (2, 4), (0, 1), (3, 5), (2, 6), (2, 3), (3, 6),
        (4, 5), (1, 4), (1, 3), (3, 4)),
}


def _read_outputs(network, mid):
    """Each comparator (i, j) with whether a later comparator or the result
    reads its min and its max output."""
    read, steps = {mid}, []
    for i, j in reversed(network):
        steps.append((i, j, i in read, j in read))
        read |= {i, j}
    return steps[::-1]


_MEDIAN_STEPS = {m: _read_outputs(net, m // 2) for m, net in _MEDIAN_NETWORKS.items()}


def _median_rows(rows):
    """Elementwise median of an odd number of equal-length rows.

    The middle output of a selection network is one of the inputs, so this
    equals np.median(rows, axis=0) but for the sign of a zero where -0.0
    and 0.0 tie.
    """
    rows = list(rows)
    for i, j, keep_min, keep_max in _MEDIAN_STEPS[len(rows)]:
        a, b = rows[i], rows[j]
        if keep_min:
            rows[i] = np.minimum(a, b)
        if keep_max:
            rows[j] = np.maximum(a, b)
    return rows[len(rows) // 2]


def _median(a):
    """np.median of a 1-D array with no NaN and no -0.0, bit for bit.

    Partitions `a` in place at its middle only (np.median partitions at
    both middles and the end), so callers pass a fresh temporary.  An even
    size takes the mean of the two middle values as np.median does.
    """
    h = a.size // 2
    a.partition(h)
    return a[h] if a.size % 2 else (a[:h].max() + a[h]) / 2


def detect_bad_frames(stack: StrainStack) -> FrameQualityMask:
    """Heuristic good/bad labeling of an incremental stack.

    Each frame is compared against a temporal moving median (window shrunk
    symmetrically near the edges so it stays odd and centered, which keeps
    the reference unbiased on monotone signals); the spatial median absolute
    deviation, normalized by the reference frame's own magnitude, is
    thresholded against the stack-global robust scale of those deviations.

    Isolated corrupted frames are caught while bad frames are a minority:
    the stack-global scale is the typical frame's deviation, so once bad
    frames are the majority it is theirs and nothing is flagged (preset A at
    128x128, 20% good frames: none of 240 bad frames).  Over the 18 stacks
    of the benchmark's repair workload its precision is 0.68 and its recall
    0.24 against the protocol masks (ROADMAP.md plans a replacement).
    Runs of adjacent corrupted frames can also pull their good neighbors
    over the threshold (the labeling errs toward caution there), and the
    first and last frames have degenerate one-frame windows and are never
    flagged.  A cumulative stack, or one of fewer than 8 frames, is an
    InputError.
    """
    if stack.kind != "incremental":
        raise InputError("expected an incremental stack, got a cumulative one")
    n = stack.n_frames
    if n < 8:
        raise InputError(f"need at least 8 frames to detect bad ones, got {n}")
    frames = stack.frames.reshape(n, -1)
    half_max = _DETECT_WINDOW // 2
    tiny = np.finfo(np.float64).tiny
    rel_dev = np.empty(n)
    for k in range(n):
        half = min(half_max, k, n - 1 - k)
        ref = _median_rows(frames[k - half:k + half + 1])
        # both inputs are fresh temporaries, so they are partitioned in place
        dev = _median(np.abs(frames[k] - ref))
        mag = _median(np.abs(ref))
        rel_dev[k] = dev / max(mag, tiny)
    scale = max(float(np.median(rel_dev)), _DETECT_MIN_SCALE)
    good = rel_dev <= _DETECT_THRESHOLD * scale
    return FrameQualityMask(good)
