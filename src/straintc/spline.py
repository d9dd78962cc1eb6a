"""Natural cubic spline interpolation and bad-frame reconstruction.

Each pixel's incremental strain samples at the good-frame times define a
natural cubic spline (zero second derivative at both end knots); bad frames
are replaced by the spline evaluated at their acquisition times.  The spline
is built by solving the symmetric tridiagonal system for the knot second
derivatives with the Thomas algorithm, which is safe here because the system
is strictly diagonally dominant.

Interval m of the spline is stored in the local form

    s_m(t) = a_m (t - t_m)^3 + b_m (t - t_m)^2 + c_m (t - t_m) + d_m
"""

from __future__ import annotations

import numpy as np

from .degrade import MIN_KNOTS, FrameQualityMask
from .phantom import InputError, StrainStack, frame_times


# bytes per (frames, pixels) float64 array of one block of pixel columns in
# reconstruct_stack: 1092 pixels at 300 frames, so the solve's temporaries
# stay a few MiB whatever the image size (a 32x32 stack is one block)
_BLOCK_BYTES = 5 << 19


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Thomas solve of a tridiagonal system for the (n, k) right-hand sides.

    lower[i] multiplies x[i-1] in row i (lower[0] unused); upper[i]
    multiplies x[i+1] in row i (upper[-1] unused).  No pivoting: callers
    guarantee diagonal dominance.
    """
    n = diag.shape[0]
    cp = np.empty(n - 1)
    dp = np.empty_like(rhs, dtype=np.float64)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        den = diag[i] - lower[i] * cp[i - 1]
        if i < n - 1:
            cp[i] = upper[i] / den
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / den
    for i in range(n - 2, -1, -1):
        dp[i] -= cp[i] * dp[i + 1]
    return dp


def _natural_second_derivatives(knots, values):
    """Knot second derivatives M of the natural spline; values is (n, k)."""
    h = np.diff(knots)
    M = np.zeros_like(values, dtype=np.float64)
    slopes = np.diff(values, axis=0) / h[:, None]
    rhs = 6.0 * (slopes[1:] - slopes[:-1])
    # interior equations: h[i-1] M[i-1] + 2(h[i-1]+h[i]) M[i] + h[i] M[i+1]
    lower = np.concatenate(([0.0], h[1:-1]))
    diag = 2.0 * (h[:-1] + h[1:])
    upper = np.concatenate((h[1:-1], [0.0]))
    M[1:-1] = _solve_tridiagonal(lower, diag, upper, rhs)
    return M


def _interval_coefficients(knots, values, M, intervals):
    """(a, b, c, d) of the listed intervals, one row each, from values and
    knot second derivatives."""
    lo, hi = intervals, intervals + 1
    h = (knots[hi] - knots[lo])[:, None]
    a = (M[hi] - M[lo]) / (6.0 * h)
    b = M[lo] / 2.0
    c = (values[hi] - values[lo]) / h - h * (2.0 * M[lo] + M[hi]) / 6.0
    d = values[lo]
    return a, b, c, d


def reconstruct_stack(stack: StrainStack, mask: FrameQualityMask) -> StrainStack:
    """Replace every bad frame of an incremental stack with per-pixel natural
    spline interpolation over the good frames.

    Good frames pass through bit-exactly.  All pixels share the same knot
    times, so one tridiagonal system serves the whole image: the solve is
    vectorized over pixels.  Every operation acts on each pixel's column
    alone, so the pixels are rebuilt in blocks of columns, _BLOCK_BYTES per
    (frames, pixels) array, with the same bits as one whole-image pass and
    temporaries whose size does not grow with the image.  Coefficients are
    formed only for the intervals that hold a bad frame, and each bad frame
    is evaluated straight into its output row.
    """
    if stack.kind != "incremental":
        raise InputError("expected an incremental stack, got a cumulative one")
    if stack.n_frames != mask.n_frames:
        raise InputError(f"mask has {mask.n_frames} frames but the stack has {stack.n_frames}")
    if mask.n_good < MIN_KNOTS:
        raise ValueError(f"insufficient good frames: need >= {MIN_KNOTS}, got {mask.n_good}")
    bad = mask.bad_indices
    out = stack.frames.copy()
    if bad.size == 0:
        return StrainStack(out, stack.sample_time_s, "incremental")

    times = frame_times(stack.n_frames, stack.sample_time_s)
    knots = times[mask.good]
    n, height, width = stack.frames.shape
    pixels = height * width
    flat = stack.frames.reshape(n, pixels)
    flat_out = out.reshape(n, pixels)

    good = mask.good_indices
    idx = np.clip(np.searchsorted(knots, times[bad], side="right") - 1, 0, knots.size - 2)
    intervals, row_of = np.unique(idx, return_inverse=True)
    dts = times[bad] - knots[idx]
    step = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, pixels, step):
        cols = slice(lo, min(lo + step, pixels))
        # gathered row by row: fancy indexing of a column block is ~4x slower
        vals = np.empty((good.size, cols.stop - lo))
        for i, k in enumerate(good):
            vals[i] = flat[k, cols]
        M = _natural_second_derivatives(knots, vals)
        a, b, c, d = _interval_coefficients(knots, vals, M, intervals)
        for k, j, dt in zip(bad, row_of, dts):
            # Horner's rule ((a dt + b) dt + c) dt + d in place
            row = flat_out[k, cols]
            np.multiply(a[j], dt, out=row)
            row += b[j]
            row *= dt
            row += c[j]
            row *= dt
            row += d[j]
    return StrainStack(out, stack.sample_time_s, "incremental")
