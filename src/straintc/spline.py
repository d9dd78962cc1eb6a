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
from .fit import _map_blocks
from .phantom import InputError, StrainStack, frame_times


def _second_derivatives(h):
    """The solve taking interval slopes (n - 1, k) at n knots spaced h to the
    knot second derivatives M (n, k) of the natural splines.  Only the
    right-hand side 6 (slope[i] - slope[i-1]) of the interior equations
    h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] depends on the
    values, so the elimination's pivots and multipliers are formed once."""
    piv = 2.0 * (h[:-1] + h[1:])
    mul = np.empty(piv.size - 1)
    for i in range(mul.size):
        mul[i] = h[i + 1] / piv[i]
        piv[i + 1] -= h[i + 1] * mul[i]

    def solve(slopes):
        M = np.zeros((h.size + 1, slopes.shape[1]))
        x = M[1:-1]
        np.subtract(slopes[1:], slopes[:-1], out=x)
        x *= 6.0
        x[0] /= piv[0]
        for i in range(1, piv.size):
            x[i] -= h[i] * x[i - 1]
            x[i] /= piv[i]
        for i in range(mul.size - 1, -1, -1):
            x[i] -= mul[i] * x[i + 1]
        return M

    return solve


def interpolator(mask: FrameQualityMask, sample_time_s):
    """The reconstruction as a map on (n_frames, pixels) blocks of an
    incremental stack's frames: rebuild(block, out=None) fills out (a new
    array if None) with the block, its bad frames replaced by the natural
    spline through its good frames, and returns it.

    Good frames pass through bit-exactly.  All pixels share the same knot
    times, so the knot spacings, the system's pivots and each bad frame's
    interval are found once, here, and the solve is vectorized over a
    block's pixels.  Every operation acts on each pixel's column alone, so
    any split of the pixels into blocks gives the same bits.  Coefficients
    are formed only for the intervals that hold a bad frame, and the bad
    frames are evaluated in place by Horner's rule: each pool thread's
    allocator keeps the memory of a block's temporaries after the block.
    """
    if mask.n_good < MIN_KNOTS:
        raise ValueError(f"insufficient good frames: need >= {MIN_KNOTS}, got {mask.n_good}")
    good, bad = mask.good_indices, mask.bad_indices
    times = frame_times(mask.n_frames, sample_time_s)
    knots = times[good]
    h = np.diff(knots)
    second_derivatives = _second_derivatives(h)
    idx = np.clip(np.searchsorted(knots, times[bad], side="right") - 1, 0, knots.size - 2)
    intervals, row_of = np.unique(idx, return_inverse=True)
    dts = (times[bad] - knots[idx])[:, None]
    h_int = h[intervals, None]
    h6_int = 6.0 * h_int

    def rebuild(block, out=None):
        out = np.empty(block.shape) if out is None else out
        out[good] = block[good]
        if bad.size:
            M = second_derivatives(np.diff(block[good], axis=0) / h[:, None])
            b = M[intervals] / 2.0
            c = ((block[good[intervals + 1]] - block[good[intervals]]) / h_int
                 - h_int * (2.0 * M[intervals] + M[intervals + 1]) / 6.0)
            y = ((M[intervals + 1] - M[intervals]) / h6_int)[row_of]
            del M
            for coef in (b, c, block[good[intervals]]):
                y *= dts
                y += coef[row_of]
            out[bad] = y
        return out

    return rebuild


def reconstruct_stack(stack: StrainStack, mask: FrameQualityMask) -> StrainStack:
    """Replace every bad frame of an incremental stack with per-pixel natural
    spline interpolation over the good frames (interpolator).

    The pixels are rebuilt on the fit's pool in its pixel blocks (15 at
    128x128x300, one for a 32x32 stack), with the same bits as one whole-image
    pass and temporaries of one block per thread, whatever the image size.
    """
    if stack.kind != "incremental":
        raise InputError("expected an incremental stack, got a cumulative one")
    if stack.n_frames != mask.n_frames:
        raise InputError(f"mask has {mask.n_frames} frames but the stack has {stack.n_frames}")
    return _map_blocks(interpolator(mask, stack.sample_time_s), stack)
