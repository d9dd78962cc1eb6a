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
from .fit import _block_edges
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


def reconstruct_stack(stack: StrainStack, mask: FrameQualityMask) -> StrainStack:
    """Replace every bad frame of an incremental stack with per-pixel natural
    spline interpolation over the good frames.

    Good frames pass through bit-exactly.  All pixels share the same knot
    times, so the knot spacings, the system's pivots and each bad frame's
    interval are found once, and the solve is vectorized over pixels.  Every
    operation acts on each pixel's column alone, so the pixels are rebuilt
    in the fit's pixel blocks (15 at 128x128x300, one for a 32x32 stack),
    with the same bits as one whole-image pass and temporaries whose size
    does not grow with the image.  Coefficients are formed only for the
    intervals that hold a bad frame, and each bad frame is evaluated
    straight into its output row.
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
    h = np.diff(knots)
    second_derivatives = _second_derivatives(h)
    idx = np.clip(np.searchsorted(knots, times[bad], side="right") - 1, 0, knots.size - 2)
    intervals, row_of = np.unique(idx, return_inverse=True)
    dts = times[bad] - knots[idx]
    h_int = h[intervals, None]
    h6_int = 6.0 * h_int
    edges = _block_edges(pixels, n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        vals = flat[good, lo:hi]
        slopes = np.diff(vals, axis=0) / h[:, None]
        M = second_derivatives(slopes)
        a = (M[intervals + 1] - M[intervals]) / h6_int
        b = M[intervals] / 2.0
        c = slopes[intervals] - h_int * (2.0 * M[intervals] + M[intervals + 1]) / 6.0
        d = vals[intervals]
        for k, j, dt in zip(bad, row_of, dts):
            # Horner's rule ((a dt + b) dt + c) dt + d in place
            row = flat_out[k, lo:hi]
            np.multiply(a[j], dt, out=row)
            row += b[j]
            row *= dt
            row += c[j]
            row *= dt
            row += d[j]
    return StrainStack(out, stack.sample_time_s, "incremental")
