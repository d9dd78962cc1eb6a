"""Fixed-lag Kalman smoothing baseline for per-pixel strain time series.

Each pixel's series is treated with a scalar random-walk state model (state =
true incremental strain, transition = identity plus process noise Q) and
measurement noise R, then refined by fixed-lag smoothing: the output at frame
k uses the measurements up to frame k + window_len - 1, so window_len = 1
degenerates to the causal filtered estimate.

The initial state is the first sample with covariance R.  Every predicted and
filtered covariance is then R times a number that depends only on Q/R, and so
do the gains and smoother coefficients: the whole smoother is one fixed
linear map along the time axis, the same for every pixel (Rauch, Tung and
Striebel 1965; fixed-lag smoothing as a linear filter in Anderson and Moore,
Optimal Filtering, 1979).  It is built as an (n, n) matrix K from
(n, Q/R, window_len) and kept for the next call with the same three values.
kalman_denoise and the grid apply it to the same pixel blocks: the one to a
stack's, the other inside the fit (smoother).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fit import _map_blocks
from .phantom import StrainStack


@dataclass(frozen=True)
class KalmanSpec:
    """Smoother settings: look-ahead window and process/measurement noise ratio Q/R."""

    window_len: int = 13
    process_ratio: float = 0.01

    def __post_init__(self):
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")
        if not isinstance(self.window_len, numbers.Integral):
            raise ValueError(f"window_len must be an integer, got {self.window_len}")
        if not (math.isfinite(self.process_ratio) and self.process_ratio > 0):
            raise ValueError(f"process_ratio must be finite and > 0, got {self.process_ratio}")


# a few (n, Q/R, window_len) operators stay built: a grid or a run of repairs
# uses one, and each takes about 10 ms to build at n = 300
@functools.lru_cache(maxsize=4)
def _smoother_matrix(n, ratio, window_len):
    """(n, n) matrix K of the fixed-lag smoother, out = K @ z, with R = 1;
    read-only, since it is shared by every call with the same arguments.

    Row k of F holds the filtered estimate x_f[k] as weights on z.  For the
    random-walk model the predicted mean equals the previous filtered mean,
    so the smoother recursion at index i is
        x_s[i] = x_f[i] + C_i * (x_s[i+1] - x_f[i]),  C_i = P_f[i] / P_p[i+1],
    started from x_s[j] = x_f[j] at j = min(k + window_len - 1, n - 1).
    """
    eye = np.eye(n)
    F = np.empty((n, n))
    Pf = np.empty(n)
    Pp = np.empty(n)
    x = eye[0]
    P = 1.0
    for k in range(n):
        if k > 0:
            P = P + ratio
        Pp[k] = P
        gain = P / (P + 1.0)
        x = x + gain * (eye[k] - x)
        P = (1.0 - gain) * P
        F[k] = x
        Pf[k] = P
    C = (Pf[:-1] / Pp[1:])[:, None]
    K = F[np.minimum(np.arange(n) + window_len - 1, n - 1)]
    # step s moves every row k with k + s < j back to index i = k + s
    for s in range(min(window_len, n) - 2, -1, -1):
        rows = slice(0, n - 1 - s)
        Fi = F[s:n - 1]
        K[rows] = Fi + C[s:] * (K[rows] - Fi)
    K.flags.writeable = False
    return K


def smoother(n_frames, spec: KalmanSpec = KalmanSpec()):
    """The smoother as a map on (n_frames, pixels) blocks of frames:
    (block, out=None) -> K @ block, written into out if given."""
    return functools.partial(np.matmul, _smoother_matrix(n_frames, spec.process_ratio,
                                                         spec.window_len))


def kalman_denoise(stack: StrainStack, spec: KalmanSpec = KalmanSpec()) -> StrainStack:
    """Apply the fixed-lag smoother to every pixel of a stack of either
    kind; the result keeps the input's kind.

    K is applied to the fit's pixel blocks, the blocks on which the grid's
    Kalman arm applies it inside the fit (smoother).  BLAS picks the order
    of each sum by the shape of the product, so a pixel's bits follow its
    block, and the grid's arm has the bits of this function at every pixel
    count, given the same number of BLAS threads."""
    return _map_blocks(smoother(stack.n_frames, spec), stack)
