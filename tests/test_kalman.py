import numpy as np
import pytest

from straintc import fit as fit_mod
from straintc import kalman
from straintc.kalman import KalmanSpec, kalman_denoise, smoother
from straintc.phantom import StrainStack


def denoise(series, spec=KalmanSpec()):
    """kalman_denoise on series along the last axis: an (n,) series or
    (n_pixels, n) rows, run as one (n, 1, n_pixels) stack."""
    z = np.asarray(series, dtype=np.float64)
    rows = z.reshape(-1, z.shape[-1])
    stack = StrainStack(rows.T[:, None, :], 0.5, "incremental")
    return kalman_denoise(stack, spec).frames[:, 0, :].T.reshape(z.shape)


def reference_filter(z, q, r):
    """Scalar random-walk Kalman filter with explicit variances Q and R, one
    frame at a time: filtered means, filtered and predicted covariances."""
    xf, pf, pp = [], [], []
    x, p = z[0], r
    for k, zk in enumerate(z):
        if k > 0:
            p = p + q
        pp.append(p)
        gain = p / (p + r)
        x = x + gain * (zk - x)
        p = (1.0 - gain) * p
        xf.append(x)
        pf.append(p)
    return xf, pf, pp


def reference_smoother(z, q, r, window_len):
    """Fixed-lag backward pass over reference_filter: frame k is refined with
    the measurements up to frame k + window_len - 1."""
    xf, pf, pp = reference_filter(z, q, r)
    n = len(z)
    out = np.empty(n)
    for k in range(n):
        j = min(k + window_len - 1, n - 1)
        xs = xf[j]
        for i in range(j - 1, k - 1, -1):
            xs = xf[i] + pf[i] / pp[i + 1] * (xs - xf[i])
        out[k] = xs
    return out


def test_constant_signal_convergence():
    z = np.full(300, 0.02)
    out = denoise(z, KalmanSpec(process_ratio=1e-3))
    err = np.abs(out - 0.02)
    assert np.all(np.diff(err) <= 1e-15)  # error never grows
    assert err[-1] < 1e-6


def test_large_process_noise_trusts_measurements():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(200)
    out = denoise(z, KalmanSpec(process_ratio=1e8))
    assert np.allclose(out, z, rtol=0, atol=1e-6)


def test_variance_reduction_on_white_noise():
    # 10^4 independent realizations, default ratio: the smoother must shrink
    # zero-mean white noise
    rng = np.random.default_rng(1)
    z = rng.standard_normal((10_000, 60))
    out = denoise(z)
    assert out.var() < z.var()
    assert out.var() < 0.9 * z.var()


def test_linearity_with_explicit_variances():
    rng = np.random.default_rng(2)
    spec = KalmanSpec(process_ratio=1e-2)
    x = rng.standard_normal(120)
    y = rng.standard_normal(120)
    a, b = 1.7, -0.4
    combined = denoise(a * x + b * y, spec)
    parts = a * denoise(x, spec) + b * denoise(y, spec)
    assert np.allclose(combined, parts, rtol=1e-9, atol=1e-12)


def test_output_finite():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((50, 80)) * 1e-4
    out = denoise(z)
    assert np.all(np.isfinite(out))


def test_window_one_is_causal_filter():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((7, 90))
    out = denoise(z, KalmanSpec(window_len=1, process_ratio=0.01 / 0.5))
    for row, series in zip(out, z):
        xf, _, _ = reference_filter(series, 0.01, 0.5)
        np.testing.assert_allclose(row, xf, rtol=1e-12, atol=0)


# two (Q, R) pairs with one ratio: the output depends on Q/R alone
@pytest.mark.parametrize("q, r", [(0.01, 1.0), (0.01 * 2.0**-20, 2.0**-20)])
@pytest.mark.parametrize("window_len", [1, 13, 200])
def test_matches_scalar_reference_smoother(window_len, q, r):
    rng = np.random.default_rng(8)
    z = rng.standard_normal((5, 90)) * np.sqrt(r)
    out = denoise(z, KalmanSpec(window_len=window_len, process_ratio=0.01))
    for row, series in zip(out, z):
        np.testing.assert_allclose(row, reference_smoother(series, q, r, window_len),
                                   rtol=1e-12, atol=0)


def test_window_limits_lookahead():
    # the smoothed value at frame k must not depend on measurements past
    # k + window_len - 1
    rng = np.random.default_rng(5)
    z = rng.standard_normal(100)
    spec = KalmanSpec(window_len=13, process_ratio=0.1)
    base = denoise(z, spec)
    z2 = z.copy()
    k = 40
    z2[k + 13:] += 5.0
    out = denoise(z2, spec)
    assert np.array_equal(out[:k + 1], base[:k + 1])
    assert not np.allclose(out[k + 1:], base[k + 1:])


def test_longer_window_smooths_more():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((2000, 80))
    spec1 = KalmanSpec(window_len=1, process_ratio=0.05)
    spec13 = KalmanSpec(window_len=13, process_ratio=0.05)
    assert denoise(z, spec13).var() < denoise(z, spec1).var()


def test_stack_wrapper_preserves_shape_and_time():
    rng = np.random.default_rng(7)
    stack = StrainStack(rng.standard_normal((30, 5, 4)) * 1e-3, 0.25, "incremental")
    out = kalman_denoise(stack)
    assert out.frames.shape == (30, 5, 4)
    assert out.sample_time_s == 0.25
    assert out.kind == "incremental"
    # per-pixel operation: one pixel's series run alone matches the stack run
    series = denoise(stack.frames[:, 2, 1])
    assert np.allclose(out.frames[:, 2, 1], series, rtol=1e-12, atol=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        KalmanSpec(window_len=0)
    with pytest.raises(ValueError, match="window_len must be an integer, got 2.5"):
        KalmanSpec(window_len=2.5)
    for ratio in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            KalmanSpec(process_ratio=ratio)


def test_empty_series_is_rejected():
    # a stack without frames or pixels never reaches the smoother
    for shape in ((0, 4, 4), (5, 0, 4), (5, 4, 0)):
        with pytest.raises(ValueError, match=r"empty stack \(\d+ frames of \d+ x \d+\)"):
            kalman_denoise(StrainStack(np.empty(shape), 0.5, "incremental"))


def test_constant_input_default_spec():
    out = denoise(np.full(50, 3.3))
    assert np.allclose(out, 3.3, rtol=0, atol=1e-12)


def test_smoother_operator_is_built_once_and_shared_read_only():
    # the operator of a spec is built on its first use and kept: a second
    # call gives the same bytes, and no caller can change the shared matrix
    kalman._smoother_matrix.cache_clear()
    stack = StrainStack(np.random.default_rng(3).standard_normal((40, 3, 5)), 0.5,
                        "incremental")
    first = kalman_denoise(stack).frames
    second = kalman_denoise(stack).frames
    assert first.tobytes() == second.tobytes()
    info = kalman._smoother_matrix.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    K = kalman._smoother_matrix(40, 0.01, 13)
    with pytest.raises(ValueError, match="read-only"):
        K[0, 0] = 1.0
    assert kalman._smoother_matrix(40, 0.01, 13) is K
    others = [kalman._smoother_matrix(*args) for args in ((40, 0.02, 13), (40, 0.01, 12))]
    assert not any(np.array_equal(K, other) for other in others)


@pytest.mark.parametrize("height, width", [(128, 128), (129, 128), (100, 120)])
def test_smoother_on_the_fit_blocks_has_the_bits_of_the_whole_product(height, width):
    # kalman_denoise, like the grid's Kalman arm, applies K to the fit's
    # pixel blocks; with every block but the last a multiple of 64 pixels,
    # each block's product has the bits of one whole K @ frames product at
    # pixel counts that are multiples of 8, such as these, whose last
    # blocks hold 256, 192 and 480 pixels, so blocking left these counts'
    # bits as they were
    n, pixels = 300, height * width
    frames = np.random.default_rng(pixels).standard_normal((n, pixels))
    stack = StrainStack(frames.reshape(n, height, width), 0.5, "incremental")
    apply = smoother(n)
    whole = apply(frames)
    edges = fit_mod._block_edges(pixels, n)
    assert np.diff(edges)[-1] == {16384: 256, 16512: 192, 12000: 480}[pixels]
    for lo, hi in zip(edges[:-1], edges[1:]):
        assert np.array_equal(apply(frames[:, lo:hi]), whole[:, lo:hi]), (lo, hi)
    assert np.array_equal(kalman_denoise(stack).frames.reshape(n, pixels), whole)
