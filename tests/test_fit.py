import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straintc import fit as fit_mod
from straintc.degrade import NoiseSpec, add_noise, place_bad_frames
from straintc.fit import (LMConfig, cumulate, exp_model, fit_exponential,
                          fit_stack, initial_guess)
from straintc.kalman import kalman_denoise, smoother
from straintc.phantom import (StrainStack, frame_times, param_maps, preset,
                              synth_cumulative, synth_incremental, tau_map)
from straintc.spline import interpolator, reconstruct_stack

TIMES = frame_times(300, 0.5)


def fit_rows(times, curves, config, **kwargs):
    """The engine's one-arm result for the (pixels, samples) curves."""
    [result], _ = fit_mod._lm_engine(times, lambda lo, hi: curves.T[:, lo:hi], len(curves),
                                     config, **kwargs)
    return result


def test_clean_recovery():
    values = exp_model(TIMES, 0.02, -0.01, 4.66)
    f = fit_exponential(TIMES, values)
    assert f.converged
    assert f.eta == pytest.approx(0.02, rel=1e-6)
    assert f.gamma == pytest.approx(-0.01, rel=1e-6)
    assert f.tau == pytest.approx(4.66, rel=1e-6)
    assert f.residual_norm < 1e-12


def test_degenerate_constant_curve():
    f = fit_exponential(TIMES, np.full(300, 0.02))
    assert not f.converged
    assert f.eta == 0.02
    assert f.gamma == 0.0
    assert np.isnan(f.tau)
    assert f.iterations == 0


def normal_equations_deviation(t, theta):
    """Worst scaled deviations of the engine's J^T J and J^T r at theta from
    those of a central-difference Jacobian of exp_model.

    The data are the model plus 0.01 sin(t), so the residual is never zero.
    Entry (i, j) of J^T J is scaled by |J_i| |J_j| and entry i of J^T r by
    |J_i| |r|, the Cauchy-Schwarz bounds of each entry.
    """
    r = 0.01 * np.sin(t)
    y = exp_model(t, *theta) + r
    eta, gamma, tau = (np.array([v]) for v in theta)
    E, resid, _ = fit_mod._trial(t, y[None, :], eta, gamma, tau)
    jtj, jtr = fit_mod._normal_equations(t, E, resid, gamma, tau)
    J = np.empty((t.size, 3))
    for col in range(3):
        h = 1e-6 * max(abs(theta[col]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[col] += h
        tm[col] -= h
        J[:, col] = (exp_model(t, *tp) - exp_model(t, *tm)) / (2 * h)
    norms = np.linalg.norm(J, axis=0)
    jtj_dev = np.abs(jtj[0] - J.T @ J) / np.outer(norms, norms)
    jtr_dev = np.abs(jtr[0] - J.T @ r) / (norms * np.linalg.norm(r))
    return jtj_dev.max(), jtr_dev.max()


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        eta = rng.uniform(-0.05, 0.05)
        gamma = rng.choice([-1, 1]) * rng.uniform(0.001, 0.05)
        tau = rng.uniform(0.5, 50.0)
        jtj_dev, jtr_dev = normal_equations_deviation(TIMES, np.array([eta, gamma, tau]))
        assert jtj_dev <= 1e-5 and jtr_dev <= 1e-5


def test_initial_guess_on_clean_curve():
    values = exp_model(TIMES, 0.02, -0.01, 4.66)
    (eta0,), (gamma0,), (tau0,) = initial_guess(TIMES, values[None, :])
    assert eta0 == pytest.approx(0.02, rel=1e-3)
    assert 4.66 / 2 < tau0 < 4.66 * 2
    assert np.sign(gamma0) == np.sign(values[0] - eta0)


def test_initial_guess_ignores_memory_layout():
    rng = np.random.default_rng(4)
    values = exp_model(TIMES, 0.02, -0.01, 4.66) + 1e-3 * rng.standard_normal((64, 300))
    for a, b in zip(initial_guess(TIMES, values),
                    initial_guess(TIMES, np.asfortranarray(values))):
        assert np.array_equal(a, b)


def test_initial_guess_constant():
    _, (gamma0,), _ = initial_guess(TIMES, np.full((1, 300), 0.5))
    assert gamma0 == 0.0


def test_initial_guess_no_crossing_fallback():
    # oscillating data never decays to |gamma0|/e: fall back to duration/3
    values = 0.01 * np.cos(TIMES) + 10.0
    (eta0,), (gamma0,), (tau0,) = initial_guess(TIMES, values[None, :])
    if not np.any(np.abs(values - eta0) <= abs(gamma0) / np.e):
        assert tau0 == pytest.approx(TIMES[-1] / 3.0)


def test_time_shift_covariance():
    delta = 2.0
    tau = 4.66
    values = exp_model(TIMES, 0.02, -0.01, tau)
    base = fit_exponential(TIMES, values)
    shifted = fit_exponential(TIMES + delta, values)
    assert shifted.eta == pytest.approx(base.eta, rel=1e-6)
    assert shifted.tau == pytest.approx(base.tau, rel=1e-6)
    assert shifted.gamma == pytest.approx(base.gamma * np.exp(delta / tau), rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(k=st.floats(0.01, 100.0))
def test_scale_equivariance(k):
    values = exp_model(TIMES, 0.02, -0.01, 4.66)
    base = fit_exponential(TIMES, values)
    scaled = fit_exponential(TIMES, k * values)
    assert scaled.tau == pytest.approx(base.tau, rel=1e-8)
    assert scaled.eta == pytest.approx(k * base.eta, rel=1e-8)
    assert scaled.gamma == pytest.approx(k * base.gamma, rel=1e-8)


def test_validation_errors():
    with pytest.raises(ValueError, match="at least 4"):
        fit_exponential([0.5, 1.0, 1.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_exponential([0.5, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    values = exp_model(TIMES, 0.02, -0.01, 4.66)
    values[20] = np.nan
    with pytest.raises(ValueError, match="values must be finite"):
        fit_exponential(TIMES, values)
    with pytest.raises(ValueError, match="times must be finite"):
        fit_exponential([0.5, 1.0, 1.5, np.inf], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        LMConfig(max_iterations=0)
    with pytest.raises(ValueError, match="max_iterations must be an integer, got 2.5"):
        LMConfig(max_iterations=2.5)
    with pytest.raises(ValueError):
        LMConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError, match="finite"):
        LMConfig(rel_tolerance=np.inf)
    # times ending before zero leave no tau interval between the derived bounds
    with pytest.raises(ValueError, match="below tau ceiling"):
        fit_exponential(TIMES - 1000.0, exp_model(TIMES, 0.02, -0.01, 4.66))


def lm_step(t, y, params, lam, bounds):
    """One Marquardt-damped step from params, written with the dense analytic
    (n, 3) Jacobian of exp_model in (eta, gamma, tau) order."""
    eta, gamma, tau = params
    decay = np.exp(-t / tau)
    J = np.stack([np.ones_like(t), decay, gamma * t / tau ** 2 * decay], axis=1)
    jtj = J.T @ J
    d = np.diag(jtj)
    step = np.linalg.solve(jtj + lam * np.diag(np.maximum(d, 1e-12 * d.max())),
                           J.T @ (y - exp_model(t, *params)))
    eta, gamma, tau = np.add(params, step)
    return eta, gamma, float(np.clip(tau, *bounds))


def test_rejected_step_retries_from_the_kept_point():
    # the first step overshoots and is rejected; the second must start again
    # from the kept parameters and residuals with ten times the damping
    rng = np.random.default_rng(0)
    values = exp_model(TIMES, 0.02, -0.01, 1.0) + 1e-4 * rng.standard_normal(300)
    bounds = LMConfig.resolve_bounds(TIMES)
    (eta0,), (gamma0,), (tau0,) = initial_guess(TIMES, values[None, :])
    start = (eta0, gamma0, float(np.clip(tau0, *bounds)))
    first = fit_exponential(TIMES, values, LMConfig(max_iterations=1))
    assert (first.eta, first.gamma, first.tau) == start
    second = fit_exponential(TIMES, values, LMConfig(max_iterations=2))
    expected = lm_step(TIMES, values, start,
                       fit_mod.INITIAL_DAMPING * fit_mod.DAMPING_FACTOR, bounds)
    np.testing.assert_allclose([second.eta, second.gamma, second.tau], expected, rtol=1e-9)


def test_rejected_rows_are_rebuilt_among_accepted_ones():
    # the trial overwrites a batch's decay and residual rows and rebuilds the
    # rejected ones; here the overshooting curve above is rejected in the
    # first iteration while its neighbours are accepted, then accepted from
    # its rebuilt rows in the second, while the pure-noise pixel is rejected
    rng = np.random.default_rng(0)
    overshoot = exp_model(TIMES, 0.02, -0.01, 1.0) + 1e-4 * rng.standard_normal(300)
    rng = np.random.default_rng(5)
    values = np.array([overshoot, 0.01 * rng.standard_normal(300)]
                      + [exp_model(TIMES, 0.02, -0.01, tau) + 1e-4 * rng.standard_normal(300)
                         for tau in (4.66, 20.0)])
    eta, gamma, tau = initial_guess(TIMES, values)
    params = [(eta, gamma, np.clip(tau, *LMConfig.resolve_bounds(TIMES)))]
    accepted = []
    for max_iterations in range(1, 6):
        config = LMConfig(max_iterations=max_iterations)
        batch = fit_rows(TIMES, values, config)
        for i in range(len(values)):
            alone = fit_rows(TIMES, values[i:i + 1], config)
            assert all(np.array_equal(b[i:i + 1], a, equal_nan=True)
                       for b, a in zip(batch, alone)), (max_iterations, i)
        # a pixel still iterating keeps its parameters exactly when its step
        # was rejected
        active = batch[4] == max_iterations
        moved = np.any([p != q for p, q in zip(batch[:3], params[-1])], axis=0)
        accepted.append(np.where(active, moved, np.nan))
        params.append(batch[:3])
    assert accepted[0].tolist() == [0, 1, 1, 1]
    assert accepted[1][:2].tolist() == [1, 0]


def test_tau_stays_within_bounds():
    # one tenth of the sampling interval up to 100 times the duration
    floor, ceil = LMConfig.resolve_bounds(TIMES)
    assert (floor, ceil) == (0.05, 15000.0)
    taus = [fit_exponential(TIMES, np.random.default_rng(seed).standard_normal(300) * 0.01).tau
            for seed in range(4)]
    assert all(floor <= tau <= ceil for tau in taus)
    # pure noise drives some fits onto the ceiling, where the clamp holds them
    assert taus[0] == ceil


def test_stack_fit_matches_scalar_fits():
    rng = np.random.default_rng(5)
    t = frame_times(80, 0.5)
    curves = np.empty((6, 80))
    for i in range(6):
        clean = exp_model(t, rng.uniform(0.01, 0.05), -rng.uniform(0.005, 0.02),
                          rng.uniform(1.0, 20.0))
        curves[i] = clean + rng.standard_normal(80) * 2e-4
    stack = StrainStack(curves.T.reshape(80, 2, 3), 0.5, "cumulative")
    tc = fit_stack(stack)
    flat_tau = tc.tau_map.ravel()
    flat_conv = tc.converged_mask.ravel()
    for i in range(6):
        f = fit_exponential(t, curves[i])
        assert flat_tau[i] == f.tau  # same engine, bit-identical path
        assert flat_conv[i] == f.converged


def test_fit_stack_clean_round_trip():
    spec = preset("A", width_px=12, height_px=12)
    tc, truth = fit_stack(synth_cumulative(spec)), tau_map(spec)
    assert tc.converged_mask.all()
    rel = np.abs(tc.tau_map - truth) / truth
    assert rel.max() < 1e-6


def test_fit_stack_all_zero_no_convergence():
    stack = StrainStack(np.zeros((50, 4, 4)), 0.5, "cumulative")
    tc = fit_stack(stack)
    assert not tc.converged_mask.any()


def test_cumulate_trivials():
    frames = np.arange(24, dtype=float).reshape(6, 2, 2)
    stack = StrainStack(frames, 0.5, "incremental")
    out = cumulate(stack)
    assert out.kind == "cumulative"
    assert np.array_equal(out.frames, np.cumsum(frames, axis=0))
    one = cumulate(StrainStack(frames[:1], 0.5, "incremental"))
    assert np.array_equal(one.frames, frames[:1])
    zero = cumulate(StrainStack(np.zeros((5, 2, 2)), 0.5, "incremental"))
    assert np.all(zero.frames == 0.0)
    with pytest.raises(ValueError, match="incremental"):
        cumulate(out)


def test_cumulate_matches_cumsum_bitwise():
    # the running sum adds one frame at a time, in order, as this loop does
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((300, 6, 5)) * np.logspace(-8, 2, 30).reshape(1, 6, 5)
    out = cumulate(StrainStack(frames, 0.5, "incremental"))
    running = frames.copy()
    for k in range(1, 300):
        running[k] += running[k - 1]
    assert np.array_equal(out.frames, running)


def test_cumulate_riemann_bound_worst_tau():
    # worst preset time constant (2.26 s): running increments match the
    # closed form minus s(0) within the right-endpoint Riemann error bound
    spec = preset("C", width_px=4, height_px=4)
    eta, gamma, tau = param_maps(spec)
    run = cumulate(synth_incremental(spec))
    closed = synth_cumulative(spec).frames - (eta + gamma)[None]
    err = np.abs(run.frames - closed).max()
    bound = spec.sample_time_s * np.abs(gamma / tau).max()
    assert err <= bound
    # first-order error scale is Ts/(2 tau) ~ 11% of amplitude at tau = 2.26
    assert err < 0.12 * np.abs(gamma).max()


def test_pathological_batch_never_crashes():
    # a single bad pixel must not take down the whole batched solve; the
    # damped normal equations stay nonsingular for every mixture below
    rng = np.random.default_rng(99)
    n = 120
    t = frame_times(n, 0.5)
    curves = np.stack([
        np.full(n, 0.02),                          # constant -> degenerate
        0.02 + 1e-15 * rng.standard_normal(n),     # nearly constant
        rng.standard_normal(n) * 5.0,              # pure wideband noise
        0.02 - 0.01 * np.exp(-t / 14000.0),        # tau past ceiling: eta and
                                                   # gamma columns collinear
        0.02 - 0.01 * np.exp(-t / 0.01),           # decays inside one sample
        np.linspace(-1.0, 1.0, n),                 # linear ramp
        1e12 * (1 - np.exp(-t / 5.0)),             # huge magnitude
        -0.02 + 0.01 * np.exp(-t / 4.0),           # negative steady state
    ])
    stack = StrainStack(curves.T.reshape(n, 2, 4), 0.5, "cumulative")
    tc = fit_stack(stack)
    conv = tc.converged_mask.ravel()
    tau = tc.tau_map.ravel()
    assert np.all(np.isfinite(tau[conv]))
    assert not conv[0]  # constant input cannot constrain tau
    # the huge-magnitude clean curve still lands on the right tau even though
    # the absolute gradient test never fires at that scale
    assert tau[6] == pytest.approx(5.0, rel=1e-6)


def test_monotone_benefit_spline_vs_noisy():
    # median per-pixel |tau error| with spline reconstruction never exceeds
    # the raw degraded fit, across the full (SNR, fraction) grid
    spec = preset("A", width_px=12, height_px=12)
    clean = synth_incremental(spec)
    truth = tau_map(spec)
    for snr in (30.0, 40.0, 60.0):
        for fraction in (0.20, 0.50, 0.75):
            ns = NoiseSpec(base_snr_db=snr, good_frame_fraction=fraction, rng_seed=13)
            mask = place_bad_frames(spec.n_frames, ns)
            degraded = add_noise(clean, mask, ns)
            med = {}
            for name, stack in (("noisy", degraded),
                                ("spline", reconstruct_stack(degraded, mask))):
                tc = fit_stack(cumulate(stack))
                med[name] = np.median(np.abs(tc.tau_map - truth))
            assert med["spline"] <= med["noisy"]


@pytest.fixture(scope="module")
def multi_block_stack():
    """Noisy creep curves spanning three engine blocks, with a constant
    (degenerate) pixel; the noise makes some pixels run all 200 LM
    iterations and clamps others at a tau bound."""
    rng = np.random.default_rng(7)
    n, h, w = 300, 48, 50
    t = frame_times(n, 0.5)
    p = h * w
    eta = rng.uniform(0.01, 0.05, p)
    gamma = -rng.uniform(0.005, 0.02, p)
    tau = rng.uniform(1.0, 20.0, p)
    sigma = rng.uniform(1e-4, 1e-2, p)
    curves = (eta[:, None] + gamma[:, None] * np.exp(-t[None, :] / tau[:, None])
              + sigma[:, None] * rng.standard_normal((p, n)))
    curves[1234] = 0.02
    assert curves.nbytes > 2 * fit_mod._BLOCK_BYTES
    return StrainStack(curves.T.reshape(n, h, w), 0.5, "cumulative")


def test_blocked_stack_fit_matches_single_pixel_fits(multi_block_stack, monkeypatch):
    # every LM operation is row-wise, so a pixel fitted inside a block, in
    # the pooled stragglers or alone gives the same bits, also when the
    # blocks run on several threads (forced here even on a one-CPU machine,
    # with a short switch interval so that the threads interleave often)
    pools = []

    class RecordingPool(fit_mod.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(fit_mod, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(fit_mod, "_CPUS", 3)
    stack = multi_block_stack
    n, h, w = stack.frames.shape
    t = frame_times(n, stack.sample_time_s)
    config = LMConfig()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        eta, gamma, tau, rnorm, iters, conv = fit_rows(
            t, stack.frames.reshape(n, h * w).T, config)
        tc = fit_stack(stack)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [3, 3]
    assert np.array_equal(tc.tau_map.ravel(), tau, equal_nan=True)
    assert np.array_equal(tc.converged_mask.ravel(), conv)
    # the reported residual norm belongs to the reported parameters, also
    # for pixels whose last trial step was rejected
    live = ~np.isnan(tau)
    resid = stack.frames.reshape(n, h * w).T[live] - exp_model(
        t[None, :], eta[live, None], gamma[live, None], tau[live, None])
    np.testing.assert_allclose(rnorm[live], np.sqrt(np.einsum("pn,pn->p", resid, resid)),
                               rtol=1e-12, atol=0)

    floor, ceil = config.resolve_bounds(t)
    slow = np.flatnonzero(iters == config.max_iterations)
    at_bound = np.flatnonzero((tau == floor) | (tau == ceil))
    degenerate = np.flatnonzero(np.isnan(tau))
    assert slow.size and at_bound.size and degenerate.size
    sample = np.concatenate([slow[:2], at_bound[:2], degenerate,
                             np.arange(0, h * w, 151)])
    for i in sample:
        f = fit_exponential(t, stack.frames[:, i // w, i % w], config)
        assert np.array_equal([f.eta, f.gamma, f.tau, f.residual_norm],
                              [eta[i], gamma[i], tau[i], rnorm[i]], equal_nan=True)
        assert (f.iterations, f.converged) == (iters[i], conv[i])


@pytest.mark.parametrize("threads", [1, 2])
def test_fit_of_increments_matches_fit_of_cumulate(multi_block_stack, monkeypatch, threads):
    # the fit sums an incremental stack block by block in cumulate()'s
    # order, so it gives the bits of fitting the cumulative stack; 47 of the
    # 48 rows make 2350 pixels, blocks of 832, 832 and 686
    monkeypatch.setattr(fit_mod, "_CPUS", threads)
    frames = np.diff(multi_block_stack.frames[:, :47], axis=0, prepend=0.0)
    inc = StrainStack(frames, 0.5, "incremental")
    whole = fit_stack(cumulate(inc))
    blocked = fit_stack(inc)
    assert np.array_equal(blocked.tau_map, whole.tau_map, equal_nan=True)
    assert np.array_equal(blocked.converged_mask, whole.converged_mask)
    assert np.array_equal(inc.frames, frames)


def test_fit_of_one_pixel_increments_leaves_the_stack_unchanged():
    # a one-pixel stack's rows are contiguous, yet the fit sums a copy
    inc = StrainStack(np.diff(exp_model(TIMES, 0.02, -0.01, 4.66), prepend=0.0)
                      .reshape(-1, 1, 1), 0.5, "incremental")
    frames = inc.frames.copy()
    tc = fit_stack(inc)
    assert np.array_equal(inc.frames, frames)
    assert np.array_equal(tc.tau_map, fit_stack(cumulate(inc)).tau_map)


def test_fit_stack_halves_match_whole(multi_block_stack):
    stack = multi_block_stack
    whole = fit_stack(stack)
    half = stack.frames.shape[1] // 2
    parts = [fit_stack(StrainStack(frames, stack.sample_time_s, "cumulative"))
             for frames in (stack.frames[:, :half], stack.frames[:, half:])]
    assert np.array_equal(np.vstack([p.tau_map for p in parts]), whole.tau_map,
                          equal_nan=True)
    assert np.array_equal(np.vstack([p.converged_mask for p in parts]),
                          whole.converged_mask)


@pytest.mark.parametrize("max_iterations", [1, fit_mod._FIRST_PHASE - 1,
                                            fit_mod._FIRST_PHASE + 3])
def test_max_iterations_bounds_both_phases(multi_block_stack, max_iterations):
    stack = multi_block_stack
    n = stack.n_frames
    t = frame_times(n, stack.sample_time_s)
    *_, iters, conv = fit_rows(t, stack.frames.reshape(n, -1).T,
                               LMConfig(max_iterations=max_iterations))
    assert iters.max() == max_iterations
    # pixels that never converged ran every allowed iteration (the constant
    # pixel runs none)
    assert set(np.unique(iters[~conv])) == {0, max_iterations}


@pytest.mark.parametrize("threads", [1, 2])
def test_fit_denoises_each_block_with_the_bits_of_the_whole_stack(multi_block_stack, threads):
    # one engine call fits three arms, each (block, arm) pair a task: the
    # noisy arm and two that denoise each of the 3 pixel blocks before the
    # running sum; every arm has the bits of denoising the whole stack, then
    # fitting it, and the source is asked for each block once, in order
    n, h, w = multi_block_stack.frames.shape
    inc = StrainStack(np.diff(multi_block_stack.frames, axis=0, prepend=0.0), 0.5,
                      "incremental")
    frames = inc.frames.copy()
    flat = inc.frames.reshape(n, h * w)
    mask = place_bad_frames(n, NoiseSpec(30.0, 0.2, 4))
    asked = []

    def source(lo, hi):
        asked.append((lo, hi))
        return flat[:, lo:hi]

    fits, seconds = fit_mod._lm_engine(frame_times(n, 0.5), source, h * w, LMConfig(),
                                       [None, smoother(n), interpolator(mask, 0.5)],
                                       incremental=True, threads=threads)
    edges = fit_mod._block_edges(h * w, n)
    assert asked == list(zip(edges[:-1], edges[1:])) and len(asked) == 3
    assert seconds.shape == (3,) and np.all(seconds > 0)
    for (_, _, tau, _, _, conv), denoised in zip(
            fits, (inc, kalman_denoise(inc), reconstruct_stack(inc, mask))):
        whole = fit_stack(cumulate(denoised))
        assert np.array_equal(tau.reshape(h, w), whole.tau_map, equal_nan=True)
        assert np.array_equal(conv.reshape(h, w), whole.converged_mask)
    assert np.array_equal(inc.frames, frames)


def test_source_is_called_once_per_block_in_pixel_order(monkeypatch):
    # a grid source draws each frame's noise through the blocks in pixel
    # order, so the engine asks for block b only after block b - 1, also
    # when four threads take successive blocks of one arm; five fits of 64
    # blocks of 64 pixels, with a short switch interval so that the threads
    # interleave
    monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", 64 * 300 * 8)
    tau = np.linspace(2.0, 9.0, 64 * 64)
    curves = exp_model(TIMES[None, :], 0.02, -0.01, tau[:, None])
    asked = []

    def source(lo, hi):
        asked.append(lo)
        return curves.T[:, lo:hi]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fit_mod._lm_engine(TIMES, source, tau.size, LMConfig(max_iterations=2), threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert asked == list(range(0, 64 * 64, 64)) * 5


def test_arms_claim_each_block_once_in_pixel_order_under_contention(monkeypatch):
    # three arms on four threads, with a short switch interval so that the
    # threads interleave: the source is still asked for each of the 64
    # blocks once, in pixel order, and every arm, its stragglers pooled
    # after 2 iterations, has the bits of that arm fitted alone on one thread
    monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", 64 * 300 * 8)
    monkeypatch.setattr(fit_mod, "_FIRST_PHASE", 2)
    tau = np.linspace(2.0, 9.0, 64 * 64)
    curves = exp_model(TIMES[None, :], 0.02, -0.01, tau[:, None])
    curves += np.random.default_rng(3).normal(0.0, 1e-4, curves.shape)
    inc = np.diff(curves, axis=1, prepend=0.0).T
    mask = place_bad_frames(TIMES.size, NoiseSpec(30.0, 0.2, 4))
    arms = [None, smoother(TIMES.size), interpolator(mask, 0.5)]
    config = LMConfig(max_iterations=6)
    asked = []

    def source(lo, hi):
        asked.append(lo)
        return inc[:, lo:hi]

    alone = [fit_mod._lm_engine(TIMES, lambda lo, hi: inc[:, lo:hi], tau.size, config, [arm],
                                incremental=True, threads=1)[0][0] for arm in arms]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            asked.clear()
            fits, _ = fit_mod._lm_engine(TIMES, source, tau.size, config, arms,
                                         incremental=True, threads=4)
            assert asked == list(range(0, 64 * 64, 64))
            for together, single in zip(fits, alone):
                for a, b in zip(together, single):
                    assert np.array_equal(a, b, equal_nan=True)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2])
def test_fit_runs_blas_on_one_thread_and_restores_it(threads):
    # the Kalman products of two fit threads would each start BLAS threads
    # on the same CPUs, and a product's last bits can depend on BLAS's
    # thread count, so a fit runs BLAS on one thread, whatever its own
    # thread count, and sets the count back when it ends, also when a task
    # raises
    get, set_ = fit_mod._openblas_threads()
    if get() == 0:
        pytest.skip("numpy's OpenBLAS has no thread-count symbols")
    curves = exp_model(TIMES[None, :], 0.02, -0.01, np.linspace(2.0, 9.0, 8)[:, None])
    seen = []

    def recording(block):
        seen.append(get())
        return block

    def failing(block):
        raise ArithmeticError("denoiser failed")

    original = get()
    try:
        set_(2)
        before = get()
        [noisy, recorded], _ = fit_mod._lm_engine(
            TIMES, lambda lo, hi: curves.T[:, lo:hi], 8, LMConfig(), [None, recording],
            threads=threads)
        assert seen == [1] and get() == before
        assert np.array_equal(noisy[2], recorded[2])
        with pytest.raises(ArithmeticError):
            fit_mod._lm_engine(TIMES, lambda lo, hi: curves.T[:, lo:hi], 8, LMConfig(),
                               [None, failing], threads=threads)
        assert get() == before
    finally:
        set_(original)


def test_fit_pool_runs_one_thread_per_task_up_to_the_cpus(monkeypatch):
    # one task, or one thread asked for, runs on the calling thread with no
    # pool; more tasks run on one pool thread each, up to _CPUS threads or
    # the number the caller asks for
    pools, calling = [], []

    class RecordingPool(fit_mod.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(fit_mod, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(fit_mod, "_CPUS", 3)
    for tasks, threads in ((1, None), (2, None), (8, None), (8, 1), (8, 2), (1, 4)):
        with fit_mod._fit_pool(tasks, threads) as run:
            assert list(run(abs, range(-tasks, 0))) == list(range(tasks, 0, -1))
            calling.append(run is map)
    assert pools == [2, 3, 2]
    assert calling == [True, False, False, True, False, True]


def test_overlapping_block_loops_share_one_blas_cap(blas_threads):
    # BLAS's thread count is process-wide, so of two block loops that
    # overlap, the first to start sets it to one and the last to end sets
    # it back: here the loop that starts first also ends first, and both
    # loops see one BLAS thread throughout
    get, set_ = blas_threads
    set_(2)
    before = get()
    stack = StrainStack(np.ones((4, 1, 1)), 0.5, "incremental")
    first_in, second_in, first_done = (threading.Event() for _ in range(3))
    seen, waited = [], []

    def block_map(entered, wait_for):
        def apply(block, out):
            seen.append(get())
            entered.set()
            waited.append(wait_for.wait(10))
            seen.append(get())
            out[...] = block
        return apply

    def first_loop():
        fit_mod._map_blocks(block_map(first_in, second_in), stack)
        first_done.set()

    with ThreadPoolExecutor(1) as pool:
        first = pool.submit(first_loop)
        assert first_in.wait(10)
        fit_mod._map_blocks(block_map(second_in, first_done), stack)
        first.result()
    assert waited == [True, True]
    assert seen == [1, 1, 1, 1] and get() == before


def test_block_loops_on_many_threads_keep_one_blas_cap(blas_threads):
    # eight threads each run 2000 one-block loops that interleave often:
    # every block sees one BLAS thread, and the count is back once all have
    # ended (without the lock, 5 of 6 runs saw a block on two BLAS threads
    # or the cap left on)
    get, set_ = blas_threads
    set_(2)
    before = get()
    stack = StrainStack(np.ones((4, 1, 1)), 0.5, "incremental")
    seen = []

    def apply(block, out):
        seen.append(get())
        out[...] = block

    def loops():
        for _ in range(2000):
            fit_mod._map_blocks(apply, stack)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for future in [pool.submit(loops) for _ in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * 16000 and get() == before


@pytest.mark.parametrize("n_pix", [1, 35, 64, 1092, 1093, 2350, 16383, 16384, 16385])
@pytest.mark.parametrize("block_bytes", [fit_mod._BLOCK_BYTES, 8 * 300 * 8])
def test_block_edges_cover_every_pixel_once_in_aligned_blocks(monkeypatch, n_pix,
                                                              block_bytes):
    monkeypatch.setattr(fit_mod, "_BLOCK_BYTES", block_bytes)
    edges = fit_mod._block_edges(n_pix, 300)
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == n_pix and np.all(sizes > 0)
    assert np.all(sizes[:-1] % fit_mod._BLOCK_ALIGN == 0)
    # the blocks hold the row count of the fewest blocks within the budget
    # on average, rounded up to the alignment
    budget_rows = -(-n_pix // -(-n_pix * 300 * 8 // block_bytes))
    assert budget_rows <= sizes[0] < budget_rows + fit_mod._BLOCK_ALIGN


def test_block_edges_of_a_full_size_stack():
    # 128 x 128 pixels of 300 samples: 14 blocks of 1152 and one of 256
    edges = fit_mod._block_edges(128 * 128, 300)
    assert np.diff(edges).tolist() == [1152] * 14 + [256]


def test_rows_stalled_at_the_damping_cap_stop_with_the_cap_iterations(monkeypatch):
    # frames scaled by 1e306 keep finite running sums (at most 1.5e304), but
    # every squared residual overflows to inf, so every step is rejected and
    # the damping climbs to its cap; a row rejected there would repeat the
    # same iteration up to max_iterations, so it stops with that count
    spec = preset("A", width_px=8, height_px=8)
    stack = StrainStack(synth_incremental(spec).frames * 1e306, spec.sample_time_s,
                        "incremental")
    n = stack.n_frames
    t = frame_times(n, spec.sample_time_s)
    trial = fit_mod._trial
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return trial(*args, **kwargs)
    monkeypatch.setattr(fit_mod, "_trial", counted)
    results, n_calls = {}, {}
    for max_iterations in (40, 200):
        calls.clear()
        results[max_iterations] = fit_rows(
            t, stack.frames.reshape(n, -1).T, LMConfig(max_iterations=max_iterations),
            incremental=True)
        n_calls[max_iterations] = len(calls)
    for cap, (eta, gamma, tau, rnorm, iters, conv) in results.items():
        assert np.all(iters == cap)
        assert not conv.any() and np.all(np.isinf(rnorm))
    # eta, gamma, tau, residual and converged do not depend on the cap
    for short, long in zip(results[40][:4] + results[40][5:], results[200][:4] + results[200][5:]):
        assert np.array_equal(short, long, equal_nan=True)
    # the damping reaches its cap from 1e-3 in 17 rejections, after which
    # each row stops: one start, then a trial and a rebuild per iteration
    assert n_calls[40] == n_calls[200] <= 1 + 2 * 18


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_fit_threads_count_the_cpus_the_process_may_use():
    # a process pinned to one CPU fits on one thread, with no pool, and
    # run_grid caps its workers at one, however many CPUs the machine has
    cpu = min(os.sched_getaffinity(0))
    code = (f"import os; os.sched_setaffinity(0, {{{cpu}}}); from straintc import fit\n"
            "with fit._fit_pool(8) as run: print(fit._CPUS, run is map)")
    path = [os.path.dirname(os.path.dirname(fit_mod.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.split() == ["1", "True"]
