import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straintc.phantom import (PhantomSpec, RegionParams, frame_times, param_maps,
                              preset, spec_entries, spec_from_entries,
                              synth_cumulative, synth_incremental, tau_map)

# independently computed with 40-digit arithmetic:
# (0.01/4.66) * exp(-0.5/4.66) * 0.5
INCREMENT_N1 = 9.637978813129746e-4
ETA_A_INCLUSION = 0.02033760423022168  # 1 kPa / 49.17 kPa


def test_preset_parameters():
    a, b, c = preset("A"), preset("B"), preset("C")
    assert (a.inclusion.tau, a.background.tau) == (4.66, 11.42)
    assert (b.inclusion.tau, b.background.tau) == (2.36, 11.42)
    assert (c.inclusion.tau, c.background.tau) == (2.26, 3.08)
    assert a.inclusion.young_modulus == 49.17
    assert a.background.young_modulus == 32.78
    assert b.inclusion.poisson_ratio == 0.45
    assert c.background.poisson_ratio == 0.49
    # default amplitudes: eta = stress/E, gamma = -eta/2
    assert a.inclusion.eta == pytest.approx(ETA_A_INCLUSION, rel=1e-12)
    assert a.inclusion.gamma == pytest.approx(-ETA_A_INCLUSION / 2, rel=1e-12)


def test_preset_defaults_match_protocol():
    spec = preset("A")
    assert (spec.width_px, spec.height_px) == (128, 128)
    assert spec.n_frames == 300
    assert spec.sample_time_s == 0.5
    assert spec.duration_s == 150.0
    assert spec.field_width_m == 0.04
    assert spec.inclusion_radius_m == 0.0075
    assert spec.applied_stress_kpa == 1.0


def test_region_validation():
    with pytest.raises(ValueError):
        RegionParams(young_modulus=10, poisson_ratio=0.45, tau=-1, eta=0.02, gamma=-0.01)
    with pytest.raises(ValueError):
        RegionParams(young_modulus=10, poisson_ratio=0.6, tau=1, eta=0.02, gamma=-0.01)
    with pytest.raises(ValueError):
        RegionParams(young_modulus=-10, poisson_ratio=0.45, tau=1, eta=0.02, gamma=-0.01)
    with pytest.raises(ValueError):
        RegionParams(young_modulus=10, poisson_ratio=0.45, tau=1, eta=0.01, gamma=-0.02)


def test_spec_validation():
    with pytest.raises(ValueError):
        preset("A", n_frames=2)
    with pytest.raises(ValueError):
        preset("A", inclusion_radius_m=0.03)  # sticks out of the 4 cm field
    with pytest.raises(ValueError):
        preset("D")
    with pytest.raises(ValueError, match="unknown preset 'a'"):
        preset("a")
    for name in ("width_px", "height_px", "n_frames"):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 32.5"):
            preset("A", **{name: 32.5})
    assert preset("A", width_px=np.int64(32)) == preset("A", width_px=32)


def test_tau_map_center_and_corner():
    m = tau_map(preset("A"))
    assert m[64, 64] == 4.66
    assert m[0, 0] == 11.42
    assert m[0, -1] == 11.42


def test_tau_map_two_values_hard_boundary():
    m = tau_map(preset("B"))
    assert set(np.unique(m)) == {2.36, 11.42}


def test_tau_map_degenerate_inclusion():
    m = tau_map(preset("A", inclusion_radius_m=0.0))
    assert np.all(m == 11.42)


def test_synth_incremental_value():
    spec = preset("A", width_px=4, height_px=4)
    # corner pixel is background: tau 11.42, gamma = -eta_b/2
    stack = synth_incremental(spec)
    gamma_b = spec.background.gamma
    expected = -(gamma_b / 11.42) * np.exp(-0.5 / 11.42) * 0.5
    assert stack.frames[0, 0, 0] == pytest.approx(expected, rel=1e-14)


def test_synth_incremental_frozen_oracle_value():
    # gamma = -0.01, tau = 4.66, Ts = 0.5, n = 1
    region = RegionParams(young_modulus=49.17, poisson_ratio=0.45, tau=4.66,
                          eta=0.02, gamma=-0.01)
    spec = PhantomSpec(inclusion=region, background=region,
                       width_px=2, height_px=2, n_frames=4)
    stack = synth_incremental(spec)
    assert stack.frames[0, 0, 0] == pytest.approx(INCREMENT_N1, rel=1e-13)


@pytest.mark.parametrize("sample", ["A", "B", "C"])
def test_synth_incremental_equals_whole_stack_expression(sample):
    # built in place in its output array, with the bits of the expression
    spec = preset(sample, width_px=24, height_px=20, n_frames=50)
    eta, gamma, tau = param_maps(spec)
    t = frame_times(spec.n_frames, spec.sample_time_s)
    decay = np.exp(-t[:, None, None] / tau[None])
    expected = -(gamma[None] / tau[None]) * decay * spec.sample_time_s
    assert np.array_equal(synth_incremental(spec).frames, expected)


def test_synth_incremental_zero_gamma():
    region = RegionParams(young_modulus=10, poisson_ratio=0.4, tau=5.0, eta=0.02, gamma=0.0)
    spec = PhantomSpec(inclusion=region, background=region, width_px=2, height_px=2)
    assert np.all(synth_incremental(spec).frames == 0.0)


def test_synth_incremental_decays_to_zero(small_spec):
    frames = synth_incremental(small_spec).frames
    # n*Ts = 150 s >> tau (13 background time constants): increments vanish
    assert np.all(np.abs(frames[-1]) < 1e-5 * np.abs(frames[0]).max())


def test_synth_cumulative_steady_state(small_spec):
    eta, gamma, tau = param_maps(small_spec)
    frames = synth_cumulative(small_spec).frames
    gap = np.abs(gamma) * np.exp(-small_spec.duration_s / tau)  # residual transient
    assert np.all(np.abs(frames[-1] - eta) <= gap + 1e-15)
    assert gap.max() < 1e-7


def test_synth_cumulative_closed_form(small_spec):
    eta, gamma, tau = param_maps(small_spec)
    frames = synth_cumulative(small_spec).frames
    t1 = small_spec.sample_time_s
    assert np.array_equal(frames[0], eta + gamma * np.exp(-t1 / tau))


def test_running_sum_matches_closed_form():
    # cumulate(incremental) + s(0) approximates the closed form with a
    # Riemann-sum error bounded by Ts * max|rate| that shrinks with Ts
    spec = preset("A", width_px=4, height_px=4)
    eta, gamma, tau = param_maps(spec)
    s0 = eta + gamma

    def max_err(n_frames, ts):
        sp = preset("A", width_px=4, height_px=4, n_frames=n_frames, sample_time_s=ts)
        run = np.cumsum(synth_incremental(sp).frames, axis=0) + s0[None]
        return np.abs(run - synth_cumulative(sp).frames).max()

    err_coarse = max_err(300, 0.5)
    err_fine = max_err(30000, 0.005)
    bound = 0.5 * np.abs(gamma / tau).max()
    assert err_coarse <= bound
    assert err_fine <= err_coarse / 50  # first-order shrinkage with Ts


def test_refinement_bit_comparable():
    # doubling n_frames while halving Ts reproduces common instants
    a = preset("A", width_px=4, height_px=4, n_frames=100, sample_time_s=0.3)
    b = preset("A", width_px=4, height_px=4, n_frames=200, sample_time_s=0.15)
    ca, cb = synth_cumulative(a).frames, synth_cumulative(b).frames
    assert np.allclose(ca, cb[1::2], rtol=1e-12, atol=0)


@settings(max_examples=50, deadline=None)
@given(tau=st.floats(2.0, 50.0), eta=st.floats(0.001, 0.1), frac=st.floats(0.1, 0.99))
def test_cumulative_monotone_for_negative_gamma(tau, eta, frac):
    region = RegionParams(young_modulus=10, poisson_ratio=0.4, tau=tau,
                          eta=eta, gamma=-frac * eta)
    spec = PhantomSpec(inclusion=region, background=region,
                       width_px=2, height_px=2, n_frames=50)
    frames = synth_cumulative(spec).frames[:, 0, 0]
    assert np.all(np.diff(frames) > 0)
    assert np.all(frames < eta)


def test_frame_times():
    t = frame_times(4, 0.5)
    assert np.array_equal(t, [0.5, 1.0, 1.5, 2.0])


def test_config_round_trip():
    spec = preset("B", width_px=32, height_px=24)
    assert spec_from_entries(spec_entries(spec)) == spec


def test_config_preset_line():
    assert spec_from_entries({"preset": "C"}) == preset("C")


def test_config_defaults_eta_gamma():
    # a minimal two-region phantom, values as a config file holds them
    spec = spec_from_entries({
        "applied_stress_kpa": "2.0",
        "inclusion.young_modulus": "50.0", "inclusion.poisson_ratio": "0.45",
        "inclusion.tau": "4.0",
        "background.young_modulus": "25.0", "background.poisson_ratio": "0.47",
        "background.tau": "10.0"})
    assert spec.inclusion.eta == pytest.approx(2.0 / 50.0)
    assert spec.background.gamma == pytest.approx(-0.5 * 2.0 / 25.0)


def test_config_rejects_unknown_keys():
    good = spec_entries(preset("A"))
    with pytest.raises(ValueError, match="unknown config keys"):
        spec_from_entries({**good, "mystery_knob": "3"})
    with pytest.raises(ValueError, match="abc"):
        spec_from_entries({**good, "width_px": "abc"})
    with pytest.raises(ValueError, match="pixel dimensions"):
        spec_from_entries({**good, "width_px": "0"})
