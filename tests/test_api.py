import straintc

# The public surface is pinned so that any change to it shows up as an edit
# of this list; it is meant to shrink, not grow.
PUBLIC_NAMES = {
    "CubicSpline", "DetectorConfig", "ExpFit", "FrameQualityMask",
    "GridResult", "KalmanSpec", "LMConfig", "NoiseSpec", "PhantomSpec",
    "PREResult", "RegionParams", "StrainStack", "TCImage",
    "add_noise", "build_natural_spline", "compute_pre", "cumulate",
    "detect_bad_frames", "eval_spline", "exp_model", "fit_exponential",
    "fit_stack", "format_grid_table", "frame_times", "inclusion_mask", "jacobian",
    "initial_guess", "kalman_denoise", "kalman_denoise_series", "param_maps",
    "place_bad_frames", "preset", "reconstruct_stack", "run_grid",
    "synth_cumulative", "synth_incremental", "tau_map",
}


def test_public_names_are_pinned():
    assert len(straintc.__all__) == len(set(straintc.__all__)) == 37
    assert set(straintc.__all__) == PUBLIC_NAMES
    assert all(hasattr(straintc, name) for name in straintc.__all__)
