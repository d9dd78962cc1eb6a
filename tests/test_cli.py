import os
import struct

import numpy as np
import pytest

from straintc import phantom, stackio
from straintc.cli import OUT_ENV, main
from straintc.degrade import FrameQualityMask


def run(*args):
    return main(list(args))


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_missing_out_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv(OUT_ENV, raising=False)
    assert run("synth", "--preset", "A") == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_flag_is_usage_error(tmp_path):
    assert run("synth", "--nonsense", "--out", str(tmp_path)) == 1
    assert run("nonsense-command", "--out", str(tmp_path)) == 1


def test_out_env_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv(OUT_ENV, str(tmp_path / "env_out"))
    assert run("synth", "--preset", "A", "--width", "8", "--height", "8",
               "--frames", "20") == 0
    assert (tmp_path / "env_out" / "incremental.stack").exists()


def test_synth_outputs(tmp_path):
    out = tmp_path / "synth"
    assert run("synth", "--preset", "A", "--width", "10", "--height", "10",
               "--frames", "30", "--out", str(out)) == 0
    inc = stackio.read_stack(out / "incremental.stack")
    cum = stackio.read_stack(out / "cumulative.stack")
    assert inc.frames.shape == (30, 10, 10)
    assert inc.kind == "incremental" and cum.kind == "cumulative"
    truth = stackio.read_tc_csv(out / "tau_true.csv")
    assert set(np.unique(truth)) == {4.66, 11.42}
    assert (out / "manifest.txt").exists()
    assert (out / "phantom.cfg").exists()


def test_synth_from_config(tmp_path):
    cfg = tmp_path / "ph.cfg"
    cfg.write_text("preset = B\n")
    out = tmp_path / "o"
    assert run("synth", "--config", str(cfg), "--width", "8", "--height", "8",
               "--frames", "16", "--out", str(out)) == 0
    truth = stackio.read_tc_csv(out / "tau_true.csv")
    assert 2.36 in np.unique(truth)


def full_pipeline(tmp_path, method="spline"):
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "10", "--height", "10", "--out", str(synth))
    deg = tmp_path / "deg"
    assert run("degrade", "--stack", str(synth / "incremental.stack"),
               "--snr-db", "60", "--good-fraction", "0.75", "--seed", "5",
               "--out", str(deg)) == 0
    rec = tmp_path / "rec"
    assert run("reconstruct", "--stack", str(deg / "degraded.stack"),
               "--mask", str(deg / "mask.csv"), "--method", method,
               "--out", str(rec)) == 0
    fit = tmp_path / "fit"
    assert run("fit", "--stack", str(rec / "reconstructed.stack"),
               "--truth", str(synth / "tau_true.csv"), "--out", str(fit)) == 0
    return synth, deg, rec, fit


def test_full_pipeline_spline(tmp_path):
    synth, deg, rec, fit = full_pipeline(tmp_path)
    mask = stackio.read_mask(deg / "mask.csv")
    assert mask.n_good == 225
    tau = stackio.read_tc_csv(fit / "tau_map.csv")
    assert tau.shape == (10, 10)
    rows = read_csv_rows(fit / "pre.csv")
    regions = {r["region"]: float(r["pre_percent"]) for r in rows}
    assert set(regions) == {"inclusion", "background", "whole"}
    assert abs(regions["whole"]) < 5.0
    assert (fit / "tau_map.pgm").exists()
    assert (fit / "tau_map.pgm.bounds.txt").exists()


def test_clean_round_trip_pre_is_tiny(tmp_path):
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "10", "--height", "10", "--out", str(synth))
    fit = tmp_path / "fit"
    assert run("fit", "--stack", str(synth / "cumulative.stack"),
               "--truth", str(synth / "tau_true.csv"), "--out", str(fit)) == 0
    rows = read_csv_rows(fit / "pre.csv")
    for r in rows:
        assert abs(float(r["pre_percent"])) < 1e-4


def test_fit_cumulates_incremental_input(tmp_path):
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--out", str(synth))
    fit = tmp_path / "fit"
    assert run("fit", "--stack", str(synth / "incremental.stack"),
               "--truth", str(synth / "tau_true.csv"), "--out", str(fit)) == 0
    manifest = stackio.read_manifest(fit / "manifest.txt")
    assert manifest["cumulated_input"] == "True"
    rows = read_csv_rows(fit / "pre.csv")
    # the running sum lacks s(0) but that only shifts eta, not tau
    assert abs(float(dict((r["region"], float(r["pre_percent"])) for r in rows)["whole"])) < 0.2


def test_reconstruct_spline_needs_mask(tmp_path, capsys):
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--out", str(synth))
    assert run("reconstruct", "--stack", str(synth / "incremental.stack"),
               "--method", "spline", "--out", str(tmp_path / "r")) == 1


def test_degrade_insufficient_good_frames_is_numerical_error(tmp_path, capsys):
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--out", str(synth))
    code = run("degrade", "--stack", str(synth / "incremental.stack"),
               "--good-fraction", "0.005", "--out", str(tmp_path / "d"))
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_truncated_stack_is_input_error(tmp_path, capsys):
    path = tmp_path / "cut.stack"
    path.write_bytes(b"STRAINSTACK\0\1\0")  # cut inside the header
    assert run("fit", "--stack", str(path), "--out", str(tmp_path / "f")) == 1
    err = capsys.readouterr().err
    assert err.startswith("straintc: input error:")
    assert "truncated stack header" in err
    assert "Traceback" not in err


def test_malformed_grid_manifest_is_input_error(tmp_path, capsys):
    path = tmp_path / "manifest.txt"
    path.write_text("subcommand = grid\nsamples = A\n")
    assert main(["grid", "--from-manifest", str(path), "--out", str(tmp_path / "g")]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_grid_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    assert main(grid_args(tmp_path / "g", **{"--jobs": jobs})) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_demo_outputs(tmp_path):
    out = tmp_path / "demo"
    assert run("demo", "--size", "16", "--seed", "3", "--out", str(out)) == 0
    header = (out / "demo_curves.csv").read_text().splitlines()[0].split(",")
    assert header == ["time_s", "clean", "noisy", "kalman", "spline",
                      "fit_clean", "fit_noisy", "fit_kalman", "fit_spline"]
    fits = read_csv_rows(out / "demo_fits.csv")
    assert [r["arm"] for r in fits] == ["clean", "noisy", "kalman", "spline"]
    clean_tau = float([r for r in fits if r["arm"] == "clean"][0]["tau"])
    assert clean_tau == pytest.approx(4.66, rel=1e-3)
    # the manifest holds the resolved pixel and every set flag but --out
    manifest = stackio.read_manifest(out / "manifest.txt")
    assert manifest == {"subcommand": "demo", "preset": "A", "snr_db": "60.0",
                        "good_fraction": "0.75", "seed": "3", "size": "16", "pixel": "8,8"}


def test_fit_truth_shape_mismatch_is_input_error(tmp_path, capsys):
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--frames", "20",
        "--out", str(synth))
    truth = tmp_path / "truth.csv"
    stackio.write_tc_csv(truth, np.full((2, 2), 4.66))
    assert run("fit", "--stack", str(synth / "cumulative.stack"), "--truth", str(truth),
               "--out", str(tmp_path / "f")) == 1
    err = capsys.readouterr().err
    assert err.startswith("straintc: input error:")
    assert "(2, 2)" in err and "(8, 8)" in err
    assert "Traceback" not in err


def fit_uniform_truth(tmp_path, stack):
    truth = tmp_path / "truth.csv"
    stackio.write_tc_csv(truth, np.full((8, 8), 4.66))
    out = tmp_path / "f"
    assert run("fit", "--stack", str(stack), "--truth", str(truth), "--out", str(out)) == 0
    assert (out / "manifest.txt").exists()
    return out / "pre.csv"


def test_fit_uniform_truth_scores_background_as_whole(tmp_path):
    # a uniform truth map is all background: no inclusion row, and "whole"
    # is the background
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--out", str(synth))
    rows = read_csv_rows(fit_uniform_truth(tmp_path, synth / "cumulative.stack"))
    assert [row.pop("region") for row in rows] == ["background", "whole"]
    assert rows[0] == rows[1]


@pytest.mark.filterwarnings("error")
def test_fit_without_converged_pixels_scores_nan(tmp_path):
    stack = tmp_path / "zero.stack"
    stackio.write_stack(stack, phantom.StrainStack(np.zeros((20, 8, 8)), 0.5, "cumulative"))
    lines = fit_uniform_truth(tmp_path, stack).read_text().splitlines()
    assert lines[1:] == ["background,nan,nan,4.66,0.0", "whole,nan,nan,4.66,0.0"]


def _one_pixel(value):
    truth = np.full((8, 8), 4.66)
    truth[2, 3] = value
    return truth


@pytest.mark.parametrize("truth, message", [
    (_one_pixel(-1.0), "finite and > 0"), (_one_pixel(np.inf), "finite and > 0"),
    (np.zeros((8, 8)), "finite and > 0"), (_one_pixel(np.nan), "finite and > 0"),
    (np.repeat([4.66, 11.42, 2.0], [40, 20, 4]).reshape(8, 8),
     "1 or 2 distinct values, found 3"),
], ids=["negative", "inf", "zeros", "nan", "three_values"])
def test_fit_bad_truth_map_is_input_error(tmp_path, capsys, truth, message):
    synth = tmp_path / "synth"
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--frames", "20",
        "--out", str(synth))
    path = tmp_path / "truth.csv"
    stackio.write_tc_csv(path, truth)
    capsys.readouterr()
    out = tmp_path / "f"
    assert run("fit", "--stack", str(synth / "cumulative.stack"), "--truth", str(path),
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("straintc: input error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("reconstruct", "--method", "spline", "--stack", "{deg}/degraded.stack",
      "--mask", "{short_mask}"), "mask has 10 frames"),
    (("reconstruct", "--method", "spline", "--stack", "{synth}/cumulative.stack",
      "--mask", "{deg}/mask.csv"), "expected an incremental stack"),
    (("degrade", "--stack", "{synth}/cumulative.stack"), "expected an incremental stack"),
    (("fit", "--stack", "{tiny}/cumulative.stack"), "at least 4 frames"),
    (("fit", "--stack", "{tiny}/incremental.stack"), "at least 4 frames"),
    (("degrade", "--stack", "{tiny}/incremental.stack"), "at least 4 frames"),
    (("degrade", "--stack", "{frames_1x4x4}"), "at least 4 frames"),
    *((args, "empty stack") for shape in ("0x4x4", "20x0x4", "20x4x0") for args in (
        ("degrade", "--stack", f"{{frames_{shape}}}"),
        ("fit", "--stack", f"{{frames_{shape}}}"),
        ("reconstruct", "--method", "kalman", "--stack", f"{{frames_{shape}}}"))),
])
@pytest.mark.filterwarnings("error")
def test_input_fault_is_input_error(tmp_path, capsys, args, message):
    dirs = {name: tmp_path / name for name in ("synth", "deg", "tiny")}
    dirs["frames_1x4x4"] = tmp_path / "1x4x4.stack"
    stackio.write_stack(dirs["frames_1x4x4"],
                        phantom.StrainStack(np.zeros((1, 4, 4)), 0.5, "incremental"))
    for shape in ("0x4x4", "20x0x4", "20x4x0"):
        # StrainStack refuses empty stacks, so their files are written by hand
        dirs[f"frames_{shape}"] = path = tmp_path / f"{shape}.stack"
        sizes = tuple(int(size) for size in shape.split("x"))
        path.write_bytes(stackio.MAGIC + struct.pack("<IIIIdB", stackio.VERSION, *sizes, 0.5, 0))
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--frames", "20",
        "--out", str(dirs["synth"]))
    run("synth", "--preset", "A", "--width", "8", "--height", "8", "--frames", "3",
        "--out", str(dirs["tiny"]))
    run("degrade", "--stack", str(dirs["synth"] / "incremental.stack"),
        "--out", str(dirs["deg"]))
    dirs["short_mask"] = tmp_path / "short_mask.csv"
    stackio.write_mask(dirs["short_mask"], FrameQualityMask(np.ones(10, bool)))
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(*(a.format(**dirs) for a in args), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("straintc: input error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_demo_pixel_bounds(tmp_path):
    assert run("demo", "--size", "16", "--pixel", "99,0", "--out", str(tmp_path / "x")) == 1


def test_demo_too_few_good_frames_fails_before_out(tmp_path, capsys):
    # 1% of 300 frames leaves 3 good ones, fewer than the spline's knots
    out = tmp_path / "x"
    assert run("demo", "--size", "8", "--good-fraction", "0.01", "--out", str(out)) == 2
    assert "insufficient good frames" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_is_resource_failure(tmp_path, monkeypatch, capsys):
    def no_memory(spec):
        raise MemoryError(f"Unable to allocate {spec.width_px}x{spec.height_px} maps")

    monkeypatch.setattr(phantom, "synth_incremental", no_memory)
    assert run("synth", "--preset", "A", "--width", "100000", "--height", "100000",
               "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("straintc: out of memory:") and "100000x100000" in err
    assert "Traceback" not in err


def grid_args(out, **over):
    base = {"--samples": "A", "--snrs": "60", "--fractions": "0.75",
            "--trials": "1", "--seed": "4", "--size": "8", "--out": str(out)}
    base.update({k: str(v) for k, v in over.items()})
    args = ["grid"]
    for key, value in base.items():
        args.extend([key, value])
    return args


def test_grid_outputs_and_manifest_rerun(tmp_path):
    out1 = tmp_path / "g1"
    assert main(grid_args(out1)) == 0
    csv1 = (out1 / "grid.csv").read_bytes()
    table = (out1 / "table_A.txt").read_text()
    assert table.startswith("Sample A")
    timing = read_csv_rows(out1 / "grid_timing.csv")
    assert {r["method"] for r in timing} == {"noisy", "kalman", "spline"}
    assert all(float(r["wall_time_s"]) > 0 for r in timing)

    # rerun from the recorded manifest: byte-identical CSV and tables
    out2 = tmp_path / "g2"
    assert main(["grid", "--from-manifest", str(out1 / "manifest.txt"),
                 "--out", str(out2)]) == 0
    assert (out2 / "grid.csv").read_bytes() == csv1
    assert (out2 / "table_A.txt").read_text() == table


def test_grid_manifest_records_snrs_exactly(tmp_path):
    out = tmp_path / "g"
    assert main(grid_args(out, **{"--snrs": "33.3333333", "--methods": "noisy"})) == 0
    assert stackio.read_manifest(out / "manifest.txt")["snrs"] == "33.3333333"
    rerun = tmp_path / "rerun"
    assert main(["grid", "--from-manifest", str(out / "manifest.txt"),
                 "--out", str(rerun)]) == 0
    assert (rerun / "grid.csv").read_bytes() == (out / "grid.csv").read_bytes()


def test_grid_emit_maps(tmp_path):
    out = tmp_path / "g3"
    assert main(["grid", "--samples", "A", "--methods", "noisy", "--snrs", "60",
                 "--fractions", "0.75", "--trials", "1", "--seed", "4",
                 "--size", "8", "--emit-maps", "--out", str(out)]) == 0
    maps = sorted(os.listdir(out / "maps"))
    assert "tc_A_noisy_snr60_pgf75.csv" in maps
    assert "tc_A_noisy_snr60_pgf75.pgm" in maps


def test_synth_and_degrade_reruns_are_byte_identical(tmp_path):
    # every run's manifest records the resolved config; re-running it
    # reproduces the outputs byte for byte
    outs = []
    for name in ("a", "b"):
        synth = tmp_path / f"synth_{name}"
        run("synth", "--preset", "B", "--width", "8", "--height", "8",
            "--frames", "40", "--out", str(synth))
        deg = tmp_path / f"deg_{name}"
        run("degrade", "--stack", str(synth / "incremental.stack"),
            "--snr-db", "40", "--good-fraction", "0.5", "--seed", "9",
            "--out", str(deg))
        outs.append((synth, deg))
    (synth_a, deg_a), (synth_b, deg_b) = outs
    for fname in ("incremental.stack", "cumulative.stack", "tau_true.csv",
                  "phantom.cfg", "manifest.txt"):
        assert (synth_a / fname).read_bytes() == (synth_b / fname).read_bytes()
    for fname in ("degraded.stack", "mask.csv"):
        assert (deg_a / fname).read_bytes() == (deg_b / fname).read_bytes()
    # the degrade manifests differ only in the recorded input path
    strip = lambda p: [ln for ln in (p / "manifest.txt").read_text().splitlines()
                       if not ln.startswith("stack =")]
    assert strip(deg_a) == strip(deg_b)


def test_grid_csv_columns(tmp_path):
    out = tmp_path / "g"
    assert main(grid_args(out)) == 0
    rows = read_csv_rows(out / "grid.csv")
    assert set(rows[0]) == {"sample", "method", "snr_db", "good_fraction",
                            "region", "pre_mean", "pre_std", "coverage"}
    assert len(rows) == 3 * 3  # methods x regions


@pytest.mark.parametrize("flag, value", [("--samples", "Z"), ("--samples", "AB"),
                                         ("--samples", "A,Z"), ("--methods", "foo"),
                                         ("--kalman-window", "0"),
                                         ("--kalman-ratio", "0"), ("--kalman-ratio", "-1"),
                                         ("--kalman-ratio", "nan"), ("--kalman-ratio", "inf"),
                                         ("--trials", "0"), ("--size", "0"),
                                         ("--fractions", "1.5"), ("--fractions", "0.5,0"),
                                         ("--fractions", "nan"), ("--lm-max-iter", "0"),
                                         ("--lm-tol", "0"), ("--lm-tol", "-1"),
                                         ("--snrs", "nan"), ("--snrs", "inf"),
                                         ("--snrs", "30,-inf"), ("--snrs", "-5"),
                                         ("--snrs", "0"), ("--snrs", "30,-5"), ("--seed", "-1"),
                                         ("--samples", "A,A"), ("--snrs", "30,30.0"),
                                         ("--methods", "noisy,noisy"), ("--samples", ","),
                                         ("--methods", ","), ("--fractions", ",")])
def test_bad_grid_flag_value_is_usage_error(tmp_path, capsys, flag, value):
    assert main(grid_args(tmp_path / "g", **{flag: value})) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("args", [
    ("synth", "--preset", "A", "--width", "-3"), ("synth", "--preset", "A", "--height", "0"),
    ("synth", "--preset", "A", "--frames", "0"), ("synth", "--preset", "A", "--frames", "2"),
    ("synth", "--preset", "A", "--sample-time-s", "0"),
    ("degrade", "--stack", "none.stack", "--good-fraction", "1.5"),
    ("degrade", "--stack", "none.stack", "--snr-db", "nan"),
    ("degrade", "--stack", "none.stack", "--snr-db", "-5"),
    ("degrade", "--stack", "none.stack", "--snr-db", "inf"),
    ("degrade", "--stack", "none.stack", "--seed", "-1"),
    ("degrade", "--stack", "none.stack", "--snr-db", "5", "--bad-snr-db", "10"),
    ("fit", "--stack", "none.stack", "--lm-max-iter", "0"),
    ("fit", "--stack", "none.stack", "--lm-tol", "nan"),
    ("fit", "--stack", "none.stack", "--lm-tol", "inf"),
    ("demo", "--size", "0"), ("demo", "--good-fraction", "0"), ("demo", "--seed", "-1"),
    ("demo", "--snr-db", "nan"), ("demo", "--snr-db", "0"),
    ("demo", "--pixel", "x,y"), ("demo", "--pixel", "3"), ("demo", "--pixel", "1,2,3")])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "o"
    assert run(*args, "--out", str(out)) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


CONFIG = "".join(f"{key} = {value}\n" for key, value in phantom.spec_entries(
    phantom.preset("A", width_px=8, height_px=8, n_frames=20)).items())


def test_setting_the_manifest_cannot_record_is_input_error(tmp_path, capsys):
    # manifest.txt would read 'x#y.cfg' back as 'x', so it is refused
    # before the command writes anything
    config = tmp_path / "x#y.cfg"
    config.write_text(CONFIG)
    out = tmp_path / "o"
    assert run("synth", "--config", str(config), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "input error: cannot record config = " in err and "x#y.cfg" in err
    assert not out.exists()


NON_FINITE_CONFIGS = [
    pytest.param(CONFIG.replace(f"{key} = {value}", f"{key} = {bad}").encode(), id=f"{key}={bad}")
    for key, value, bad in [("field_width_m", "0.04", "nan"), ("sample_time_s", "0.5", "inf"),
                            ("applied_stress_kpa", "1.0", "nan"),
                            ("inclusion.tau", "4.66", "inf")]]


@pytest.mark.parametrize("text", [b"width_px = abc\n", b"nonsense line\n", b"preset = Z\n",
                                  b"preset = a\n",
                                  b"preset = A\nwidth_px = 8\n", b"\xff\xfe = 1\n",
                                  *NON_FINITE_CONFIGS])
def test_malformed_phantom_config_is_input_error(tmp_path, capsys, text):
    cfg = tmp_path / "ph.cfg"
    cfg.write_bytes(text)
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("straintc: input error:") and str(cfg) in err


@pytest.mark.parametrize("flag, value", [("--kalman-window", "0"), ("--kalman-ratio", "0"),
                                         ("--kalman-ratio", "nan"),
                                         ("--kalman-ratio", "inf"), ("--mask", "m.csv")])
def test_bad_reconstruct_kalman_flag_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "r"
    assert run("reconstruct", "--stack", str(tmp_path / "none.stack"), "--method", "kalman",
               flag, value, "--out", str(out)) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


GRID_MANIFEST = {"subcommand": "grid", "samples": "A", "methods": "noisy", "snrs": "60",
                 "fractions": "0.75", "trials": "1", "seed": "4", "size": "8",
                 "kalman_window": "13", "kalman_ratio": "0.01", "lm_max_iter": "200",
                 "lm_tol": "1e-10", "emit_maps": "False"}


@pytest.mark.parametrize("key, value", [("samples", "Z"), ("samples", "AB"),
                                        ("methods", "foo"), ("kalman_window", "0"),
                                        ("kalman_ratio", "nan"), ("trials", "0"),
                                        ("size", "-1"), ("fractions", "0.5,1.5"),
                                        ("lm_max_iter", "0"), ("lm_tol", "inf"),
                                        ("snrs", "nan"), ("snrs", "60,inf"),
                                        ("snrs", "-5"), ("snrs", "0"),
                                        ("seed", "-1"), ("emit_maps", "yes"),
                                        ("samples", "A,A"), ("methods", ",")])
def test_bad_grid_manifest_value_is_input_error(tmp_path, capsys, key, value):
    path = tmp_path / "manifest.txt"
    stackio.write_manifest(path, {**GRID_MANIFEST, key: value})
    out = tmp_path / "g"
    assert main(["grid", "--from-manifest", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("straintc: input error:") and key in err
    assert not (out / "grid.csv").exists()


def test_grid_manifest_duplicate_key_is_input_error(tmp_path, capsys):
    path = tmp_path / "manifest.txt"
    path.write_text("subcommand = grid\ntrials = 1\ntrials = 2\n" + "".join(
        f"{key} = {value}\n" for key, value in GRID_MANIFEST.items()
        if key not in ("subcommand", "trials")))
    out = tmp_path / "g"
    assert main(["grid", "--from-manifest", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("straintc: input error:")
    assert "line 3: duplicate key 'trials'" in err
    assert not out.exists()


def test_grid_kalman_ratio_is_recorded_and_rerun(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(grid_args(out, **{"--methods": "kalman", "--kalman-ratio": "0.05"})) == 0
    manifest = stackio.read_manifest(out / "manifest.txt")
    assert manifest["kalman_ratio"] == "0.05"
    assert "kalman_q" not in manifest and "kalman_r" not in manifest
    default = tmp_path / "default"
    assert main(grid_args(default, **{"--methods": "kalman"})) == 0
    assert (default / "grid.csv").read_bytes() != (out / "grid.csv").read_bytes()

    rerun = tmp_path / "rerun"
    assert main(["grid", "--from-manifest", str(out / "manifest.txt"),
                 "--out", str(rerun)]) == 0
    assert (rerun / "grid.csv").read_bytes() == (out / "grid.csv").read_bytes()

    # a manifest from before the ratio flag records two variances instead
    old = tmp_path / "old_manifest.txt"
    del manifest["kalman_ratio"]
    stackio.write_manifest(old, {**manifest, "kalman_q": "auto", "kalman_r": "auto"})
    capsys.readouterr()
    assert main(["grid", "--from-manifest", str(old), "--out", str(tmp_path / "o")]) == 1
    assert "lacks 'kalman_ratio'" in capsys.readouterr().err
