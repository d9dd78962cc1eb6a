"""Batch command-line front end.

Subcommands:
    synth        write clean incremental + cumulative stacks for a phantom
    degrade      add SNR-controlled noise and bad frames to a stack
    reconstruct  repair a degraded stack with the spline or Kalman method
    fit          fit the creep model per pixel and write the TC image
    grid         run the full Monte-Carlo comparison grid
    demo         one end-to-end cell; writes per-pixel curve data for plotting

Exit codes: 0 success, 1 usage or input error (bad flags, unreadable or
malformed input files), 2 numerical or resource failure (such as running
out of memory).  Every run writes
a manifest.txt with the resolved configuration; `grid --from-manifest` reruns
a recorded configuration and reproduces its CSV outputs byte-identically on
the same platform.  The default output directory may be set with the
STRAINTC_OUT environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import evaluate, fit as fit_mod, phantom, stackio
from .degrade import NoiseSpec, add_noise, place_bad_frames
from .kalman import KalmanSpec, kalman_denoise
from .spline import reconstruct_stack

OUT_ENV = "STRAINTC_OUT"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _number(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _finite_float(text):
    value = _number(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text):
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _fraction(text):
    value = _number(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


def _pixel(text):
    try:
        row, col = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected row,col integers, got {text!r}") from None
    return row, col


def _csv_list(cast, choices=None):
    def parse(text):
        values = tuple(cast(part) for part in text.split(",") if part)
        unknown = [v for v in values if choices is not None and v not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {unknown[0]!r} (choose from {', '.join(choices)})")
        return values
    return parse


# parsers of the grid settings, shared by the flags and `grid --from-manifest`
_GRID_FIELDS = {
    "samples": _csv_list(str, phantom.PRESET_NAMES),
    "methods": _csv_list(str, evaluate.METHODS),
    "snrs": _csv_list(_finite_float),
    "fractions": _csv_list(_fraction),
    "trials": _positive_int,
    "seed": int,
    "size": _positive_int,
    "kalman_window": _positive_int,
    "kalman_ratio": _positive_float,
    "lm_max_iter": _positive_int,
    "lm_tol": _positive_float,
    "emit_maps": lambda text: text == "True",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="straintc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p):
        p.add_argument("--out", default=os.environ.get(OUT_ENV),
                       help=f"output directory (default: ${OUT_ENV})")

    p = sub.add_parser("synth", help="write clean strain stacks for a phantom")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=phantom.PRESET_NAMES, help="built-in sample preset")
    src.add_argument("--config", help="phantom config file (key = value lines)")
    p.add_argument("--width", type=_positive_int, help="override width in pixels")
    p.add_argument("--height", type=_positive_int, help="override height in pixels")
    p.add_argument("--frames", type=_positive_int, help="override frame count")
    p.add_argument("--sample-time-s", type=_positive_float, help="override sampling time")
    add_out(p)

    p = sub.add_parser("degrade", help="corrupt an incremental stack")
    p.add_argument("--stack", required=True, help="input incremental stack file")
    p.add_argument("--snr-db", type=float, default=30.0, help="base SNR of good frames")
    p.add_argument("--bad-snr-db", type=float, default=0.0, help="SNR of bad frames")
    p.add_argument("--good-fraction", type=_fraction, default=0.75,
                   help="fraction of frames kept good")
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    p = sub.add_parser("reconstruct", help="denoise or reconstruct a degraded stack")
    p.add_argument("--stack", required=True, help="input degraded incremental stack")
    p.add_argument("--method", choices=("spline", "kalman"), required=True)
    p.add_argument("--mask", help="frame quality mask CSV (required for spline)")
    p.add_argument("--kalman-window", type=_positive_int, default=13)
    p.add_argument("--kalman-ratio", type=_positive_float, default=0.01,
                   help="process to measurement noise variance ratio Q/R")
    add_out(p)

    p = sub.add_parser("fit", help="fit the creep model and write the TC image")
    p.add_argument("--stack", required=True,
                   help="input stack; incremental input is cumulated first")
    p.add_argument("--truth", help="ground-truth tau map CSV for PRE output")
    p.add_argument("--lm-max-iter", type=_positive_int, default=200)
    p.add_argument("--lm-tol", type=_positive_float, default=1e-10)
    add_out(p)

    p = sub.add_parser("grid", help="run the Monte-Carlo comparison grid")
    p.add_argument("--samples", type=_GRID_FIELDS["samples"], default=("A", "B", "C"))
    p.add_argument("--methods", type=_GRID_FIELDS["methods"], default=evaluate.METHODS)
    p.add_argument("--snrs", type=_GRID_FIELDS["snrs"], default=evaluate.DEFAULT_SNRS)
    p.add_argument("--fractions", type=_GRID_FIELDS["fractions"],
                   default=evaluate.DEFAULT_FRACTIONS)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_positive_int, default=128,
                   help="phantom resolution; 32 is the reduced CI mode")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes (capped at the CPU and cell counts)")
    p.add_argument("--kalman-window", type=_positive_int, default=13)
    p.add_argument("--kalman-ratio", type=_positive_float, default=0.01,
                   help="process to measurement noise variance ratio Q/R")
    p.add_argument("--lm-max-iter", type=_positive_int, default=200)
    p.add_argument("--lm-tol", type=_positive_float, default=1e-10)
    p.add_argument("--emit-maps", action="store_true",
                   help="write TC maps (CSV + PGM) for the first trial of each cell")
    p.add_argument("--from-manifest",
                   help="rerun a recorded grid configuration (other grid flags ignored)")
    add_out(p)

    p = sub.add_parser("demo", help="one end-to-end cell with per-pixel curve output")
    p.add_argument("--preset", choices=phantom.PRESET_NAMES, default="A")
    p.add_argument("--snr-db", type=float, default=60.0)
    p.add_argument("--good-fraction", type=_fraction, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_positive_int, default=128)
    p.add_argument("--pixel", type=_pixel,
                   help="row,col of the plotted pixel (default: center)")
    add_out(p)

    return parser


def _ensure_outdir(args):
    if not args.out:
        raise UsageError(f"missing output directory: pass --out or set ${OUT_ENV}")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _path(outdir, name):
    return os.path.join(outdir, name)


def _write_manifest(outdir, entries):
    stackio.write_manifest(_path(outdir, "manifest.txt"), entries)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args):
    if args.preset:
        spec = phantom.preset(args.preset)
    else:
        spec = phantom.spec_from_config_file(args.config)
    overrides = {}
    if args.width:
        overrides["width_px"] = args.width
    if args.height:
        overrides["height_px"] = args.height
    if args.frames:
        overrides["n_frames"] = args.frames
    if args.sample_time_s:
        overrides["sample_time_s"] = args.sample_time_s
    if overrides:
        from dataclasses import replace
        try:
            spec = replace(spec, **overrides)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    outdir = _ensure_outdir(args)
    stackio.write_stack(_path(outdir, "incremental.stack"), phantom.synth_incremental(spec))
    stackio.write_stack(_path(outdir, "cumulative.stack"), phantom.synth_cumulative(spec))
    stackio.write_tc_csv(_path(outdir, "tau_true.csv"), phantom.tau_map(spec))
    with open(_path(outdir, "phantom.cfg"), "w", encoding="utf-8") as fh:
        fh.write(phantom.spec_to_config_text(spec))
    _write_manifest(outdir, {"subcommand": "synth",
                             "preset": args.preset or "",
                             "config": args.config or "",
                             **{k: v for k, v in overrides.items()}})
    print(f"wrote clean stacks for {spec.width_px}x{spec.height_px}x{spec.n_frames} phantom to {outdir}")
    return 0


def _cmd_degrade(args):
    outdir = _ensure_outdir(args)
    stack = stackio.read_stack(args.stack)
    spec = NoiseSpec(base_snr_db=args.snr_db, bad_frame_snr_db=args.bad_snr_db,
                     good_frame_fraction=args.good_fraction, rng_seed=args.seed)
    mask = place_bad_frames(stack.n_frames, spec)
    degraded = add_noise(stack, mask, spec)
    stackio.write_stack(_path(outdir, "degraded.stack"), degraded)
    stackio.write_mask(_path(outdir, "mask.csv"), mask)
    _write_manifest(outdir, {"subcommand": "degrade", "stack": args.stack,
                             "snr_db": args.snr_db, "bad_snr_db": args.bad_snr_db,
                             "good_fraction": args.good_fraction, "seed": args.seed})
    print(f"degraded {stack.n_frames} frames ({mask.n_frames - mask.n_good} bad) to {outdir}")
    return 0


def _cmd_reconstruct(args):
    outdir = _ensure_outdir(args)
    stack = stackio.read_stack(args.stack)
    if args.method == "spline":
        if not args.mask:
            raise UsageError("--method spline requires --mask")
        mask = stackio.read_mask(args.mask)
        result = reconstruct_stack(stack, mask)
    else:
        spec = KalmanSpec(window_len=args.kalman_window, process_ratio=args.kalman_ratio)
        result = kalman_denoise(stack, spec)
    stackio.write_stack(_path(outdir, "reconstructed.stack"), result)
    _write_manifest(outdir, {"subcommand": "reconstruct", "stack": args.stack,
                             "method": args.method, "mask": args.mask or "",
                             "kalman_window": args.kalman_window,
                             "kalman_ratio": args.kalman_ratio})
    print(f"reconstructed stack ({args.method}) written to {outdir}")
    return 0


def _regions_from_truth(truth):
    """Split a piecewise-constant truth map into (inclusion, background).

    The inclusion is the unique tau value covering fewer pixels (ties break
    toward the smaller tau); a uniform map is all background.
    """
    values, counts = np.unique(truth, return_counts=True)
    if values.size == 1:
        return np.zeros(truth.shape, dtype=bool)
    if values.size != 2:
        raise ValueError(f"truth map must hold 1 or 2 distinct values, found {values.size}")
    inclusion_value = values[np.argmin(counts)]
    return truth == inclusion_value


def _cmd_fit(args):
    outdir = _ensure_outdir(args)
    stack = stackio.read_stack(args.stack)
    if stack.kind == "incremental":
        stack = fit_mod.cumulate(stack)
        cumulated = True
    else:
        cumulated = False
    truth = stackio.read_tc_csv(args.truth) if args.truth else None
    if truth is not None and truth.shape != stack.frames.shape[1:]:
        raise stackio.InputError(f"{args.truth}: truth map shape {truth.shape} does not "
                                 f"match the stack's {stack.frames.shape[1:]}")
    config = fit_mod.LMConfig(max_iterations=args.lm_max_iter, rel_tolerance=args.lm_tol)
    tc = fit_mod.fit_stack(stack, config, truth)
    stackio.write_tc_csv(_path(outdir, "tau_map.csv"), tc.tau_map)
    stackio.write_tc_csv(_path(outdir, "converged.csv"), tc.converged_mask.astype(float))
    stackio.write_pgm(_path(outdir, "tau_map.pgm"), tc.tau_map)
    if truth is not None:
        inc_mask = _regions_from_truth(truth)
        with open(_path(outdir, "pre.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("region,pre_percent,mean_estimated_tau,true_tau,coverage\n")
            regions = ["background", "whole"] if not inc_mask.any() else list(evaluate.REGIONS)
            for region in regions:
                r = evaluate.compute_pre(tc, region, inc_mask)
                fh.write(f"{r.region},{r.pre_percent!r},{r.mean_estimated_tau!r},"
                         f"{r.true_tau!r},{r.coverage!r}\n")
    _write_manifest(outdir, {"subcommand": "fit", "stack": args.stack,
                             "truth": args.truth or "", "cumulated_input": cumulated,
                             "lm_max_iter": args.lm_max_iter, "lm_tol": args.lm_tol})
    print(f"TC image written to {outdir} "
          f"(converged {tc.converged_mask.mean() * 100:.1f}% of pixels)")
    return 0


def _load_grid_manifest(args):
    entries = stackio.read_manifest(args.from_manifest)
    if entries.get("subcommand") != "grid":
        raise UsageError(f"{args.from_manifest} is not a grid manifest")
    for key, parse in _GRID_FIELDS.items():
        try:
            setattr(args, key, parse(entries[key]))
        except KeyError:
            raise stackio.InputError(
                f"{args.from_manifest}: grid manifest lacks '{key}'") from None
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise stackio.InputError(
                f"{args.from_manifest}: malformed grid manifest: {key}: {exc}") from None


def _cmd_grid(args):
    outdir = _ensure_outdir(args)
    if args.from_manifest:
        _load_grid_manifest(args)
    kalman_spec = KalmanSpec(window_len=args.kalman_window, process_ratio=args.kalman_ratio)
    lm_config = fit_mod.LMConfig(max_iterations=args.lm_max_iter,
                                 rel_tolerance=args.lm_tol)

    map_callback = None
    if args.emit_maps:
        maps_dir = _path(outdir, "maps")
        os.makedirs(maps_dir, exist_ok=True)

        def map_callback(sample, method, snr, fraction, tc):
            stem = f"tc_{sample}_{method}_snr{snr:g}_pgf{round(fraction * 100)}"
            stackio.write_tc_csv(os.path.join(maps_dir, stem + ".csv"), tc.tau_map)
            stackio.write_pgm(os.path.join(maps_dir, stem + ".pgm"), tc.tau_map)

    results = evaluate.run_grid(
        samples=args.samples, methods=args.methods, snrs=args.snrs,
        fractions=args.fractions, trials=args.trials, seed=args.seed,
        width=args.size, height=args.size, kalman_spec=kalman_spec,
        lm_config=lm_config, jobs=args.jobs, map_callback=map_callback)

    with open(_path(outdir, "grid.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample,method,snr_db,good_fraction,region,pre_mean,pre_std,coverage\n")
        for r in results:
            fh.write(f"{r.sample},{r.method},{r.snr_db!r},{r.good_fraction!r},"
                     f"{r.region},{r.pre_mean!r},{r.pre_std!r},{r.coverage!r}\n")
    # wall time varies run to run, so it lives in its own file and the main
    # CSV stays byte-reproducible
    with open(_path(outdir, "grid_timing.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample,method,snr_db,good_fraction,wall_time_s\n")
        for r in results:
            if r.region == "whole":
                fh.write(f"{r.sample},{r.method},{r.snr_db!r},{r.good_fraction!r},"
                         f"{r.wall_time_s!r}\n")
    for sample in args.samples:
        table = evaluate.format_grid_table(results, sample)
        with open(_path(outdir, f"table_{sample}.txt"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(table)
    manifest = {"subcommand": "grid",
                "samples": ",".join(args.samples),
                "methods": ",".join(args.methods),
                "snrs": ",".join(f"{s:g}" for s in args.snrs),
                "fractions": ",".join(repr(f) for f in args.fractions),
                "trials": args.trials, "seed": args.seed, "size": args.size,
                "kalman_window": args.kalman_window, "kalman_ratio": args.kalman_ratio,
                "lm_max_iter": args.lm_max_iter, "lm_tol": args.lm_tol,
                "emit_maps": args.emit_maps}
    _write_manifest(outdir, manifest)
    print(f"grid of {len(args.samples) * len(args.snrs) * len(args.fractions)} cells "
          f"x {len(args.methods)} methods written to {outdir}")
    return 0


def _cmd_demo(args):
    outdir = _ensure_outdir(args)
    spec = phantom.preset(args.preset, width_px=args.size, height_px=args.size)
    row, col = args.pixel or (spec.height_px // 2, spec.width_px // 2)
    if not (0 <= row < spec.height_px and 0 <= col < spec.width_px):
        raise UsageError(f"pixel {row},{col} outside {spec.height_px}x{spec.width_px} image")

    clean = phantom.synth_incremental(spec)
    noise = NoiseSpec(base_snr_db=args.snr_db, good_frame_fraction=args.good_fraction,
                      rng_seed=args.seed)
    mask = place_bad_frames(spec.n_frames, noise)
    degraded = add_noise(clean, mask, noise)
    arms = {"clean": clean,
            "noisy": degraded,
            "kalman": kalman_denoise(degraded),
            "spline": reconstruct_stack(degraded, mask)}

    times = phantom.frame_times(spec.n_frames, spec.sample_time_s)
    curves, fits = {}, {}
    for name, stack in arms.items():
        cum = fit_mod.cumulate(stack)
        series = cum.frames[:, row, col]
        curves[name] = series
        fits[name] = fit_mod.fit_exponential(times, series)

    with open(_path(outdir, "demo_curves.csv"), "w", encoding="utf-8", newline="\n") as fh:
        names = list(arms)
        fh.write("time_s," + ",".join(names) + "," + ",".join(f"fit_{n}" for n in names) + "\n")
        for i, t in enumerate(times):
            data = [repr(float(curves[n][i])) for n in names]
            model = [repr(float(fit_mod.exp_model(t, fits[n].eta, fits[n].gamma, fits[n].tau)))
                     for n in names]
            fh.write(f"{float(t)!r}," + ",".join(data) + "," + ",".join(model) + "\n")
    with open(_path(outdir, "demo_fits.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("arm,eta,gamma,tau,residual_norm,iterations,converged\n")
        for name, f in fits.items():
            fh.write(f"{name},{f.eta!r},{f.gamma!r},{f.tau!r},{f.residual_norm!r},"
                     f"{f.iterations},{f.converged}\n")
    _write_manifest(outdir, {"subcommand": "demo", "preset": args.preset,
                             "snr_db": args.snr_db, "good_fraction": args.good_fraction,
                             "seed": args.seed, "size": args.size,
                             "pixel": f"{row},{col}"})
    true_tau = phantom.tau_map(spec)[row, col]
    print(f"pixel ({row},{col}): true tau {true_tau:.3f} s; fitted tau "
          + ", ".join(f"{n}={fits[n].tau:.3f}" for n in arms))
    return 0


_COMMANDS = {"synth": _cmd_synth, "degrade": _cmd_degrade,
             "reconstruct": _cmd_reconstruct, "fit": _cmd_fit,
             "grid": _cmd_grid, "demo": _cmd_demo}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"straintc: usage error: {exc}", file=sys.stderr)
        return 1
    except stackio.InputError as exc:
        print(f"straintc: input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"straintc: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"straintc: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"straintc: out of memory: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
