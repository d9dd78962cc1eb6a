"""Batch command-line front end.

Subcommands:
    synth        write clean incremental + cumulative stacks for a phantom
    degrade      add SNR-controlled noise and bad frames to a stack
    reconstruct  repair a degraded stack with the spline or Kalman method
    fit          fit the creep model per pixel and write the TC image
    grid         run the full Monte-Carlo comparison grid
    demo         one end-to-end cell; writes per-pixel curve data for plotting

Every flag is declared once, in _SETTINGS, with its type, its default (read
from the library where the library has one) and its help; each subcommand
lists the settings it takes.

Exit codes: 0 success, 1 usage or input error (bad flags, unreadable or
malformed input files, or a stack, mask or map a stage cannot take), 2
numerical or resource failure (such as running out of memory).  Every run
writes a manifest.txt that records each set flag but --out, exactly as the
flag types read it back, plus the values a command resolved itself; `grid
--from-manifest` reruns a recorded configuration and reproduces its CSV
outputs byte-identically on the same platform.  The default output
directory may be set with the STRAINTC_OUT environment variable.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import astuple, fields, replace

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


def _checked(cast, ok, requirement=None):
    """Flag type: cast(text) must succeed and satisfy ok, or the flag is a
    usage error saying what it must be.  Without a requirement, ok builds a
    spec from the value, and the ValueError it raises is the message."""
    def parse(text):
        try:
            value = cast(text)
            good = ok(value)
        except ValueError as exc:
            if requirement is None:
                raise argparse.ArgumentTypeError(str(exc)) from None
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


def _one_of(names):
    return _checked(str, names.__contains__, "one of " + ", ".join(names))


def _csv_list(item):
    return _checked(lambda text: tuple(item(part) for part in text.split(",") if part),
                    lambda v: 0 < len(v) == len(set(v)),
                    "one or more distinct comma-separated values")


def _spec_field(spec, name):
    """Flag type of one spec field, read as its default's type: the spec,
    built with the value in that field, checks it."""
    return _checked(type(getattr(spec, name)), lambda v: spec(**{name: v}))


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_snr = _spec_field(NoiseSpec, "base_snr_db")
_fraction = _spec_field(NoiseSpec, "good_frame_fraction")
_pixel = _checked(lambda text: tuple(int(part) for part in text.split(",")),
                  lambda v: len(v) == 2, "row,col integers")
# a store_true flag as a manifest records it
_switch = _checked({"True": True, "False": False}.get, lambda v: v is not None,
                   "True or False")

_REQUIRED = object()
_RUN_GRID = inspect.signature(evaluate.run_grid).parameters

# dest -> (type, default, help) of every flag but --out
_SETTINGS = {
    "preset": (_one_of(phantom.PRESET_NAMES), "A", "built-in sample preset"),
    "config": (str, None, "phantom config file (key = value lines)"),
    "width": (int, None, "override width in pixels"),
    "height": (int, None, "override height in pixels"),
    "frames": (int, None, "override frame count"),
    "sample_time_s": (float, None, "override sampling time"),
    "stack": (str, _REQUIRED, "input strain stack; degrade and spline take an incremental "
              "one, fit takes either kind"),
    "snr_db": (_snr, NoiseSpec.base_snr_db, "base SNR of good frames"),
    "good_fraction": (_fraction, NoiseSpec.good_frame_fraction,
                      "fraction of frames kept good"),
    "seed": (_spec_field(NoiseSpec, "rng_seed"), NoiseSpec.rng_seed, "random seed"),
    "method": (_one_of(("spline", "kalman")), _REQUIRED, "repair method"),
    "mask": (str, None, "frame quality mask CSV (required for spline)"),
    "kalman_window": (_spec_field(KalmanSpec, "window_len"), KalmanSpec.window_len,
                      "Kalman look-ahead window in frames"),
    "kalman_ratio": (_spec_field(KalmanSpec, "process_ratio"), KalmanSpec.process_ratio,
                     "process to measurement noise variance ratio Q/R"),
    "truth": (str, None, "ground-truth tau map CSV for PRE output"),
    "lm_max_iter": (_spec_field(fit_mod.LMConfig, "max_iterations"),
                    fit_mod.LMConfig.max_iterations, "LM iteration cap"),
    "lm_tol": (_spec_field(fit_mod.LMConfig, "rel_tolerance"), fit_mod.LMConfig.rel_tolerance,
               "LM tolerance: relative on the cost reduction, absolute on max |J^T r|"),
    "samples": (_csv_list(_one_of(phantom.PRESET_NAMES)), phantom.PRESET_NAMES,
                "comma-separated sample presets"),
    "methods": (_csv_list(_one_of(evaluate.METHODS)), evaluate.METHODS,
                "comma-separated methods"),
    "snrs": (_csv_list(_snr), evaluate.DEFAULT_SNRS, "comma-separated SNRs in dB"),
    "fractions": (_csv_list(_fraction), evaluate.DEFAULT_FRACTIONS,
                  "comma-separated good-frame fractions"),
    "trials": (_count, _RUN_GRID["trials"].default, "trials per cell"),
    "size": (_count, phantom.PhantomSpec.width_px,
             "phantom resolution; 32 is the reduced CI mode"),
    "jobs": (_count, _RUN_GRID["jobs"].default,
             "parallel worker processes (capped at the CPU and cell counts)"),
    "emit_maps": (_switch, False, "write TC maps (CSV + PGM) for the first trial of each cell"),
    "from_manifest": (str, None, "rerun a recorded grid configuration (other grid flags ignored)"),
    "pixel": (_pixel, None, "row,col of the plotted pixel (default: center)"),
}

# the settings a grid manifest records and `grid --from-manifest` reruns
_GRID_KEYS = ("samples", "methods", "snrs", "fractions", "trials", "seed", "size",
              "kalman_window", "kalman_ratio", "lm_max_iter", "lm_tol", "emit_maps")

# synth flag -> the PhantomSpec field it overrides
_SYNTH_OVERRIDES = {"width": "width_px", "height": "height_px", "frames": "n_frames",
                    "sample_time_s": "sample_time_s"}


def _add_flags(parser, dests, defaults):
    """Add the flags of these settings; defaults override the table's.  A
    tuple of dests is a group of which exactly one flag must be given."""
    for dest in dests:
        if isinstance(dest, tuple):
            _add_flags(parser.add_mutually_exclusive_group(required=True), dest,
                       dict.fromkeys(dest))
            continue
        cast, default, about = _SETTINGS[dest]
        default = defaults.get(dest, default)
        flag = "--" + dest.replace("_", "-")
        if default is False:
            parser.add_argument(flag, action="store_true", help=about)
        else:
            required = default is _REQUIRED
            parser.add_argument(flag, type=cast, default=None if required else default,
                                required=required, help=about)


def build_parser() -> _Parser:
    parser = _Parser(prog="straintc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, about, dests, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        _add_flags(p, dests, defaults)
        p.add_argument("--out", default=os.environ.get(OUT_ENV),
                       help=f"output directory (default: ${OUT_ENV})")
    return parser


def _ensure_outdir(args):
    if not args.out:
        raise UsageError(f"missing output directory: pass --out or set ${OUT_ENV}")
    # a setting manifest.txt cannot record is refused before anything is written
    stackio.check_manifest(_manifest_entries(args))
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _path(outdir, name):
    return os.path.join(outdir, name)


def _manifest_entries(args):
    """manifest.txt's entries from the parsed flags: every set one but
    --out, tuples comma-joined, each value as str(), which its flag type
    reads back."""
    return {key: ",".join(map(str, value)) if isinstance(value, tuple) else value
            for key, value in vars(args).items() if value is not None and key != "out"}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args):
    if args.preset:
        spec = phantom.preset(args.preset)
    else:
        spec = stackio.read_config(args.config)
    overrides = {field: getattr(args, flag) for flag, field in _SYNTH_OVERRIDES.items()
                 if getattr(args, flag) is not None}
    try:
        spec = replace(spec, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    outdir = _ensure_outdir(args)
    stackio.write_stack(_path(outdir, "incremental.stack"), phantom.synth_incremental(spec))
    stackio.write_stack(_path(outdir, "cumulative.stack"), phantom.synth_cumulative(spec))
    stackio.write_tc_csv(_path(outdir, "tau_true.csv"), phantom.tau_map(spec))
    stackio.write_manifest(_path(outdir, "phantom.cfg"), phantom.spec_entries(spec))
    print(f"wrote clean stacks for {spec.width_px}x{spec.height_px}x{spec.n_frames} phantom to {outdir}")


def _cmd_degrade(args):
    spec = NoiseSpec(args.snr_db, args.good_fraction, args.seed)
    stack = stackio.read_stack(args.stack)
    mask = place_bad_frames(stack.n_frames, spec)
    degraded = add_noise(stack, mask, spec)
    outdir = _ensure_outdir(args)
    stackio.write_stack(_path(outdir, "degraded.stack"), degraded)
    stackio.write_mask(_path(outdir, "mask.csv"), mask)
    print(f"degraded {stack.n_frames} frames ({mask.n_frames - mask.n_good} bad) to {outdir}")


def _cmd_reconstruct(args):
    if args.method == "spline":
        if not args.mask:
            raise UsageError("--method spline requires --mask")
        result = reconstruct_stack(stackio.read_stack(args.stack), stackio.read_mask(args.mask))
    else:
        if args.mask:
            raise UsageError("--method kalman takes no --mask")
        spec = KalmanSpec(window_len=args.kalman_window, process_ratio=args.kalman_ratio)
        result = kalman_denoise(stackio.read_stack(args.stack), spec)
    stackio.write_stack(_path(_ensure_outdir(args), "reconstructed.stack"), result)
    print(f"reconstructed stack ({args.method}) written to {args.out}")


def _cmd_fit(args):
    stack = stackio.read_stack(args.stack)
    truth = stackio.read_tc_csv(args.truth) if args.truth else None
    args.cumulated_input = stack.kind == "incremental"
    config = fit_mod.LMConfig(max_iterations=args.lm_max_iter, rel_tolerance=args.lm_tol)
    tc = fit_mod.fit_stack(stack, config)
    # scored before the output directory exists, so a refused truth map writes nothing
    pre = None if truth is None else evaluate.compute_pre(tc, truth)
    outdir = _ensure_outdir(args)
    stackio.write_tc_csv(_path(outdir, "tau_map.csv"), tc.tau_map)
    stackio.write_tc_csv(_path(outdir, "converged.csv"), tc.converged_mask.astype(float))
    stackio.write_pgm(_path(outdir, "tau_map.pgm"), tc.tau_map)
    if pre is not None:
        stackio.write_csv(_path(outdir, "pre.csv"),
                          [field.name for field in fields(evaluate.PREResult)],
                          map(astuple, pre))
    print(f"TC image written to {outdir} "
          f"(converged {tc.converged_mask.mean() * 100:.1f}% of pixels)")


def _load_grid_manifest(args):
    entries = stackio.read_manifest(args.from_manifest)
    if entries.get("subcommand") != "grid":
        raise UsageError(f"{args.from_manifest} is not a grid manifest")
    for key in _GRID_KEYS:
        if key not in entries:
            raise stackio.InputError(f"{args.from_manifest}: grid manifest lacks '{key}'")
        try:
            setattr(args, key, _SETTINGS[key][0](entries[key]))
        except argparse.ArgumentTypeError as exc:
            raise stackio.InputError(
                f"{args.from_manifest}: malformed grid manifest: {key}: {exc}") from None


def _cmd_grid(args):
    if args.from_manifest:
        _load_grid_manifest(args)
    outdir = _ensure_outdir(args)
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

    def write_columns(name, columns, rows):
        stackio.write_csv(_path(outdir, name), columns,
                          ([getattr(r, c) for c in columns] for r in rows))

    cell = ("sample", "method", "snr_db", "good_fraction")
    write_columns("grid.csv", (*cell, "region", "pre_mean", "pre_std", "coverage"), results)
    # wall time varies run to run, so it lives in its own file and the main
    # CSV stays byte-reproducible
    write_columns("grid_timing.csv", (*cell, "wall_time_s"),
                  [r for r in results if r.region == "whole"])
    for sample in args.samples:
        stackio.write_text(_path(outdir, f"table_{sample}.txt"),
                           evaluate.format_grid_table(results, sample))
    print(f"grid of {len(args.samples) * len(args.snrs) * len(args.fractions)} cells "
          f"x {len(args.methods)} methods written to {outdir}")


def _cmd_demo(args):
    noise = NoiseSpec(args.snr_db, args.good_fraction, args.seed)
    spec = phantom.preset(args.preset, width_px=args.size, height_px=args.size)
    args.pixel = row, col = args.pixel or (spec.height_px // 2, spec.width_px // 2)
    if not (0 <= row < spec.height_px and 0 <= col < spec.width_px):
        raise UsageError(f"pixel {row},{col} outside {spec.height_px}x{spec.width_px} image")
    mask = place_bad_frames(spec.n_frames, noise)
    outdir = _ensure_outdir(args)

    clean = phantom.synth_incremental(spec)
    degraded = add_noise(clean, mask, noise)
    arms = {"clean": clean,
            "noisy": degraded,
            "kalman": kalman_denoise(degraded),
            "spline": reconstruct_stack(degraded, mask)}

    times = phantom.frame_times(spec.n_frames, spec.sample_time_s)
    curves, fits = {}, {}
    for name, stack in arms.items():
        series = np.cumsum(stack.frames[:, row, col])
        curves[name] = series
        fits[name] = fit_mod.fit_exponential(times, series)

    stackio.write_csv(
        _path(outdir, "demo_curves.csv"),
        ["time_s", *arms, *(f"fit_{n}" for n in arms)],
        ([t, *(curves[n][i] for n in arms),
          *(float(fit_mod.exp_model(t, f.eta, f.gamma, f.tau)) for f in fits.values())]
         for i, t in enumerate(times)))
    stackio.write_csv(_path(outdir, "demo_fits.csv"),
                      ["arm", *(field.name for field in fields(fit_mod.ExpFit))],
                      ((name, *astuple(f)) for name, f in fits.items()))
    true_tau = phantom.tau_map(spec)[row, col]
    print(f"pixel ({row},{col}): true tau {true_tau:.3f} s; fitted tau "
          + ", ".join(f"{n}={fits[n].tau:.3f}" for n in arms))


# subcommand -> (function, help, the settings it takes, defaults of its own)
_COMMANDS = {
    "synth": (_cmd_synth, "write clean strain stacks for a phantom",
              (("preset", "config"), *_SYNTH_OVERRIDES), {}),
    "degrade": (_cmd_degrade, "corrupt an incremental stack",
                ("stack", "snr_db", "good_fraction", "seed"), {}),
    "reconstruct": (_cmd_reconstruct, "denoise or reconstruct a degraded stack",
                    ("stack", "method", "mask", "kalman_window", "kalman_ratio"), {}),
    "fit": (_cmd_fit, "fit the creep model and write the TC image",
            ("stack", "truth", "lm_max_iter", "lm_tol"), {}),
    "grid": (_cmd_grid, "run the Monte-Carlo comparison grid",
             (*_GRID_KEYS, "jobs", "from_manifest"), {}),
    "demo": (_cmd_demo, "one end-to-end cell with per-pixel curve output",
             ("preset", "snr_db", "good_fraction", "seed", "size", "pixel"), {"snr_db": 60.0}),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.subcommand][0](args)
        stackio.write_manifest(_path(args.out, "manifest.txt"), _manifest_entries(args))
        return 0
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
