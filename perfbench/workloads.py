"""The three benchmark workloads: request streams, set-up, one request, and
the check of each request's outputs against the recorded reference.

Every request is drawn from a finite pool whose outputs were recorded once
in reference.json (see reference.py); the seed picks the noise realizations
(and grid32's order), so the same seed gives the same inputs and every input
has a reference to be checked against.

grid128    one full-resolution cell-trial per request (run_grid, jobs=1, all
           three methods).  The fit dominates and its (P, N) temporaries are
           several times the L2 cache.
grid32     one whole reduced grid per request (27 cells x 3 methods at 32x32,
           jobs=2).  The same layers with cache-resident arrays, so per-call
           Python overhead and process-pool dispatch dominate.
repair128  one stack repaired through files per request: cli degrade, cli
           reconstruct (spline and Kalman), then detect_bad_frames.  No fit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import shutil
import statistics
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

SIZE_FULL = 128
SIZE_REDUCED = 32
GRID32_JOBS = 2
GRID32_TRIALS = 1

# One cycle of twelve cells: samples A-C crossed with the extreme SNRs and
# good-frame fractions.  Every block of three has one cell of each sample
# (the sample sets most of a cell's cost) and each half has all four (SNR,
# fraction) pairs; the cycle opens with the costliest cell.
CELL_CYCLE = (("C", 30.0, 0.20), ("A", 60.0, 0.75), ("B", 60.0, 0.20),
              ("C", 60.0, 0.75), ("A", 30.0, 0.20), ("B", 30.0, 0.75),
              ("C", 60.0, 0.20), ("A", 30.0, 0.75), ("B", 30.0, 0.20),
              ("C", 30.0, 0.75), ("A", 60.0, 0.20), ("B", 60.0, 0.75))

# Requests per round.  A run repeats one round, the first ROUND_SIZE
# requests of its stream, until its time is up, so that runs of slower and
# faster code hold the same mix of inputs.  At today's speed one round
# fills a 25-second run: two blocks of the cell cycle on grid128, all eight
# grid seeds on grid32, one and a half cycles on repair128.
ROUND_SIZE = {"grid128": 6, "grid32": 8, "repair128": 18}

# Noise-realization seeds with a recorded reference.  grid128 has one: a
# single cell-trial's cost moves with its realization by up to 60% (LM
# iterations on badly reconstructed pixels) and a run holds only about six
# of them, so drawing realizations by seed would make runs disagree by more
# than any allowed bound.  Its request stream is therefore the same for
# every seed.
GRID128_SEEDS = (0,)
GRID32_SEEDS = tuple(range(8))
REPAIR_SEEDS = (0, 1, 2)

METHODS = ("noisy", "kalman", "spline")

# Output-check tolerances.  A fit engine whose tau differs from the
# reference by about 1e-8 relative moves a region's PRE by about 1e-6
# percentage points, a hundred times inside PRE_ATOL; a tau bias of 1e-6
# relative or more, or one pixel changing its converged flag, fails.
PRE_ATOL = 1e-4        # percentage points
PRE_RTOL = 1e-5
COVERAGE_ATOL = 1e-9
RECON_RTOL = 1e-9      # relative RMS errors of repaired stacks


@dataclass(frozen=True)
class Cell:
    """One request of grid128 or repair128: a cell and its noise seed."""

    sample: str
    snr_db: float
    good_fraction: float
    seed: int

    @property
    def key(self):
        return f"{self.sample}|{self.snr_db:g}|{self.good_fraction:g}|{self.seed}"


def cell_requests(seed, seeds):
    """Endless request stream of a cell-cycle workload.  The cells follow
    CELL_CYCLE from its start, so every run of a given length covers the same
    mix of cells; the seed picks each request's noise realization."""
    rng = np.random.default_rng([int(seed), 128])
    for cell in itertools.cycle(CELL_CYCLE):
        yield Cell(*cell, seeds[int(rng.integers(len(seeds)))])


def grid32_requests(seed):
    """Endless request stream of grid32: the grid seeds in a seeded order,
    cycled."""
    order = np.random.default_rng([int(seed), 32]).permutation(len(GRID32_SEEDS))
    return (GRID32_SEEDS[int(i)] for i in itertools.cycle(order))


def load_reference():
    """The recorded outputs; empty before reference.py has first run, in
    which case every request fails its check."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def import_program():
    """(Re-)import straintc from scratch and return its modules by short
    name.  Purging sys.modules first makes every set-up pay the import."""
    for name in [m for m in sys.modules if m == "straintc" or m.startswith("straintc.")]:
        del sys.modules[name]
    importlib.import_module("straintc")
    return {name: importlib.import_module(f"straintc.{name}")
            for name in ("phantom", "degrade", "spline", "kalman", "fit",
                         "evaluate", "stackio", "cli")}


def _row_key(r):
    return f"{r.sample}|{r.snr_db:g}|{r.good_fraction:g}|{r.method}|{r.region}"


def _close(value, ref, atol, rtol):
    return abs(value - ref) <= atol + rtol * abs(ref)


class GridWorkload:
    """grid128 and grid32: each request is one run_grid call."""

    def __init__(self, name, traced):
        self.name = name
        self.full = name == "grid128"
        # worker spans cannot be collected from outside the program, so the
        # traced grid32 run uses one process
        self.jobs = 1 if (self.full or traced) else GRID32_JOBS
        self.workers = self.jobs if self.jobs > 1 else 0
        self.round_size = ROUND_SIZE[name]
        self.reference = load_reference().get(name, {})

    def requests(self, seed):
        if self.full:
            return cell_requests(seed, GRID128_SEEDS)
        return grid32_requests(seed)

    def request_key(self, req):
        return req.key if self.full else str(req)

    def setup(self, seed):
        """Import the program and start the request stream."""
        t0 = time.perf_counter()
        self.program = import_program()
        self.stream = self.requests(seed)
        return {"total": time.perf_counter() - t0, "synth": 0.0}

    def run(self, req):
        run_grid = self.program["evaluate"].run_grid
        if self.full:
            return run_grid(samples=(req.sample,), snrs=(req.snr_db,),
                            fractions=(req.good_fraction,), trials=1, seed=req.seed,
                            width=SIZE_FULL, height=SIZE_FULL, jobs=1)
        return run_grid(trials=GRID32_TRIALS, seed=req, width=SIZE_REDUCED,
                        height=SIZE_REDUCED, jobs=self.jobs)

    def collect(self, req, rows):
        """Outputs to check: |PRE| mean and coverage per cell, method, region."""
        return {_row_key(r): [r.pre_mean, r.coverage] for r in rows}

    def check(self, req, out):
        """List of reasons the outputs differ from the reference; empty if
        they match."""
        ref = self.reference.get(self.request_key(req))
        if ref is None:
            return [f"no reference for request {self.request_key(req)}"]
        problems = []
        if set(out) != set(ref):
            problems.append(f"result rows {sorted(set(out) ^ set(ref))[:3]} differ from the reference")
        for key in sorted(set(out) & set(ref)):
            (pre, cov), (pre_ref, cov_ref) = out[key], ref[key]
            if not _close(pre, pre_ref, PRE_ATOL, PRE_RTOL):
                problems.append(f"{key}: |PRE| {pre!r} vs reference {pre_ref!r}")
            if not _close(cov, cov_ref, COVERAGE_ATOL, 0.0):
                problems.append(f"{key}: coverage {cov!r} vs reference {cov_ref!r}")
        return problems

    def accuracy(self, outs):
        """Mean whole-region |PRE| per method over the run's requests."""
        acc = {}
        for method in METHODS:
            per_request = [np.mean([v[0] for k, v in out.items()
                                    if k.endswith(f"|{method}|whole")]) for out in outs]
            acc[f"pre_{method}_pct"] = (float(np.mean(per_request)) if per_request
                                        else float("nan"), "%")
        return acc

    def detect_counts(self, outs):
        return (0, 0, 0)

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# repair128

_STACK_HEADER = struct.Struct("<12sIIIIdB")


def read_stack_frames(path):
    """Frames of a stack file, read without straintc so that the check does
    not rely on the code it checks."""
    with open(path, "rb") as fh:
        header = fh.read(_STACK_HEADER.size)
    _, _, n, h, w, _, _ = _STACK_HEADER.unpack(header)
    return np.fromfile(path, dtype="<f8", offset=_STACK_HEADER.size).reshape(n, h, w)


def read_mask_good(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[1:]
    return np.array([line.split(",")[1] == "good" for line in lines if line])


def rel_rms(x, clean):
    return float(np.sqrt(np.sum((x - clean) ** 2) / np.sum(clean ** 2)))


class RepairWorkload:
    """repair128: degrade -> reconstruct (spline, Kalman) -> detect, through
    files, with cli.main run in-process."""

    name = "repair128"
    workers = 0
    round_size = ROUND_SIZE["repair128"]

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.reference = load_reference().get(self.name, {})

    def requests(self, seed):
        return cell_requests(seed, REPAIR_SEEDS)

    def request_key(self, req):
        return req.key

    def setup(self, seed):
        """Import the program, start the request stream, synthesize the
        clean phantoms and write them as the stack files the CLI reads."""
        t0 = time.perf_counter()
        self.program = import_program()
        self.stream = self.requests(seed)
        phantom, stackio = self.program["phantom"], self.program["stackio"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.clean, self.clean_path = {}, {}
        synth = 0.0
        for sample in sorted({cell[0] for cell in CELL_CYCLE}):
            t1 = time.perf_counter()
            stack = phantom.synth_incremental(phantom.preset(sample))
            synth += time.perf_counter() - t1
            path = self.workdir / f"clean_{sample}.stack"
            stackio.write_stack(str(path), stack)
            self.clean[sample], self.clean_path[sample] = stack.frames, path
        return {"total": time.perf_counter() - t0, "synth": synth}

    def run(self, req):
        cli = self.program["cli"]
        deg, spl, kal = (str(self.workdir / d) for d in ("degraded", "spline", "kalman"))
        stack = f"{deg}/degraded.stack"
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["degrade", "--stack", str(self.clean_path[req.sample]),
                          "--snr-db", repr(req.snr_db), "--good-fraction",
                          repr(req.good_fraction), "--seed", str(req.seed), "--out", deg]),
                cli.main(["reconstruct", "--stack", stack, "--mask", f"{deg}/mask.csv",
                          "--method", "spline", "--out", spl]),
                cli.main(["reconstruct", "--stack", stack, "--method", "kalman",
                          "--out", kal]),
            ]
        detected = self.program["evaluate"].detect_bad_frames(
            self.program["stackio"].read_stack(stack))
        return codes, detected.good.copy()

    def collect(self, req, raw):
        codes, detected_good = raw
        clean = self.clean[req.sample]
        out = {"exit_codes": codes}
        if any(codes):
            return out
        deg = self.workdir / "degraded"
        degraded = read_stack_frames(deg / "degraded.stack")
        good = read_mask_good(deg / "mask.csv")
        spline = read_stack_frames(self.workdir / "spline" / "reconstructed.stack")
        kalman = read_stack_frames(self.workdir / "kalman" / "reconstructed.stack")
        out.update({
            "mask_sha256": hashlib.sha256(good.tobytes()).hexdigest(),
            "good_frames_exact": bool(np.array_equal(spline[good], degraded[good])),
            "err_noisy": rel_rms(degraded, clean),
            "err_spline": rel_rms(spline, clean),
            "err_kalman": rel_rms(kalman, clean),
            "detect_tp": int(np.count_nonzero(~detected_good & ~good)),
            "detect_flagged": int(np.count_nonzero(~detected_good)),
            "n_bad": int(np.count_nonzero(~good)),
        })
        return out

    def check(self, req, out):
        ref = self.reference.get(req.key)
        if ref is None:
            return [f"no reference for request {req.key}"]
        if any(out["exit_codes"]):
            return [f"cli.main exit codes {out['exit_codes']}"]
        problems = []
        if not out["good_frames_exact"]:
            problems.append("spline reconstruct changed a good frame")
        for key in ("mask_sha256", "detect_tp", "detect_flagged", "n_bad"):
            if out[key] != ref[key]:
                problems.append(f"{key} {out[key]!r} vs reference {ref[key]!r}")
        for key in ("err_noisy", "err_spline", "err_kalman"):
            if not _close(out[key], ref[key], 0.0, RECON_RTOL):
                problems.append(f"{key} {out[key]!r} vs reference {ref[key]!r}")
        return problems

    def accuracy(self, outs):
        outs = [o for o in outs if "err_noisy" in o]
        return {f"recon_err_{arm}": (float(np.mean([o[f"err_{arm}"] for o in outs]))
                                     if outs else float("nan"), "frac")
                for arm in METHODS}

    def detect_counts(self, outs):
        outs = [o for o in outs if "n_bad" in o]
        return (sum(o["detect_tp"] for o in outs), sum(o["detect_flagged"] for o in outs),
                sum(o["n_bad"] for o in outs))

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("grid128", "grid32", "repair128")


def make_workload(name, traced, workdir):
    if name == "repair128":
        return RepairWorkload(workdir)
    if name in ("grid128", "grid32"):
        return GridWorkload(name, traced)
    raise ValueError(f"unknown workload {name!r}")


def median_setup(workload, seed, reps):
    """Set the workload up reps times; the last set-up is the one used.
    Returns the median total and the median time spent synthesizing."""
    times = [workload.setup(seed) for _ in range(reps)]
    return (statistics.median(t["total"] for t in times),
            statistics.median(t["synth"] for t in times))
