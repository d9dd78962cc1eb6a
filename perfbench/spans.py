"""Span recording for the traced run.

The tracer replaces each public straintc function at the name its caller
looks it up by (a module attribute) with a wrapper that records a span:
name, start, end, parent span and request id.  Spans are kept in memory and
written out when the run ends.  No file under src/ is edited; the wrappers
are installed into the running process and removed again afterwards.

Counts that the per-layer metrics need (pixels fitted, bytes read, bad
frames reconstructed, ...) are taken at the same boundaries by per-function
hooks, which see each call's arguments and result.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# pixels per fitted stack refitted one at a time with fit_exponential, which
# reports the LM iteration count that fit_stack discards
LM_SAMPLE_PIXELS = 16


def lm_sample_indices(height, width, k=LM_SAMPLE_PIXELS):
    """Flat indices of k pixels spread along the image's main diagonal, one
    in each of k equal bands of rows and of columns, so that the sample
    crosses the background and the centred inclusion alike."""
    rows = (np.arange(k) * height) // k + height // (2 * k)
    cols = (np.arange(k) * width) // k + width // (2 * k)
    return rows * width + cols


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    request: Optional[int]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (overlapping children counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans of wrapped calls and the counts their hooks collect."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: Optional[int] = None
        self.counts = defaultdict(float)
        self.overhead_s = 0.0
        self._open: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []
        self._lm_pending: list[tuple[np.ndarray, np.ndarray, object]] = []
        self.lm_iterations: list[int] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, func, name_of, hook):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            span = Span(name_of(args), 0.0, 0.0, parent, self.request)
            self.spans.append(span)
            self._open.append(index)
            t1 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                self._open.pop()
                span.start, span.end = t1, t2
            if hook is not None:
                hook(self, args, kwargs, result)
            self.overhead_s += (t1 - t0) + (time.perf_counter() - t2)
            return result
        wrapper.__wrapped__ = func
        return wrapper

    def install(self, module, attr, hook=None, name_of=None):
        """Replace module.attr by a recording wrapper.

        The span name is the defining module's last component and the
        function name (e.g. "kalman.kalman_denoise"), whatever module the
        caller looks it up in; name_of(args) overrides it.
        """
        func = getattr(module, attr)
        if name_of is None:
            name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
            name_of = lambda args, name=name: name  # noqa: E731
        self._installed.append((module, attr, func))
        setattr(module, attr, self._wrap(func, name_of, hook))

    def uninstall(self):
        for module, attr, func in reversed(self._installed):
            setattr(module, attr, func)
        self._installed.clear()

    # -- LM iteration sample ------------------------------------------------

    def queue_lm_sample(self, times, curves, config):
        self._lm_pending.append((times, curves, config))

    def fit_lm_sample(self, fit_exponential):
        """Refit the queued pixel curves one at a time; called between
        requests so the extra fits stay out of the timed region."""
        for times, curves, config in self._lm_pending:
            for curve in curves:
                self.lm_iterations.append(fit_exponential(times, curve, config).iterations)
        self._lm_pending.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "request": s.request} for s in self.spans], fh)


# ---------------------------------------------------------------------------
# hooks: counts taken at the layer boundary

def _fit_stack_hook(tracer, args, kwargs, result):
    from straintc import fit, phantom
    stack = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config", fit.LMConfig())
    n, height, width = stack.frames.shape
    times = phantom.frame_times(n, stack.sample_time_s)
    floor, ceil = config.resolve_bounds(times)
    tau = result.tau_map
    tracer.counts["fit.pixels"] += tau.size
    tracer.counts["fit.converged"] += int(result.converged_mask.sum())
    tracer.counts["fit.at_bound"] += int(np.count_nonzero((tau == floor) | (tau == ceil)))
    flat = stack.frames.reshape(n, height * width)
    curves = flat[:, lm_sample_indices(height, width)].T.copy()
    tracer.queue_lm_sample(times, curves, config)


def _reconstruct_hook(tracer, args, kwargs, result):
    mask = args[1] if len(args) > 1 else kwargs["mask"]
    tracer.counts["spline.bad_frames"] += mask.n_frames - mask.n_good
    tracer.counts["spline.calls"] += 1


def _kalman_hook(tracer, args, kwargs, result):
    tracer.counts["kalman.calls"] += 1


def _bytes_hook(key):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(args[0])
    return hook


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def install_program_wrappers(tracer, program):
    """Wrap every public function the workloads reach, at the name its caller
    uses.  program maps module short names to the imported modules."""
    ev, fit, cli, stackio = (program[k] for k in ("evaluate", "fit", "cli", "stackio"))
    # the grid: run_grid is called by the benchmark, the rest by _run_cell
    tracer.install(ev, "run_grid")
    for attr in ("synth_incremental", "place_bad_frames", "add_noise", "compute_pre"):
        tracer.install(ev, attr)
    tracer.install(ev, "kalman_denoise", _kalman_hook)
    tracer.install(ev, "reconstruct_stack", _reconstruct_hook)
    tracer.install(fit, "cumulate")
    tracer.install(fit, "fit_stack", _fit_stack_hook)
    # stack repair through the CLI; detect_bad_frames is called by the benchmark
    tracer.install(cli, "main", name_of=_cli_name)
    tracer.install(cli, "place_bad_frames")
    tracer.install(cli, "add_noise")
    tracer.install(cli, "kalman_denoise", _kalman_hook)
    tracer.install(cli, "reconstruct_stack", _reconstruct_hook)
    tracer.install(ev, "detect_bad_frames")
    tracer.install(stackio, "read_stack", _bytes_hook("stackio.bytes_read"))
    tracer.install(stackio, "read_mask", _bytes_hook("stackio.bytes_read"))
    tracer.install(stackio, "write_stack", _bytes_hook("stackio.bytes_written"))
    tracer.install(stackio, "write_mask", _bytes_hook("stackio.bytes_written"))


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric name, unit, better, source).  Busy and self times are seconds per
# request, summed over the spans of that name inside timed requests.
_BUSY = ("fit.fit_stack", "fit.cumulate", "kalman.kalman_denoise",
         "spline.reconstruct_stack", "degrade.add_noise", "degrade.place_bad_frames",
         "evaluate.detect_bad_frames", "evaluate.compute_pre",
         "stackio.read_stack", "stackio.write_stack", "stackio.read_mask",
         "stackio.write_mask", "cli.main.degrade", "cli.main.reconstruct",
         "phantom.synth_incremental")
_SELF = ("evaluate.run_grid", "cli.main.degrade", "cli.main.reconstruct")

PER_LAYER = (
    [(f"{name}.busy_s", "s/op", "lower") for name in _BUSY]
    + [(f"{name}.self_s", "s/op", "lower") for name in _SELF]
    + [("fit.pixels_per_s", "1/s", "higher"),
       ("fit.lm_iter_mean", "count", "lower"),
       ("fit.lm_iter_max", "count", "lower"),
       ("fit.converged_frac", "frac", "higher"),
       ("fit.at_bound_frac", "frac", "lower"),
       ("kalman.kalman_denoise.calls", "count/op", "lower"),
       ("spline.bad_frames", "count", "lower"),
       ("evaluate.detect.precision", "frac", "higher"),
       ("evaluate.detect.recall", "frac", "higher"),
       ("stackio.bytes_read", "B/op", "lower"),
       ("stackio.bytes_written", "B/op", "lower"),
       ("phantom.synth_incremental.setup_s", "s", "lower"),
       ("trace.throughput_ops_s", "1/s", "higher"),
       ("trace.overhead_frac", "frac", "lower")])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, latencies, detect_counts, setup_synth_s):
    """Per-layer metrics of a traced run, keyed as in PER_LAYER.

    detect_counts is (true positives, frames flagged, frames truly bad)
    summed over the run; setup_synth_s the median time spent synthesizing
    phantoms per set-up.
    """
    n_req = len(latencies)
    in_request = [i for i, s in enumerate(tracer.spans) if s.request is not None]
    selfs = self_times(tracer.spans)
    busy = defaultdict(float)
    own = defaultdict(float)
    for i in in_request:
        s = tracer.spans[i]
        busy[s.name] += s.end - s.start
        own[s.name] += selfs[i]
    c = tracer.counts
    tp, flagged, bad = detect_counts
    values = {f"{name}.busy_s": _ratio(busy[name], n_req) for name in _BUSY}
    values.update({f"{name}.self_s": _ratio(own[name], n_req) for name in _SELF})
    values.update({
        "fit.pixels_per_s": _ratio(c["fit.pixels"], busy["fit.fit_stack"]),
        "fit.lm_iter_mean": float(np.mean(tracer.lm_iterations)) if tracer.lm_iterations else 0.0,
        "fit.lm_iter_max": float(max(tracer.lm_iterations, default=0)),
        "fit.converged_frac": _ratio(c["fit.converged"], c["fit.pixels"]),
        "fit.at_bound_frac": _ratio(c["fit.at_bound"], c["fit.pixels"]),
        "kalman.kalman_denoise.calls": _ratio(c["kalman.calls"], n_req),
        "spline.bad_frames": _ratio(c["spline.bad_frames"], c["spline.calls"]),
        "evaluate.detect.precision": _ratio(tp, flagged),
        "evaluate.detect.recall": _ratio(tp, bad),
        "stackio.bytes_read": _ratio(c["stackio.bytes_read"], n_req),
        "stackio.bytes_written": _ratio(c["stackio.bytes_written"], n_req),
        "phantom.synth_incremental.setup_s": setup_synth_s,
        "trace.throughput_ops_s": _ratio(n_req, sum(latencies)),
        "trace.overhead_frac": _ratio(tracer.overhead_s, sum(latencies)),
    })
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
