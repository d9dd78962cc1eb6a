"""Levenberg-Marquardt fitting of the three-parameter creep model

    s(t) = eta + gamma * exp(-t / tau)

to per-pixel cumulative strain curves (an incremental stack is summed into
them block by block, inside the fit).  The Jacobian is analytic
(d/d_eta = 1, d/d_gamma = exp(-t/tau), d/d_tau = gamma * t/tau^2 * exp(-t/tau))
and the damping acts on the diagonal of J^T J (Marquardt scaling), which
keeps the step scale-invariant.  tau is clamped to [T_s / 10, 100 * duration]
(T_s the sampling interval) so noise-dominated pixels cannot run off to
infinity.

All pixels of a stack are fitted by one engine whose iteration is vectorized
over pixels, each pixel carrying its own parameters, damping and convergence
state.  Every operation of an iteration acts on each pixel's row alone, so a
pixel's result does not depend on which other pixels share its batch: it is
the same bit for bit whether the pixel is fitted alone, in a block or in the
whole stack.  The engine uses that to bound its memory and its work.  It
gathers pixels in blocks (about 1000 rows of 300 samples) from a source
that makes each block on demand, so the stack being fitted need never
exist whole, and drops pixels from a block as they converge.  It can fit
several arms at once, each applying its own denoiser to every block
before the fit.  After a short first phase it pools each arm's pixels
still iterating in all blocks (the stragglers) into one batch, so a slow
pixel costs one batch's iterations rather than one per block.  The
(block, arm) tasks of the first phase run on a thread pool, by default one
thread per usable CPU (numpy releases the interpreter lock inside its
array loops); since rows are independent, the results are the same as
from one thread.  A stack is the one-arm case of the engine, and a single
curve its one-pixel case.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .phantom import InputError, StrainStack, frame_times


# Marquardt damping: the starting value, and the factor it is divided by
# after an accepted step and multiplied by after a rejected one
INITIAL_DAMPING = 1e-3
DAMPING_FACTOR = 10.0
_DAMPING_CAP = 1e14
# bytes per (rows, n_samples) float64 array of one pixel block of the fit
# and of the spline (about 1092 rows at 300 samples): blocks bound the
# temporaries alive at once and give the fit's threads work to share.  The
# time per row-iteration hardly depends on it: on one thread of a 2-core Xeon
# VM, 3 iterations over 16384 rows took 0.19-0.29 s at 64 to 4096 rows per
# block, and 0.42-0.46 s as one block
_BLOCK_BYTES = 5 << 19
# every pixel block but the last holds a multiple of this many pixels: BLAS
# then gives a block's K @ frames[:, block] the bits of the whole product's
# columns at pixel counts that are multiples of 8 (OpenBLAS 0.3.31), so 128x128
# Kalman results keep their bits (1093-pixel blocks change 72 pixels' series)
_BLOCK_ALIGN = 64
# iterations each block runs before the pixels still active in all blocks are
# pooled into one batch: otherwise every block that holds one slow pixel
# would pay that pixel's iterations in per-call overhead
_FIRST_PHASE = 16
# fewest samples a curve fit takes (the model has three parameters)
MIN_FRAMES = 4


# the CPUs this process may use: the threads a block loop runs on by default
# and the most worker processes run_grid starts
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# the block loops running in this process, which share BLAS's process-wide
# thread count, and the count the first of them found; _blas_lock guards
# both, and is held only around them and BLAS's get and set, never a block
_blas_lock = threading.Lock()
_blas_loops = 0
_blas_before = 0


@dataclass(frozen=True)
class LMConfig:
    """Stopping rules: the iteration cap and the tolerance of the two
    convergence tests, relative to the cost and absolute on max |J^T r|."""

    max_iterations: int = 200
    rel_tolerance: float = 1e-10

    def __post_init__(self):
        for name in ("max_iterations", "rel_tolerance"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations}")

    @staticmethod
    def resolve_bounds(times):
        """The tau interval for these sample times: one tenth of the sampling
        interval up to one hundred times the last sample time."""
        floor = (times[1] - times[0]) / 10.0
        ceil = 100.0 * times[-1]
        if not floor < ceil:
            raise ValueError(f"tau floor {floor} must be below tau ceiling {ceil}")
        return floor, ceil


@dataclass
class ExpFit:
    """Result of fitting one curve; tau is NaN when the input was degenerate."""

    eta: float
    gamma: float
    tau: float
    residual_norm: float
    iterations: int
    converged: bool


@dataclass
class TCImage:
    """Estimated time-constant map with per-pixel convergence flags."""

    tau_map: np.ndarray
    converged_mask: np.ndarray


def exp_model(t, eta, gamma, tau):
    return eta + gamma * np.exp(-np.asarray(t, dtype=np.float64) / tau)


def initial_guess(times, values):
    """Starting points (eta0, gamma0, tau0), one per row of the (P, n) values,
    for the LM iteration.

    eta0 is the mean of the last 10% of a row's samples (the curve has
    flattened there), gamma0 its first sample minus eta0, and tau0 the
    earliest time at which |row - eta0| has decayed to |gamma0|/e, found by
    scanning; one third of the total duration when there is no crossing.
    """
    n = values.shape[1]
    n_tail = max(1, int(round(0.1 * n)))
    # sum the tail one sample column at a time, in order, so that eta0 does
    # not depend on the memory layout of values: numpy sums a C-ordered row
    # pairwise but an F-ordered one sample by sample
    eta0 = functools.reduce(np.add, values[:, -n_tail:].T) / n_tail
    gamma0 = values[:, 0] - eta0
    dev = np.subtract(values, eta0[:, None])
    np.abs(dev, out=dev)
    crossed = dev <= (np.abs(gamma0) / np.e)[:, None]
    has_crossing = crossed.any(axis=1)
    tau0 = np.where(has_crossing, times[crossed.argmax(axis=1)], times[-1] / 3.0)
    return eta0, gamma0, tau0


def _trial(times, y, eta, gamma, tau, out=None):
    """Decay rows E = exp(-t / tau), residual rows y - (eta + gamma * E) and
    their squared norms.  The residual is built in place: the same
    arithmetic as the written expression without its two temporaries.
    out, a pair of arrays shaped like y, receives E and the residual rows
    instead of two new arrays."""
    E, resid = out if out is not None else (np.empty(y.shape), np.empty(y.shape))
    np.divide(-times[None, :], tau[:, None], out=E)
    np.exp(E, out=E)
    np.multiply(gamma[:, None], E, out=resid)
    resid += eta[:, None]
    np.subtract(y, resid, out=resid)
    return E, resid, np.einsum("pn,pn->p", resid, resid)


def _normal_equations(times, E, resid, gamma, tau):
    """Per-row J^T J (p, 3, 3) and J^T r (p, 3) from the decay rows E and the
    residual rows; the tau column G of the Jacobian lives only in here."""
    G = np.multiply((gamma / tau ** 2)[:, None], times[None, :])
    G *= E
    jtj = np.empty((E.shape[0], 3, 3))
    jtj[:, 0, 0] = E.shape[1]
    jtj[:, 0, 1] = jtj[:, 1, 0] = E.sum(axis=1)
    jtj[:, 0, 2] = jtj[:, 2, 0] = G.sum(axis=1)
    jtj[:, 1, 1] = np.einsum("pn,pn->p", E, E)
    jtj[:, 1, 2] = jtj[:, 2, 1] = np.einsum("pn,pn->p", E, G)
    jtj[:, 2, 2] = np.einsum("pn,pn->p", G, G)
    jtr = np.stack([resid.sum(axis=1),
                    np.einsum("pn,pn->p", E, resid),
                    np.einsum("pn,pn->p", G, resid)], axis=1)
    return jtj, jtr


def _block_edges(n_pix, n_samples):
    """Edges of the pixel blocks of n_pix rows of n_samples float64 values:
    the fewest blocks that hold at most _BLOCK_BYTES on average, their row
    count rounded up to a multiple of _BLOCK_ALIGN, and a last block of the
    rest."""
    n_blocks = max(1, -(-n_pix * n_samples * 8 // _BLOCK_BYTES))
    rows = max(1, -(-n_pix // (n_blocks * _BLOCK_ALIGN))) * _BLOCK_ALIGN
    return [0, *range(rows, n_pix, rows), n_pix]


def _map_blocks(block_map, stack: StrainStack) -> StrainStack:
    """The stack, of the same kind, whose (n_frames, pixels) frames are
    block_map applied on the fit's pool to each of the fit's pixel blocks
    of stack's, on which the grid denoises inside the fit.  block_map(block,
    out) writes its result into out, the block's columns of the new frames."""
    n = stack.n_frames
    flat = stack.frames.reshape(n, -1)
    out = np.empty(flat.shape)
    edges = _block_edges(flat.shape[1], n)
    with _fit_pool(len(edges) - 1) as run:
        list(run(lambda lo, hi: block_map(flat[:, lo:hi], out[:, lo:hi]), edges[:-1], edges[1:]))
    return StrainStack(out.reshape(stack.frames.shape), stack.sample_time_s, stack.kind)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles;
    get returns 0 and set does nothing where it or its symbols are absent."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        for name in sorted(os.listdir(libs)):
            if name.startswith("libscipy_openblas"):
                lib = ctypes.CDLL(os.path.join(libs, name))
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    except (OSError, AttributeError):
        pass
    return (lambda: 0), (lambda threads: None)


@contextlib.contextmanager
def _fit_pool(tasks, threads=None):
    """A map for `tasks` calls that runs them on min(tasks, threads or
    _CPUS) threads, or the builtin map for one (a pool thread's allocator
    would keep its block temporaries beside the caller's), while BLAS runs
    on one thread.  Otherwise each thread's K @ block products would start
    BLAS threads of their own on the same CPUs, and at some pixel counts a
    product's last bits would depend on BLAS's thread count.  That count is
    process-wide, so loops that overlap share one cap: the first to start
    saves the count and sets 1, the last to end sets the saved count back.
    The pool lives only for the block: run_grid forks its worker processes,
    and no thread may be alive at a fork."""
    global _blas_loops, _blas_before
    get, set_ = _openblas_threads()
    with _blas_lock:
        if not _blas_loops:
            _blas_before = get()
            set_(1)
        _blas_loops += 1
    try:
        threads = min(tasks, threads or _CPUS)
        if threads < 2:
            yield map
        else:
            with ThreadPoolExecutor(threads) as pool:
                yield pool.map
    finally:
        with _blas_lock:
            _blas_loops -= 1
            if not _blas_loops:
                set_(_blas_before)


def _lm_engine(times, source, n_pix, config, denoisers=(None,), incremental=False,
               threads=None):
    """Vectorized LM over n_pix curves or, when incremental, over their
    increments, which each block sums once gathered; the curves are fitted
    once per denoiser (an arm).  source(lo, hi) returns the
    (n_samples, hi - lo) samples of pixels lo to hi - 1; it is called once
    per pixel block, in pixel order, never by two threads at once, and
    every arm gathers the block it returns.  A denoiser, unless None, maps
    the block to a new one for its arm before that (see kalman.smoother
    and spline.interpolator).

    Returns a list with one (eta, gamma, tau, residual_norm, iterations,
    converged) tuple of arrays per arm, and an array of the seconds each
    arm's tasks took (a block's source call counts towards its first arm's
    task).  Constant curves are degenerate for this model: they get
    eta = value, gamma = 0, tau = NaN and converged = False without
    iterating.

    Pixels run in blocks of _BLOCK_BYTES per (rows, n_samples) array for
    _FIRST_PHASE iterations, each (block, arm) pair one task, on at most
    `threads` threads (_fit_pool's default when None).  A task claims the
    next pair from one counter; a block's first arm's claim makes it, and
    its last arm's claim lets it go.  Each arm's pixels still active in
    all blocks then run the remaining iterations as one pooled batch, the
    arms' batches side by side.  Tasks share only their arm's output
    arrays, and write disjoint rows of them.  A row whose step is
    rejected at the damping cap would repeat it up to the iteration cap,
    so it stops at once with the cap's count.  A batch's state is the list
    [rows, y, E, resid, cost]: the output indices of its active pixels,
    their data, decay and residual rows, and current costs, compacted
    whenever a pixel finishes.  A trial step writes its decay and residual
    rows over E and resid and rebuilds the rejected rows from their kept
    parameters, so a batch holds no second set of trial rows.
    """
    n = times.size
    tau_floor, tau_ceil = config.resolve_bounds(times)
    # per arm: eta, gamma, tau, damping, iterations, converged, cost
    outs = [(np.empty(n_pix), np.empty(n_pix), np.empty(n_pix),
             np.full(n_pix, INITIAL_DAMPING), np.zeros(n_pix, dtype=np.int64),
             np.zeros(n_pix, dtype=bool), np.zeros(n_pix)) for _ in denoisers]

    edges = _block_edges(n_pix, n)
    lock = threading.Lock()
    claims = itertools.count()
    # the block whose arms are being claimed, until its last arm's claim
    block = None

    def start():
        # y, which the denoiser or the sum rebinds, is the task's only
        # reference to the raw block, so no task keeps it while it iterates
        nonlocal block
        with lock:
            b, arm = divmod(next(claims), len(denoisers))
            lo, hi = edges[b], edges[b + 1]
            y = block if arm else source(lo, hi)
            block = None if arm == len(denoisers) - 1 else y
        eta, gamma, tau, *_, cost_out = outs[arm]
        if denoisers[arm] is not None:
            y = denoisers[arm](y)
        if incremental:
            # along a row, add.accumulate adds in cumulate()'s frame order,
            # read straight from the strided view
            y = np.cumsum(y.T, axis=1, out=np.empty((hi - lo, n)))
        else:
            y = np.ascontiguousarray(y.T)
        e, g, t = initial_guess(times, y)
        t = np.clip(t, tau_floor, tau_ceil)
        degenerate = np.ptp(y, axis=1) == 0.0
        e[degenerate] = y[degenerate, 0]
        g[degenerate] = 0.0
        t[degenerate] = np.nan
        eta[lo:hi], gamma[lo:hi], tau[lo:hi] = e, g, t
        live = np.flatnonzero(~degenerate)
        if live.size < y.shape[0]:
            y, e, g, t = y[live], e[live], g[live], t[live]
        rows = lo + live
        E, resid, cost = _trial(times, y, e, g, t)
        cost_out[rows] = cost
        return arm, [rows, y, E, resid, cost]

    def iterate(arm, state, n_iter):
        # take the only references to the state's arrays, so that each
        # superseded array is freed at once: a block's peak memory is the
        # number of its (rows, n_samples) arrays alive together
        rows, y, E, resid, cost = state
        state.clear()
        eta, gamma, tau, lam, iterations, converged, cost_out = outs[arm]
        for _ in range(n_iter):
            if rows.size == 0:
                break
            e, g, tv, la = eta[rows], gamma[rows], tau[rows], lam[rows]
            jtj, jtr = _normal_equations(times, E, resid, g, tv)
            grad_small = np.abs(jtr).max(axis=1) <= config.rel_tolerance
            diag = jtj.diagonal(axis1=1, axis2=2)
            # keep the damped system nonsingular even when a Jacobian column
            # vanishes (gamma = 0 zeroes the tau column)
            diag = np.maximum(diag, 1e-12 * diag.max(axis=1, keepdims=True))
            jtj[:, [0, 1, 2], [0, 1, 2]] += la[:, None] * diag
            step = np.linalg.solve(jtj, jtr[:, :, None])[:, :, 0]

            e_new = e + step[:, 0]
            g_new = g + step[:, 1]
            t_new = np.clip(tv + step[:, 2], tau_floor, tau_ceil)
            _, _, cost_new = _trial(times, y, e_new, g_new, t_new, out=(E, resid))

            accept = cost_new < cost
            reject = ~accept
            iterations[rows] += 1
            acc_idx = rows[accept]
            eta[acc_idx] = e_new[accept]
            gamma[acc_idx] = g_new[accept]
            tau[acc_idx] = t_new[accept]
            lam[acc_idx] = la[accept] / DAMPING_FACTOR
            lam[rows[reject]] = np.minimum(la[reject] * DAMPING_FACTOR, _DAMPING_CAP)
            small_reduction = accept & ((cost - cost_new) <= config.rel_tolerance * cost)
            done = small_reduction | grad_small
            # a row rejected at the damping cap would take the same step
            # again at every iteration up to the cap
            stalled = reject & (la == _DAMPING_CAP) & ~done
            iterations[rows[stalled]] = config.max_iterations
            converged[rows[done]] = True
            keep = ~(done | stalled)

            # a rejected row that goes on gets back the rows of its kept
            # parameters, bit for bit, since a row's E and residual depend
            # on it alone
            back = reject & keep
            if back.any():
                E[back], resid[back], _ = _trial(times, y[back], e[back], g[back], tv[back])
            cost_new[reject] = cost[reject]
            cost = cost_new
            cost_out[rows] = cost
            if not keep.all():
                rows, cost = rows[keep], cost[keep]
                y = y[keep]
                E = E[keep]
                resid = resid[keep]
        return [rows, y, E, resid, cost]

    first = min(_FIRST_PHASE, config.max_iterations)
    stragglers = [[] for _ in denoisers]

    def first_phase(_):
        t0 = time.perf_counter()
        arm, state = start()
        return arm, iterate(arm, state, first), time.perf_counter() - t0

    def last_phase(arm):
        t0 = time.perf_counter()
        pooled = [np.concatenate(parts) for parts in zip(*stragglers[arm])]
        stragglers[arm] = None
        iterate(arm, pooled, config.max_iterations - first)
        return time.perf_counter() - t0

    n_tasks = (len(edges) - 1) * len(denoisers)
    seconds = np.zeros(len(denoisers))
    with _fit_pool(n_tasks, threads) as run:
        for arm, state, dt in run(first_phase, range(n_tasks)):
            stragglers[arm].append(state)
            seconds[arm] += dt
        seconds += list(run(last_phase, range(len(denoisers))))
    fits = [(eta, gamma, tau, np.sqrt(cost), iterations, converged)
            for eta, gamma, tau, _, iterations, converged, cost in outs]
    return fits, seconds


def fit_exponential(times, values, config: LMConfig = LMConfig()) -> ExpFit:
    """Fit the creep model to a single curve.

    times must be strictly increasing with at least 4 samples.  A constant
    curve cannot constrain tau and is reported as non-converged with
    gamma = 0 rather than raising.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.ndim != 1 or values.shape != times.shape:
        raise ValueError("times and values must be matching 1-D vectors")
    if times.size < MIN_FRAMES:
        raise ValueError(f"need at least {MIN_FRAMES} samples, got {times.size}")
    for name, array in (("times", times), ("values", values)):
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    [(eta, gamma, tau, rnorm, iters, conv)], _ = _lm_engine(
        times, lambda lo, hi: values[:, None], 1, config)
    return ExpFit(float(eta[0]), float(gamma[0]), float(tau[0]),
                  float(rnorm[0]), int(iters[0]), bool(conv[0]))


def fit_stack(stack: StrainStack, config: LMConfig = LMConfig()) -> TCImage:
    """Fit every pixel of a stack and assemble the TC image.

    A cumulative stack is fitted as it is.  An incremental one is summed
    into cumulative curves one block of pixels at a time inside the fit, so
    no cumulative stack is allocated; the sums, and so the fit, are bit for
    bit those of fit_stack(cumulate(stack)).  A stack of fewer than
    MIN_FRAMES frames is refused with InputError.
    """
    n, height, width = stack.frames.shape
    if n < MIN_FRAMES:
        raise InputError(f"a fit needs at least {MIN_FRAMES} frames, got {n}")
    times = frame_times(n, stack.sample_time_s)
    values = stack.frames.reshape(n, height * width)
    [(_, _, tau, _, _, conv)], _ = _lm_engine(
        times, lambda lo, hi: values[:, lo:hi], height * width, config,
        incremental=stack.kind == "incremental")
    return TCImage(tau.reshape(height, width), conv.reshape(height, width))


def cumulate(stack: StrainStack) -> StrainStack:
    """Running sum of an incremental stack along the frame axis."""
    if stack.kind != "incremental":
        raise InputError("expected an incremental stack, got a cumulative one")
    return StrainStack(np.cumsum(stack.frames, axis=0), stack.sample_time_s, "cumulative")

