"""straintc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload grid128 --seed 1 --seconds 25 --trace 0

Run from the root of a straintc checkout; straintc is imported from its
src/ directory.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics, with --trace 1 the per-layer metrics of
a traced run.  The lines before it are a readable report with the
environment record, the failure fraction and the accuracy metrics.  Spans of
a traced run and the full result are written under .bench_out/.  The exit
code is 0 only if every request ran and matched the reference.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = {"grid128": 9, "grid32": 9, "repair128": 5}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better): what a user of straintc waits for, with no tracing
END_TO_END = (("setup_s", "s", "lower"),
              ("throughput_ops_s", "1/s", "higher"),
              ("latency_p50_s", "s", "lower"),
              ("latency_tail_s", "s", "lower"),
              ("peak_rss_mb", "MiB", "lower"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("grid128", "grid32", "repair128"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_threads(workload, traced):
    """Cap BLAS/OpenMP threads so that all processes together use at most
    nproc threads.  Must run before numpy is imported."""
    procs = 2 if (workload == "grid32" and not traced) else 1
    per_process = str(max(1, nproc() // procs))
    for var in THREAD_VARS:
        os.environ[var] = per_process
    return {var: per_process for var in THREAD_VARS}


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads):
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "python": platform.python_version(),
            "machine": platform.machine(), "nproc": nproc(), "git_sha": git_sha(),
            "threads": threads}


def peak_rss_mib(workers):
    """Peak resident memory of this process plus, on the process-pool
    workload, each worker at the largest worker's peak (an upper bound:
    RUSAGE_CHILDREN reports the largest waited-for child)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + workers * child_kib) / 1024.0


def end_to_end_metrics(setup_s, latencies, rss_mib):
    """End-to-end metrics keyed as in END_TO_END, as (value, unit)."""
    values = {"setup_s": setup_s,
              "throughput_ops_s": len(latencies) / sum(latencies),
              "latency_p50_s": statistics.median(latencies),
              # with a few dozen requests at most, no percentile above the
              # median has ten samples beyond it; the tail is the maximum
              "latency_tail_s": max(latencies),
              "peak_rss_mb": rss_mib}
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


def measure(workload, seconds, tracer):
    """Closed loop with one client: the next request starts when the last
    one and its check are done.  The run repeats one round, the first
    workload.round_size requests of the stream, until `seconds` have passed,
    so that runs of faster and slower code hold the same mix."""
    round_ = list(itertools.islice(workload.stream, workload.round_size))
    latencies, outs, failures = [], [], []
    start = time.perf_counter()
    for i, req in enumerate(itertools.cycle(round_)):
        if i % len(round_) == 0 and i and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            raw = workload.run(req)
            latency = time.perf_counter() - t0
        except Exception:  # a failed request is counted, not fatal
            latency = time.perf_counter() - t0
            failures.append(f"request {workload.request_key(req)} raised:\n"
                            + traceback.format_exc())
            raw = None
        finally:
            if tracer is not None:
                tracer.request = None
        latencies.append(latency)
        if raw is None:
            continue
        try:
            out = workload.collect(req, raw)
            problems = workload.check(req, out)
        except Exception:  # outputs missing or unreadable
            problems = ["outputs could not be read:\n" + traceback.format_exc()]
        else:
            outs.append(out)
        if problems:
            failures.append(f"request {workload.request_key(req)}: " + "; ".join(problems[:5]))
        if tracer is not None:
            tracer.fit_lm_sample(workload.program["fit"].fit_exponential)
    return latencies, outs, failures


def main(argv=None):
    args = parse_args(argv)
    traced = bool(args.trace)
    threads = cap_threads(args.workload, traced)
    if not (ROOT / "src" / "straintc" / "__init__.py").is_file():
        print(f"perfbench: no straintc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, traced,
                                       OUT_DIR / f"work-{os.getpid()}")
    tracer = None
    try:
        setup_s, setup_synth_s = workloads.median_setup(
            workload, args.seed, SETUP_REPS[args.workload])
        if traced:
            tracer = spans.Tracer()
            spans.install_program_wrappers(tracer, workload.program)
        latencies, outs, failures = measure(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup()

    n = len(latencies)
    env = environment(threads)
    accuracy = workload.accuracy(outs)
    failed = len(failures)
    if traced:
        metrics = spans.layer_metrics(tracer, latencies,
                                      workload.detect_counts(outs), setup_synth_s)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end_metrics(
            setup_s, latencies, peak_rss_mib(workload.workers))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {n}  worker processes {workload.workers}"
          + ("  (traced: one process)" if traced and args.workload == "grid32" else ""))
    print("env " + json.dumps(env))
    for name, (value, unit) in list(metrics.items()) + list(accuracy.items()):
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'failed_ops_frac':<40} {failed / n:.6g} frac")
    if not traced:
        print(f"  latency_tail_s is the maximum (p100) of {n} requests")
    for failure in failures:
        print("FAILED " + failure, file=sys.stderr)

    result = {"correct": failed == 0, "attempted": n, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "latencies_s": latencies,
                   "accuracy": {k: {"value": v, "unit": u} for k, (v, u) in accuracy.items()},
                   "failures": failures}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
