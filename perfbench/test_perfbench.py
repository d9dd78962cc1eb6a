"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_request_stream_is_deterministic_and_has_references(name):
    w = workloads.make_workload(name, False, ROOT / ".bench_out" / "unused")
    def first(seed, n=40):
        return list(itertools.islice(w.requests(seed), n))

    assert first(7) == first(7)
    if name != "grid128":  # grid128's stream is the same for every seed
        assert any(first(s) != first(7) for s in range(8))
    reference = workloads.load_reference()[name]
    assert all(w.request_key(req) in reference for s in range(20) for req in first(s))


def test_self_time_of_a_synthetic_span_tree():
    S = spans.Span
    tree = [S("root", 0.0, 10.0, -1, 0),
            S("a", 1.0, 4.0, 0, 0),
            S("a.1", 2.0, 3.0, 1, 0),
            S("b", 5.0, 9.0, 0, 0),
            S("c", 8.0, 9.5, 0, 0),       # overlaps b: counted once
            S("late", 9.8, 11.0, 0, 0)]   # runs past its parent: clipped
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 4.5 - 0.2,
                                                    2.0, 1.0, 4.0, 1.5, 1.2])


def _schema(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_emitted_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _schema(BENCHMARK["end_to_end"]) == list(run.END_TO_END)
    assert _schema(BENCHMARK["per_layer"]) == list(spans.PER_LAYER)
    e2e = run.end_to_end_metrics(0.5, [1.0, 2.0, 4.0], 100.0)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = spans.layer_metrics(spans.Tracer(), [1.0], (0, 0, 0), 0.0)
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert e2e["latency_p50_s"][0] == 2.0 and e2e["latency_tail_s"][0] == 4.0


def test_grid_check_admits_rounding_and_rejects_a_wrong_answer():
    w = workloads.make_workload("grid32", False, None)
    key = next(iter(w.reference))
    out = {k: list(v) for k, v in w.reference[key].items()}
    assert w.check(int(key), out) == []
    # a fit engine that moves tau by ~1e-8 relative moves PRE by ~1e-6 points
    assert w.check(int(key), {k: [p + 1e-6, c] for k, (p, c) in out.items()}) == []
    row = next(iter(out))
    out[row][0] += 1e-3
    assert w.check(int(key), out) != []


def test_corrupted_repair_is_reported_as_failed():
    w = workloads.make_workload("repair128", False, ROOT / ".bench_out" / "work-selftest")
    try:
        w.setup(0)
        req = next(w.stream)
        cli = w.program["cli"]
        honest = cli.reconstruct_stack

        def corrupt(stack, mask):
            out = honest(stack, mask)
            out.frames[mask.good_indices[0]] += 1e-12
            out.frames[mask.bad_indices[0]] *= 1.01
            return out

        cli.reconstruct_stack = corrupt
        out = w.collect(req, w.run(req))
        problems = w.check(req, out)
        assert any("good frame" in p for p in problems)
        assert any("err_spline" in p for p in problems)
    finally:
        w.cleanup()


def test_clean_repair_passes_and_matches_detector_counts():
    w = workloads.make_workload("repair128", False, ROOT / ".bench_out" / "work-selftest")
    try:
        w.setup(0)
        req = workloads.Cell("C", 30.0, 0.75, 1)
        out = w.collect(req, w.run(req))
        assert w.check(req, out) == []
        tp, flagged, bad = w.detect_counts([out])
        assert 0 < tp <= min(flagged, bad) and bad == out["n_bad"]
        assert np.isfinite(w.accuracy([out])["recon_err_spline"][0])
    finally:
        w.cleanup()


class _FlakyWorkload:
    """Stub workload: request 1 raises, request 2 fails its check."""

    name = "stub"
    workers = 0
    round_size = 4
    program = {}

    def setup(self, seed):
        self.stream = iter(range(10))
        return {"total": 0.0, "synth": 0.0}

    def request_key(self, req):
        return str(req)

    def run(self, req):
        if req == 1:
            raise RuntimeError("boom")
        return req

    def collect(self, req, raw):
        return {"value": raw}

    def check(self, req, out):
        return ["wrong value"] if req == 2 else []

    def accuracy(self, outs):
        return {}

    def detect_counts(self, outs):
        return (0, 0, 0)

    def cleanup(self):
        pass


def test_measure_counts_raised_and_wrong_requests_and_repeats_one_round():
    w = _FlakyWorkload()
    w.setup(0)
    latencies, outs, failures = run.measure(w, 0.0, None)
    assert len(latencies) == w.round_size and len(failures) == 2
    assert "raised" in failures[0] and "wrong value" in failures[1]
    assert [o["value"] for o in outs] == [0, 2, 3]
    # once the time is up the run still ends on a whole round
    w.setup(0)
    latencies, _, failures = run.measure(w, 1e-9, None)
    assert len(latencies) == w.round_size and len(failures) == 2


def test_main_exits_nonzero_when_a_request_fails(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "cap_threads", lambda workload, traced: {})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "make_workload",
                        lambda name, traced, workdir: _FlakyWorkload())
    assert run.main(["--workload", "grid32", "--seed", "0", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 2)


@pytest.mark.parametrize("size", [workloads.SIZE_FULL, workloads.SIZE_REDUCED])
def test_lm_sample_spreads_over_rows_and_columns_and_hits_the_inclusion(size):
    from straintc import phantom
    idx = spans.lm_sample_indices(size, size)
    assert len(set(idx // size)) == len(set(idx % size)) == spans.LM_SAMPLE_PIXELS
    for sample in "ABC":
        inside = phantom.inclusion_mask(phantom.preset(sample, width_px=size, height_px=size))
        assert inside.ravel()[idx].any() and not inside.ravel()[idx].all()
