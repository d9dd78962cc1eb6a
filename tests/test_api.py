import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import straintc

# The public surface is pinned so that any change to it shows up as an edit
# of this list; it is meant to shrink, not grow.
PUBLIC_NAMES = {
    "StrainStack", "FrameQualityMask", "NoiseSpec", "KalmanSpec", "LMConfig",
    "preset", "synth_incremental", "synth_cumulative", "tau_map", "frame_times",
    "inclusion_mask",
    "place_bad_frames", "add_noise",
    "kalman_denoise", "reconstruct_stack",
    "cumulate", "fit_stack", "fit_exponential", "exp_model",
    "compute_pre", "run_grid", "format_grid_table", "detect_bad_frames",
}

REPO = Path(__file__).resolve().parents[1]
SPANS_PATH = REPO / "perfbench" / "spans.py"
TRACED_MODULES = ("phantom", "degrade", "spline", "kalman", "fit", "evaluate",
                  "stackio", "cli")


def test_public_names_are_pinned():
    assert len(straintc.__all__) == len(set(straintc.__all__)) == 23
    assert set(straintc.__all__) == PUBLIC_NAMES
    assert all(hasattr(straintc, name) for name in straintc.__all__)
    # the package is the only place that declares the public surface
    for info in pkgutil.iter_modules(straintc.__path__):
        module = importlib.import_module(f"straintc.{info.name}")
        assert not hasattr(module, "__all__"), info.name


def test_no_test_only_code_in_src():
    # every top-level function and class of the package is public or used by
    # the program or the benchmark: a second copy of a stage that only the
    # tests call would be checked in place of the code that runs
    program = sorted((REPO / "src" / "straintc").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in program + sorted((REPO / "perfbench").glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{path.name}:{node.name}" for path in program for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in straintc.__all__ and node.name not in used]
    assert not unused, f"defined in src but used only by tests, if at all: {unused}"


def test_only_stackio_opens_files():
    # every file the program writes or reads has one format, kept in stackio
    opened = []
    for path in sorted((REPO / "src" / "straintc").glob("*.py")):
        if path.name == "stackio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        opened += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not opened, f"files opened outside stackio: {opened}"


def test_package_imports_at_module_level():
    # an import inside a function can hide an import cycle between two
    # modules of the package; every one of them sits at the top of its module
    nested = []
    for path in sorted((REPO / "src" / "straintc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, ast.ImportFrom)
                           and (node.level or (node.module or "").startswith("straintc"))]
    assert not nested, f"package imports inside functions: {nested}"


def test_benchmark_trace_wrappers_install_and_restore(monkeypatch):
    # the traced benchmark run wraps module attributes by name; a renamed or
    # removed one would only show there, so install its wrappers here, run a
    # small grid and a detection through them, and take them off again
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being defined
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    program = {name: importlib.import_module(f"straintc.{name}") for name in TRACED_MODULES}
    before = {name: dict(vars(module)) for name, module in program.items()}
    tracer = spans.Tracer()
    try:
        spans.install_program_wrappers(tracer, program)
        evaluate, fit = program["evaluate"], program["fit"]
        assert hasattr(fit.fit_stack, "__wrapped__")
        tracer.request = 0
        evaluate.run_grid(samples=("A",), snrs=(60.0,), fractions=(0.75,), trials=1,
                          width=8, height=8)
        stack = program["phantom"].synth_incremental(
            program["phantom"].preset("A", width_px=8, height_px=8))
        evaluate.detect_bad_frames(stack)
        # the grid fits incremental stacks, so only a direct call reaches it
        fit.cumulate(stack)
        tracer.fit_lm_sample(fit.fit_exponential)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"evaluate.run_grid", "fit.fit_stack", "fit.cumulate",
            "kalman.kalman_denoise", "spline.reconstruct_stack",
            "evaluate.detect_bad_frames"} <= names
    assert tracer.counts["fit.pixels"] == 3 * 64
    assert len(tracer.lm_iterations) == 3 * spans.LM_SAMPLE_PIXELS
    for name, module in program.items():
        after = vars(module)
        assert after.keys() == before[name].keys(), name
        assert all(after[key] is value for key, value in before[name].items()), name
