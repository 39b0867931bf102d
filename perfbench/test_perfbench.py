"""Tests of the benchmark itself, kept out of the package's test run.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import pairmeasure  # noqa: E402
import pairmeasure.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 8
RUN_TIMEOUT_S = 120


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=RUN_TIMEOUT_S,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_at_tiny_size(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", trace, "--lattice", str(TINY))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    assert info["blas_threads"] <= info["nproc"]


def test_printed_metric_names_are_declared():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert run.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {w["name"] for w in DECLARED["workloads"]} <= set(run.WORKLOADS)


def test_wrong_expected_verdict_counts_as_failed(tmp_path):
    workload = workloads.build("classify-files", 5, TINY, tmp_path)
    good = workload.cases[0]
    wrong = workloads.Case(
        label="wrong", run=good.run, observe=good.observe,
        expected=[workloads.Expected("BothZero", good.expected[0].probability)],
    )
    loop = workloads.run_loop([wrong, good], seconds=0.0)
    assert loop.attempted == 1
    assert len(loop.failures) == 1 and "verdict" in loop.failures[0]
    assert loop.durations == []

    loop = workloads.run_loop([good], seconds=0.0)
    assert loop.failures == [] and len(loop.durations) == 1


def test_wrong_expected_probability_counts_as_failed():
    workload = workloads.build("scenario-dense", 5, TINY, Path("."))
    case = workload.cases[0]
    case.expected[1] = workloads.Expected(
        workloads.ENTANGLING, 2.0 / TINY**2, rank=2, entropy=workloads.LN2, phase=True
    )
    loop = workloads.run_loop([case], seconds=0.0)
    assert len(loop.failures) == 1 and "probability" in loop.failures[0]


def _profiled_counts(call, functions):
    """Calls of each original function counted by the interpreter's profiler."""
    codes = {fn.__code__: key for key, fn in functions.items()}
    counts = dict.fromkeys(functions, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


def _traced_counts(call):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer.calls


def _scenario_calls():
    space = pairmeasure.SpaceSpec(TINY, 2)
    stat = pairmeasure.Statistics.FERMION
    return {
        "momentum": lambda: pairmeasure.scenario_momentum_projection(space, 1, 5, stat),
        "windows": lambda: pairmeasure.scenario_position_windows(
            space, 1, None, 2, 5, 1, stat),
    }


def test_tracer_counts_seed_pipeline_per_scenario_call():
    # The pipeline's call counts when the benchmark was defined: ROADMAP item 2
    # (compute each quantity once) is judged on them.
    for name, call in _scenario_calls().items():
        calls = _traced_counts(call)
        assert calls["measurement.apply_measure"] == 7, name
        assert calls["measurement.events"] == 2, name
        assert calls["entanglement.schmidt"] == 3, name


def test_tracer_counts_seed_pipeline_per_classify_call(tmp_path):
    workload = workloads.build("classify-files", 5, TINY, tmp_path)
    calls = _traced_counts(workload.cases[0].run)
    assert calls["measurement.apply_measure"] == 5
    assert calls["measurement.is_projector_valued"] == 1


def test_tracer_sees_every_call_the_profiler_sees(tmp_path):
    functions = {
        "measurement.apply_measure": pairmeasure.apply_measure,
        "measurement.events": pairmeasure.events,
        "measurement.collapse": pairmeasure.collapse,
        "measurement.is_projector_valued": pairmeasure.is_projector_valued,
        "entanglement.schmidt": pairmeasure.schmidt,
        "hilbert.plane_wave": pairmeasure.plane_wave,
        "symmetry.permute": pairmeasure.permute,
        "fileio.parse_measure_file": pairmeasure.parse_measure_file,
    }
    classify = workloads.build("classify-files", 5, TINY, tmp_path).cases[0].run
    for call in [*_scenario_calls().values(), classify]:
        traced = _traced_counts(call)
        assert {key: traced[key] for key in functions} == _profiled_counts(call, functions)


def test_tracer_restores_every_binding():
    before = {
        (module.__name__, name): value
        for module in [pairmeasure, pairmeasure.cli, pairmeasure.scenarios]
        for name, value in vars(module).items()
    }
    tracer = tracing.Tracer()
    tracer.install()
    assert pairmeasure.cli.schmidt is not before[("pairmeasure.cli", "schmidt")]
    tracer.uninstall()
    after = {
        (module.__name__, name): value
        for module in [pairmeasure, pairmeasure.cli, pairmeasure.scenarios]
        for name, value in vars(module).items()
    }
    assert after == before


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.build("cli-small", 9, TINY, tmp_path)
    second = workloads.build("cli-small", 9, TINY, tmp_path)
    assert [c.label for c in first.cases] == [c.label for c in second.cases]
    other = workloads.build("cli-small", 10, TINY, tmp_path)
    assert [c.label for c in first.cases] != [c.label for c in other.cases]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "scenario-dense", "--seed", "1", "--seconds", "1",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
