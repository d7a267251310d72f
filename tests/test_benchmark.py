"""The benchmark's toy-size self-check, run with the tests.

An engine change that breaks a span wrapper, a metric or an output check of
`bench/` fails here, not only in the benchmark pipeline. The checks are
those of `bench/quick_check.py`, driven through its own helpers, with one
difference: quick_check asserts that every traced workload calls
`layers.model_forward`, but training and scoring now run the batched engine
(`forward_batch`), so only `predict_stream` calls it. Here the traced
training and scoring runs must instead show time in the batched scans.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import quick_check  # noqa: E402  (benchmark module)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_benchmark_declaration_matches_runner():
    assert END_TO_END == quick_check.run.END_TO_END
    assert PER_LAYER == quick_check.run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(quick_check.run.NAMES)
    quick_check.check_generator()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks_its_outputs(workload):
    proc = quick_check._run(workload, 0)
    result = quick_check._result(proc)
    assert result["correct"] and result["failed"] == 0, result
    quick_check.check_metrics(END_TO_END, result, f"{workload} trace 0")
    lines = [line.split() for line in proc.stdout.splitlines()]
    for name, unit in quick_check.HEADLINE_LINES[workload].items():
        assert [name, "=", unit] in [[f[0], f[1], f[3]] for f in lines if len(f) == 4], name

    traced = quick_check._result(quick_check._run(workload, 1))
    assert traced["correct"] and traced["failed"] == 0, traced
    quick_check.check_metrics(PER_LAYER, traced, f"{workload} trace 1")
    metrics = {name: entry["value"] for name, entry in traced["metrics"].items()}
    assert metrics["layers.gru_scan_s"] > 0 and metrics["layers.lstm_scan_s"] > 0
    assert metrics["layers.scan_rows"] > 0 and metrics["tensor_math.affine_calls"] > 0
    if workload == "predict_stream":
        assert metrics["layers.model_forward_calls"] > 0
    if workload in quick_check.PEAK_METRIC:
        assert metrics[quick_check.PEAK_METRIC[workload]] > 0

    bad = quick_check._result(quick_check._run(workload, 0, "--corrupt-op", "0"))
    assert not bad["correct"]
    assert bad["failed"] == quick_check.CORRUPT_FAILS[workload]


def test_checkout_without_program_fails():
    quick_check.check_empty_checkout()
