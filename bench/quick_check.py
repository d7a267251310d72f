"""Quick self-check of the benchmark at toy shapes (well under a minute).

    python3 bench/quick_check.py

Checks, for every workload, that an untraced and a traced run exit 0, pass
their output checks, and print every metric named in BENCHMARK.json with its
unit; that the headline metrics appear by name in the human-readable lines;
that a deliberately corrupted output is counted as a failed operation; that
generated raw text cleans to the intended content tokens; and that a
directory holding only BENCHMARK.json and the benchmark files makes the
benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (benchmark module, next to this file)

# Operations a corrupted first group must add to `failed`, at toy size.
CORRUPT_FAILS = {"train_reviews": 1, "score_reviews": 16, "predict_stream": 1}
PEAK_METRIC = {"train_reviews": "training.fit_peak_alloc_mb",
               "score_reviews": "evaluation.evaluate_model_peak_alloc_mb"}
# Names the human-readable lines must show, with their units.
HEADLINE_LINES = {
    "train_reviews": {"train_examples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"},
    "score_reviews": {"score_examples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"},
    "predict_stream": {"predict_latency_p50_ms": "ms", "predict_latency_p99_ms": "ms",
                       "setup_s": "s", "peak_rss_mb": "MB"},
}


def _run(workload, trace, *extra, cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "5",
           "--seconds", "0.5", "--trace", str(trace), "--size", "toy", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(expected, result, label):
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {got} != {expected}"
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), f"{label}: {name}"


def check_generator():
    import gen
    from opinionminer import text_pipeline

    words = gen.word_list(5, gen.TOY, text_pipeline.default_stopwords())
    corpus = gen.vocabulary_corpus(5, gen.TOY, words)
    for raw, clean in zip(corpus.raw, corpus.clean):
        assert text_pipeline.clean_text(raw) == clean, (raw, clean)
    assert len(set(" ".join(corpus.clean).split())) >= gen.TOY.vocab_size - 2
    again = gen.vocabulary_corpus(5, gen.TOY, words)
    assert again.raw == corpus.raw, "same seed must give the same inputs"


def check_empty_checkout():
    """Only BENCHMARK.json and bench/: the run must fail and print no result."""
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    try:
        proc = _run("predict_stream", 0, cwd=bare, script=bare / "bench" / "run.py")
        assert proc.returncode != 0, "bare checkout must fail"
        assert '"correct"' not in proc.stdout, "bare checkout must print no result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END"
    assert per_layer == run.per_layer_units(), "BENCHMARK.json per_layer != run.py"
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)

    sys.path.insert(0, str(ROOT / "src"))
    check_generator()
    for workload in run.NAMES:
        proc = _run(workload, 0)
        result = _result(proc)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        check_metrics(end_to_end, result, f"{workload} trace 0")
        lines = [line.split() for line in proc.stdout.splitlines()]
        for name, unit in HEADLINE_LINES[workload].items():
            assert any(len(f) == 4 and f[0] == name and f[1] == "=" and f[3] == unit
                       for f in lines), f"{workload}: no '{name} = <value> {unit}' line"
        traced = _result(_run(workload, 1))
        assert traced["correct"] and traced["failed"] == 0, (workload, traced)
        check_metrics(per_layer, traced, f"{workload} trace 1")
        assert traced["metrics"]["layers.model_forward_calls"]["value"] > 0
        if workload in PEAK_METRIC:
            assert traced["metrics"][PEAK_METRIC[workload]]["value"] > 0, workload

        bad = _result(_run(workload, 0, "--corrupt-op", "0"))
        assert not bad["correct"], f"{workload}: corrupted output passed"
        assert bad["failed"] == CORRUPT_FAILS[workload], (workload, bad["failed"])
        print(f"{workload}: ok ({result['attempted']} operations; corrupted run "
              f"counted {bad['failed']} failed)")
    check_empty_checkout()
    print("quick check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
