"""opinionminer benchmark: one workload per process, or all of them.

    python3 bench/run.py --workload train_reviews --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A single-workload run generates its inputs from --seed, times the program's
set-up calls, runs operations until --seconds of operation time have passed,
checks every output, and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics. `--trace 1` wraps the program's public functions in
spans and reports the per-layer metrics instead; it runs a fixed number of
operation groups rather than --seconds, so its counts repeat exactly for a
seed and two commits' layer times cover the same work. `--workload all` runs
every workload untraced and traced, each in a fresh process one after
another, and prints the summary with the tracing overhead.

The program is imported from `src/` next to this directory; a checkout
without it is an error (exit 2) and prints no result.
"""

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("train_reviews", "score_reviews", "predict_stream")
SETUP_REPEATS = {"train_reviews": 3, "score_reviews": 5, "predict_stream": 5}

END_TO_END = {
    "examples_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The name each headline metric has for its workload.
HEADLINE = {
    "train_reviews": {"examples_per_s": "train_examples_per_s"},
    "score_reviews": {"examples_per_s": "score_examples_per_s"},
    "predict_stream": {"latency_p50_ms": "predict_latency_p50_ms",
                       "latency_p99_ms": "predict_latency_p99_ms"},
}
OPERATION = {"train_reviews": "Adam step", "score_reviews": "scored review",
             "predict_stream": "request"}
LATENCY_UNIT = {"train_reviews": "fit call (one Adam step)",
                "score_reviews": "CLI evaluate call", "predict_stream": "request"}

# Span groups reported with inclusive and self time.
TIMED_GROUPS = (
    "text_pipeline.load_dataset", "text_pipeline.clean", "text_pipeline.encode",
    "text_pipeline.build_vocabulary", "layers.model_forward", "layers.gru_scan",
    "layers.lstm_scan", "layers.model_backward", "layers.zero_grads", "training.fit",
    "training.train_epoch", "training.adam_step", "training.evaluate_loss",
    "training.load_checkpoint", "evaluation.evaluate_model", "cli.main",
)


def per_layer_units():
    units = {}
    for group in TIMED_GROUPS:
        units[f"{group}_s"] = "s"
        units[f"{group}_self_s"] = "s"
    units.update({
        "tensor_math.affine_calls": "count",
        "layers.model_forward_calls": "count",
        "layers.zero_grads_calls": "count",
        "training.adam_step_calls": "count",
        "layers.scan_rows": "count",
        "layers.real_tokens": "count",
        "layers.useful_row_ratio": "ratio",
        "training.fit_peak_alloc_mb": "MB",
        "evaluation.evaluate_model_peak_alloc_mb": "MB",
        "trace.examples_per_s": "1/s",
        "trace.latency_p50_ms": "ms",
        "trace.spans": "count",
    })
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shapes run every workload in seconds (quick check)")
    parser.add_argument("--corrupt-op", type=int, default=None, metavar="I",
                        help="corrupt the output of operation group I before its check")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the default-seed reference")
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's src/, timing the import."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("opinionminer")
    importlib.import_module("opinionminer.cli")
    elapsed = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != (SRC / "opinionminer").resolve():
        raise SystemExit(f"error: imported opinionminer from {package.__file__}, "
                         f"not from {SRC}")
    return elapsed


def _percentiles_ms(latencies):
    ordered = sorted(latencies)
    if len(ordered) == 1:
        return ordered[0] * 1e3, ordered[0] * 1e3
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[49] * 1e3, cuts[98] * 1e3


def run_workload(args):
    if not (SRC / "opinionminer" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'opinionminer'}", file=sys.stderr)
        return 2
    envinfo.limit_blas_threads()
    import_s = _import_program()

    import gen
    import spans
    import workloads

    shape = gen.SHAPES[args.size]
    reference = None if args.write_reference else \
        workloads.load_reference(args.workload, args.seed, shape)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, shape, workdir, reference)
    recorder = None
    try:
        workload.prepare()
        if args.trace:
            recorder = spans.Recorder()
            recorder.install()
        setup_times = []
        repeats = SETUP_REPEATS[args.workload]
        for rep in range(repeats):
            if recorder is not None and rep == repeats - 1:
                recorder.enabled = True
            start = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.enabled = False

        latencies, examples, attempted, failed = [], 0, 0, 0
        i = 0
        while (i < workload.traced_ops if recorder is not None
               else i < workload.min_ops or sum(latencies) < args.seconds):
            if recorder is not None:
                recorder.op_id = i
                recorder.enabled = True
            start = time.perf_counter()
            out = workload.op(state, i)
            latencies.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.enabled = False
            size = workload.size(state, i)
            examples += size.examples
            attempted += size.attempted
            if args.corrupt_op == i:
                out = workload.corrupt(out)
            failed += workload.check(state, i, out)
            i += 1
        if recorder is not None:
            # one more group, untimed and without spans, for the allocation peaks
            recorder.measure_alloc = True
            out = workload.op(state, i)
            recorder.measure_alloc = False
            attempted += workload.size(state, i).attempted
            failed += workload.check(state, i, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    p50, p99 = _percentiles_ms(latencies)
    measured = sum(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is None:
        metrics = {
            "examples_per_s": examples / measured,
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(recorder, examples / measured, p50)
        units = per_layer_units()
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    parameters = sum(a.size for _, a in state.params.named_arrays())
    env = envinfo.record(ROOT, SRC, args.seed, shape, parameters)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "why": gen.WHY[args.workload],
        "inputs": workload.profile, "operation": OPERATION[args.workload],
        "latency_per": LATENCY_UNIT[args.workload], "latency_samples": len(latencies),
        "measured_s": measured, "examples": examples, "import_s": import_s,
        "setup_repeats_s": setup_times, "env": env,
    }
    if args.write_reference:
        workloads.save_reference(args.workload, workload.recorded)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, **result}, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}")
    print(f"why: {gen.WHY[args.workload]}")
    print("inputs: " + json.dumps(workload.profile))
    print("env: " + json.dumps(env))
    headline = HEADLINE[args.workload] if not args.trace else {}
    for name, unit in units.items():
        print(f"  {headline.get(name, name)} = {metrics[name]:.6g} {unit}")
    print(f"  latency samples = {len(latencies)} ({LATENCY_UNIT[args.workload]})")
    print(f"  attempted = {attempted} {OPERATION[args.workload]}s, failed = {failed}")
    print(json.dumps(result))
    return 0


def layer_metrics(recorder, examples_per_s, p50_ms):
    times = recorder.times()
    counts = recorder.counts
    metrics = {}
    for group in TIMED_GROUPS:
        inclusive, own = times.get(group, (0.0, 0.0))
        metrics[f"{group}_s"] = inclusive
        metrics[f"{group}_self_s"] = own
    rows = counts["layers.scan_rows"]
    metrics.update({
        "tensor_math.affine_calls": counts["tensor_math.affine_calls"],
        "layers.model_forward_calls": counts["layers.model_forward"],
        "layers.zero_grads_calls": counts["layers.zero_grads"],
        "training.adam_step_calls": counts["training.adam_step"],
        "layers.scan_rows": rows,
        "layers.real_tokens": counts["layers.real_tokens"],
        "layers.useful_row_ratio": counts["layers.real_tokens"] / rows if rows else 0.0,
        "training.fit_peak_alloc_mb": recorder.peak_alloc["training.fit"] / 2**20,
        "evaluation.evaluate_model_peak_alloc_mb":
            recorder.peak_alloc["evaluation.evaluate_model"] / 2**20,
        "trace.examples_per_s": examples_per_s,
        "trace.latency_p50_ms": p50_ms,
        "trace.spans": len(recorder.spans),
    })
    return metrics


def _child(args, workload, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args):
    """Every workload untraced then traced, each in its own fresh process."""
    summary = {}
    for workload in NAMES:
        plain = _child(args, workload, 0)
        traced = _child(args, workload, 1)
        summary[workload] = {"untraced": plain, "traced": traced}
    print(f"opinionminer benchmark  seed {args.seed}  seconds {args.seconds}  "
          f"size {args.size}")
    ok = True
    for workload in NAMES:
        plain = summary[workload]["untraced"]
        traced = summary[workload]["traced"]
        ok &= plain["correct"] and traced["correct"]
        print(f"\n{workload}: attempted {plain['attempted']} {OPERATION[workload]}s, "
              f"failed {plain['failed']} (traced run: attempted {traced['attempted']}, "
              f"failed {traced['failed']})")
        for name, entry in plain["metrics"].items():
            label = HEADLINE[workload].get(name, name)
            print(f"  {label} = {entry['value']:.6g} {entry['unit']}")
        base = plain["metrics"]["examples_per_s"]["value"]
        under = traced["metrics"]["trace.examples_per_s"]["value"]
        overhead = 100.0 * (base / under - 1.0) if under > 0 else math.inf
        summary[workload]["tracing_overhead_pct"] = overhead
        print(f"  tracing overhead = {overhead:.1f} % on examples_per_s")
        print("  per layer (traced run):")
        for name, entry in traced["metrics"].items():
            if entry["value"]:
                print(f"    {name} = {entry['value']:.6g} {entry['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
