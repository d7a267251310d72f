"""In-memory span recorder for the traced benchmark run.

`Recorder.install` replaces public functions of the program with timing
wrappers at *every* module binding: `cli`, `training` and `evaluation` import
them with `from .x import y`, so patching only the defining module would miss
most calls. Nothing finer than a scan is wrapped; `tensor_math.affine` gets a
count-only wrapper that records no span.

Each span is (name, start, end, parent index, operation id). Spans stay in a
list until `write` dumps them; self time is derived from them afterwards.
"""

import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); the span name is the metric's group.
TIMED = (
    ("text_pipeline", "load_dataset", "text_pipeline.load_dataset"),
    ("text_pipeline", "clean_corpus", "text_pipeline.clean"),
    ("text_pipeline", "clean_text", "text_pipeline.clean"),
    ("text_pipeline", "encode_corpus", "text_pipeline.encode"),
    ("text_pipeline", "encode_sequence", "text_pipeline.encode"),
    ("text_pipeline", "build_vocabulary", "text_pipeline.build_vocabulary"),
    ("layers", "model_forward", "layers.model_forward"),
    ("layers", "gru_scan", "layers.gru_scan"),
    ("layers", "lstm_scan", "layers.lstm_scan"),
    ("layers", "model_backward", "layers.model_backward"),
    ("layers", "zero_grads", "layers.zero_grads"),
    ("training", "fit", "training.fit"),
    ("training", "train_epoch", "training.train_epoch"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "evaluate_loss", "training.evaluate_loss"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("training", "validate_checkpoint", "training.load_checkpoint"),
    ("evaluation", "evaluate_model", "evaluation.evaluate_model"),
    ("cli", "main", "cli.main"),
)
COUNTED = (("tensor_math", "affine", "tensor_math.affine_calls"),)
# Groups whose peak allocation during the call is a metric. tracemalloc slows
# numpy-heavy code by up to 2x, so it runs only while `measure_alloc` is set,
# on an operation whose spans are not recorded.
PEAK_ALLOC = ("training.fit", "evaluation.evaluate_model")


def _true_tokens(args, kwargs):
    """Non-PAD tokens of model_forward(params, seq, ...)."""
    seq = args[1] if len(args) > 1 else kwargs["seq"]
    return int(seq.true_length)


def _rows(args, kwargs):
    """Rows (timesteps over all sequences) of lstm_scan(p, X)."""
    X = args[1] if len(args) > 1 else kwargs["X"]
    return int(X.size // X.shape[-1])


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.peak_alloc = defaultdict(int)
        self.op_id = None
        self.enabled = False        # record spans and counts
        self.measure_alloc = False  # trace allocations inside PEAK_ALLOC calls
        self._stack = []

    # -- installation ---------------------------------------------------
    def install(self, package="opinionminer"):
        """Wrap every binding of the TIMED and COUNTED functions in `package`."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        plan = [(fn, self._timed(name, fn)) for fn, name in self._originals(package, TIMED)]
        plan += [(fn, self._counted(name, fn))
                 for fn, name in self._originals(package, COUNTED)]
        for original, wrapper in plan:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    @staticmethod
    def _originals(package, table):
        for mod_name, fn_name, name in table:
            yield getattr(sys.modules[f"{package}.{mod_name}"], fn_name), name

    # -- wrappers -------------------------------------------------------
    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack
        tokens = name == "layers.model_forward"
        rows = name == "layers.lstm_scan"
        peak = name in PEAK_ALLOC

        def wrapper(*args, **kwargs):
            if peak and self.measure_alloc:
                return self._peak_alloc(name, fn, args, kwargs)
            if not self.enabled:
                return fn(*args, **kwargs)
            if tokens:
                self.counts["layers.real_tokens"] += _true_tokens(args, kwargs)
            if rows:
                self.counts["layers.scan_rows"] += _rows(args, kwargs)
            self.counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def _peak_alloc(self, name, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            grown = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_alloc[name] = max(self.peak_alloc[name], grown)

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------
    def times(self):
        """{group: (inclusive seconds, self seconds)} over all recorded spans.

        Inclusive time counts a span only when no ancestor belongs to the same
        group (clean_corpus -> clean_text is counted once); self time is a
        span's duration minus the time its direct children cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return {name: (inclusive[name], own[name]) for name in inclusive}

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
