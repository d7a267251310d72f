"""Loss, Adam optimization, the epoch loop with early stopping, and
checkpoint persistence.

Checkpoint layout (all integers little-endian, versioned, checksummed):

    magic        b"OMCK"
    version      u32
    header_len   u32, then UTF-8 JSON with stack, config, vocab and the
                 cleaning token lists
    tensor_count u32
    per tensor:  name_len u16, name, rows u32, cols u32 (cols == 0 marks a
                 1-D vector), row-major float64 payload, payload crc32
    file crc32 over everything above

Each mini-batch is sorted by length and run through the batched engine in
sub-batches of at most `layers.ROW_BUDGET` real tokens; the gradients of
every sub-batch add into one accumulator before the Adam step. Batch
composition, the shuffle and the per-example dropout seeds do not depend on
the sub-batching. Nothing depends on timing or scheduling, so identical
(config, corpus, seed) reproduce byte-identical histories and checkpoints
at a fixed BLAS thread count; another thread count may change how a matrix
product sums and so the last bits of the results.
"""

import dataclasses
import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .layers import (
    STACKS,
    backward_batch,
    classify,
    forward_batch,
    init_model_params,
    model_params_from_arrays,
    param_names,
    param_shapes,
    predict_proba,
    sub_batches,
    zero_grads,
)
from .text_pipeline import PAD_TOKEN, UNK_TOKEN, Vocabulary

CHECKPOINT_MAGIC = b"OMCK"
CHECKPOINT_VERSION = 1

_CLAMP = 1e-12

# Size bounds TrainConfig.validate checks before anything is allocated. A
# review of MAX_LEN tokens gets a sub-batch of its own: at about 43 KB of
# traces and temporaries a token at full size that is under 200 MB.
# MAX_PARAMETERS floats take 800 MB, and training holds five such copies
# (the parameters, the best epoch's, Adam's m and v, and one gradient).
MAX_LEN = 4096
MAX_PARAMETERS = 10**8


class ConfigError(Exception):
    """Invalid configuration value; the message names the offending key."""


class CheckpointError(Exception):
    """Unreadable, corrupt or wrong-version checkpoint file."""


class ModelMismatchError(Exception):
    """Checkpoint tensors inconsistent with its own vocabulary/config."""


@dataclass
class TrainConfig:
    embedding_dim: int = 128
    gru_units: int = 256
    lstm_units: int = 128
    dropout_rate: float = 0.2
    batch_size: int = 128
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    max_epochs: int = 100
    patience: int = 5
    min_delta: float = 1e-4
    max_len: int = 200
    vocab_size: int = 20000
    min_freq: int = 1
    test_fraction: float = 0.3
    validation_fraction: float = 0.1
    seed: int = 0
    stack: str = "hbgru_lstm"

    def validate(self):
        checks = [
            ("embedding_dim", self.embedding_dim >= 1),
            ("gru_units", self.gru_units >= 1),
            ("lstm_units", self.lstm_units >= 1),
            ("dropout_rate", 0.0 <= self.dropout_rate < 1.0),
            ("batch_size", self.batch_size >= 1),
            ("learning_rate", 0.0 < self.learning_rate < math.inf),
            ("beta1", 0.0 <= self.beta1 < 1.0),
            ("beta2", 0.0 <= self.beta2 < 1.0),
            ("epsilon", 0.0 < self.epsilon < math.inf),
            ("max_epochs", self.max_epochs >= 1),
            ("patience", self.patience >= 1),
            ("min_delta", 0.0 <= self.min_delta < math.inf),
            ("max_len", 1 <= self.max_len <= MAX_LEN),
            ("vocab_size", self.vocab_size >= 3),
            ("min_freq", self.min_freq >= 1),
            ("test_fraction", 0.0 < self.test_fraction < 1.0),
            ("validation_fraction", 0.0 < self.validation_fraction < 1.0),
            ("seed", self.seed >= 0),
            ("stack", self.stack in STACKS),
        ]
        for key, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for {key}: {getattr(self, key)!r}")
        sizes = ("vocab_size", "embedding_dim", "gru_units", "lstm_units")
        shapes = param_shapes(self.stack, *(getattr(self, key) for key in sizes))
        count = sum(math.prod(shape) for shape in shapes.values())
        if count > MAX_PARAMETERS:
            given = ", ".join(f"{key} = {getattr(self, key)!r}" for key in sizes)
            raise ConfigError(f"invalid sizes: {given} give {count} parameters, "
                              f"more than {MAX_PARAMETERS}")
        return self


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m=zero_grads(params), v=zero_grads(params), t=0)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass
class TrainingHistory:
    records: list = field(default_factory=list)
    stop_epoch: int = 0
    stop_reason: str = "max_epochs"


def bce_loss(y, yhat):
    """Binary cross-entropy with the prediction clamped away from {0, 1}."""
    yhat = min(max(yhat, _CLAMP), 1.0 - _CLAMP)
    return -(y * math.log(yhat) + (1.0 - y) * math.log(1.0 - yhat))


def bce_grad(y, yhat):
    """d bce_loss / d yhat = (yhat - y) / (yhat (1 - yhat)), same clamping."""
    yhat = min(max(yhat, _CLAMP), 1.0 - _CLAMP)
    return (yhat - y) / (yhat * (1.0 - yhat))


def adam_step(state, params, grads, config):
    """One Adam update with bias correction; the PAD embedding row is frozen."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    eps, lr = config.epsilon, config.learning_rate
    mc = 1.0 - b1 ** state.t
    vc = 1.0 - b2 ** state.t
    for name, arr in params.named_arrays():
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {arr.shape}")
        pad_row = arr[0].copy() if name == "embedding.E" else None
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        arr -= lr * (m / mc) / (np.sqrt(v / vc) + eps)
        if pad_row is not None:
            arr[0] = pad_row
            m[0] = 0.0
            v[0] = 0.0
    return state, params


def make_batches(data, batch_size, seed, epoch):
    """Seeded per-epoch shuffle cut into contiguous batches (last may be short)."""
    if not data:
        raise ValueError("make_batches needs a non-empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed ^ epoch)
    order = rng.permutation(len(data))
    shuffled = [data[i] for i in order]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]


def _example_seed(seed, epoch, index):
    """Deterministic per-example dropout seed."""
    return int(np.random.SeedSequence([seed, epoch, index]).generate_state(1)[0])


def batch_gradients(params, batch, dropout_rate, seeds):
    """Train-mode probabilities and summed BCE gradient of one mini-batch.

    Runs the length-sorted sub-batches of `sub_batches`; example j draws its
    dropout masks from seeds[j]. An all-PAD example scores 0.5 and adds no
    gradient. Returns (yhat in batch order, {tensor name: gradient sum}).
    """
    seqs = [seq for seq, _ in batch]
    yhat = np.full(len(batch), 0.5)
    grads = zero_grads(params)
    for rows in sub_batches(seqs):
        cache = forward_batch(params, [seqs[j] for j in rows], mode="train",
                              dropout_rate=dropout_rate, seeds=[seeds[j] for j in rows])
        yhat[rows] = cache.yhat
        upstream = np.array([bce_grad(batch[j][1], yhat[j]) for j in rows])
        backward_batch(params, cache, upstream, grads)
        del cache  # else its traces stay alive through the next group's forward pass
    return yhat, grads


def train_epoch(params, adam, batches, config, epoch=0):
    """One pass over the batches: mean batch gradient, one Adam step per batch.

    Example i of the epoch draws its dropout masks from seed
    _example_seed(seed, epoch, i) wherever the length sorting puts it.
    Returns (params, adam, (mean_loss, accuracy)).
    """
    total_loss = 0.0
    correct = 0
    count = 0
    for batch in batches:
        seeds = [_example_seed(config.seed, epoch, count + j) for j in range(len(batch))]
        yhat, grad_sum = batch_gradients(params, batch, config.dropout_rate, seeds)
        for (_, label), p in zip(batch, yhat):
            total_loss += bce_loss(label, p)
            correct += int(classify(p) == label)
        count += len(batch)
        inv = 1.0 / len(batch)
        for name in grad_sum:
            grad_sum[name] *= inv
        adam_step(adam, params, grad_sum, config)
    return params, adam, (total_loss / count, correct / count)


def evaluate_loss(params, data):
    """Mean BCE and accuracy over an encoded dataset in infer mode."""
    if not data:
        raise ValueError("evaluate_loss needs a non-empty dataset")
    yhat = predict_proba(params, [seq for seq, _ in data])
    total = 0.0
    correct = 0
    for (_, label), p in zip(data, yhat):
        total += bce_loss(label, p)
        correct += int(classify(p) == label)
    return total / len(data), correct / len(data)


def _check_finite(epoch, params, train_loss, val_loss):
    """ConfigError naming the first non-finite loss or tensor of a diverged epoch."""
    values = [("train loss", train_loss), ("validation loss", val_loss)]
    values += [(f"tensor {name}", arr) for name, arr in params.named_arrays()]
    for what, value in values:
        if not np.isfinite(value).all():
            raise ConfigError(f"training diverged in epoch {epoch}: {what} is not finite "
                              f"(try a smaller learning_rate)")


def fit(config, train, validation, params=None, on_epoch=None):
    """Mini-batch training with early stopping on validation loss.

    Stops after `patience` consecutive epochs without an improvement larger
    than `min_delta`, or at max_epochs. Returns the parameters from the
    best-validation epoch together with the per-epoch history. `on_epoch`,
    if given, is called with each EpochRecord as it is produced. An epoch
    that leaves a loss or a parameter non-finite raises ConfigError.
    """
    config.validate()
    if not train or not validation:
        raise ValueError("fit needs non-empty train and validation sets")
    if params is None:
        params = init_model_params(
            config.vocab_size, config.embedding_dim, config.gru_units,
            config.lstm_units, stack=config.stack, seed=config.seed,
        )
    adam = AdamState.for_params(params)
    history = TrainingHistory()
    best_loss = math.inf  # epoch 1 always improves on it, or _check_finite raises
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        batches = make_batches(train, config.batch_size, config.seed, epoch)
        params, adam, (train_loss, train_acc) = train_epoch(
            params, adam, batches, config, epoch=epoch)
        val_loss, val_acc = evaluate_loss(params, validation)
        _check_finite(epoch, params, train_loss, val_loss)
        record = EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc)
        history.records.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if val_loss < best_loss - config.min_delta:
            best_loss = val_loss
            best_params = params.clone()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                history.stop_reason = "early_stop"
                break
    history.stop_epoch = len(history.records)
    return best_params, history


@dataclass
class Checkpoint:
    params: "ModelParams"
    config: TrainConfig
    vocab: Vocabulary
    # None means "not stored": cleaning falls back to the library defaults
    stopwords: frozenset | None
    whitelist: frozenset | None


def _pack_tensor(name, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        rows, cols = arr.shape[0], 0
    elif arr.ndim == 2:
        rows, cols = arr.shape
    else:
        raise ValueError(f"tensor {name} has unsupported rank {arr.ndim}")
    payload = arr.astype("<f8").tobytes(order="C")
    name_b = name.encode("utf-8")
    return b"".join([
        struct.pack("<H", len(name_b)), name_b,
        struct.pack("<II", rows, cols),
        payload,
        struct.pack("<I", zlib.crc32(payload)),
    ])


def save_checkpoint(params, config, vocab, path, stopwords=None, whitelist=None):
    """Write a versioned, checksummed model container; byte-deterministic."""
    header = json.dumps({
        "stack": params.stack,
        "config": dataclasses.asdict(config),
        "vocab": list(vocab.index_to_token),
        "stopwords": sorted(stopwords) if stopwords is not None else None,
        "whitelist": sorted(whitelist) if whitelist is not None else None,
    }, sort_keys=True).encode("utf-8")
    tensors = list(params.named_arrays())
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(header)), header,
             struct.pack("<I", len(tensors))]
    parts.extend(_pack_tensor(name, arr) for name, arr in tensors)
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path):
    """Read and verify a checkpoint.

    Raises CheckpointError on any corruption or malformed header, and
    ModelMismatchError when the tensor names are not the stack's, in order,
    or a shape differs from param_shapes (checked before gates are stacked).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if len(data) < 16:
        raise CheckpointError(f"{path}: checksum failure (file too short)")
    body, tail = data[:-4], data[-4:]
    if struct.unpack("<I", tail)[0] != zlib.crc32(body):
        raise CheckpointError(f"{path}: whole-file checksum failure")
    r = _Reader(body, path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})")
    stack, config, vocab_tokens, stopwords, whitelist = _parse_header(r.take(r.u32()), path)
    names, arrays = [], {}
    for _ in range(r.u32()):
        name = r.take(r.u16()).decode("utf-8", errors="replace")
        rows, cols = r.u32(), r.u32()
        count = rows * max(cols, 1)
        payload = r.take(count * 8)
        if struct.unpack("<I", r.take(4))[0] != zlib.crc32(payload):
            raise CheckpointError(f"{path}: checksum failure in tensor {name}")
        arr = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        names.append(name)
        arrays[name] = arr if cols == 0 else arr.reshape(rows, cols)
    if r.pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    for i, (got, want) in enumerate(zip_longest(names, param_names(stack))):
        if got != want:
            raise ModelMismatchError(
                f"{path}: tensor {i} is {got!r} but stack {stack!r} stores {want!r} there")
    shapes = param_shapes(stack, len(vocab_tokens), config.embedding_dim, config.gru_units,
                          config.lstm_units)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ModelMismatchError(
                f"{path}: tensor {name} has shape {arrays[name].shape} but the vocabulary "
                f"({len(vocab_tokens)} tokens) and config give {shape}")
    return Checkpoint(
        params=model_params_from_arrays(stack, arrays), config=config,
        vocab=Vocabulary.from_content_tokens(vocab_tokens[2:]),  # past PAD and UNK
        stopwords=frozenset(stopwords) if stopwords is not None else None,
        whitelist=frozenset(whitelist) if whitelist is not None else None,
    )


def _parse_header(raw, path):
    """(stack, config, vocab, stopwords, whitelist) from the JSON header bytes."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("stack", "config", "vocab", "stopwords", "whitelist"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r} key")
    if header["stack"] not in STACKS:
        raise CheckpointError(f"{path}: unknown stack variant {header['stack']!r}")
    try:
        config = TrainConfig(**header["config"]).validate()
        for f in dataclasses.fields(config):  # an int key takes no float, no key a bool
            value = getattr(config, f.name)
            if f.type in (int, float) and (type(value) is bool
                                           or not isinstance(value, (int, f.type))):
                raise ConfigError(f"invalid value for {f.name}: {value!r}")
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad config in header: {exc}") from exc
    lists = [header["vocab"]] + [header[k] for k in ("stopwords", "whitelist")
                                 if header[k] is not None]
    if not all(isinstance(v, list) and all(isinstance(t, str) for t in v) for v in lists):
        raise CheckpointError(f"{path}: vocab and word lists must be lists of strings")
    vocab = header["vocab"]
    if vocab[:2] != [PAD_TOKEN, UNK_TOKEN] or len(set(vocab)) != len(vocab):
        raise CheckpointError(f"{path}: vocab must start with {PAD_TOKEN!r}, {UNK_TOKEN!r} "
                              f"and hold no token twice")
    return header["stack"], config, vocab, header["stopwords"], header["whitelist"]


def validate_checkpoint(ckpt):
    """Check the stack against the config's (ModelMismatchError) and every
    tensor's values for NaN and inf (CheckpointError)."""
    if ckpt.params.stack != ckpt.config.stack:
        raise ModelMismatchError(
            f"checkpoint stack {ckpt.params.stack!r} does not match config "
            f"stack {ckpt.config.stack!r}")
    for name, arr in ckpt.params.named_arrays():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name} holds a non-finite value")
    return ckpt
