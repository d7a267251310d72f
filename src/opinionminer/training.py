"""Adam optimization, the epoch loop with early stopping, and checkpoint
persistence. The BCE loss and the scorer of a labelled set live in
`evaluation`.

Checkpoint layout (all integers little-endian, versioned, checksummed):

    magic        b"OMCK"
    version      u32
    header_len   u32, then UTF-8 JSON with stack, config, vocab and the
                 cleaning token lists
    tensor_count u32
    per tensor:  name_len u16, name, rows u32, cols u32 (cols == 0 marks a
                 1-D vector), row-major float64 payload, payload crc32
    file crc32 over everything above

A load reads the file once, in order, each payload straight into its view
of the parameter vector, so that vector is its only parameter-length
allocation. Each payload's crc32 is computed once, and the file's running
crc32 takes it in through _crc32_combine. The file crc32 is checked last
but wins over any other error.
Training allocates no others but the parameters, the best epoch's copy and
Adam's m and v. Each batch's gradient holds only the embedding rows the
batch reads, beside every other block.

Each mini-batch is sorted by length and run through the batched engine in
sub-batches of at most `layers.ROW_BUDGET` real tokens that keep at most
TRAIN_BUDGET bytes (`layers.pass_bytes`); the gradients of every sub-batch
add into the batch's gradient before the Adam step. Batch
composition, the shuffle and the per-example dropout seeds do not depend
on the sub-batching. Nothing
depends on timing or scheduling, so identical (config, corpus, seed)
reproduce byte-identical histories and checkpoints at a fixed BLAS thread
count; another thread count may change how a matrix product sums and so
the last bits of the results.
"""

import contextlib
import dataclasses
import json
import math
import os
import secrets
import struct
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import layers
from .evaluation import bce_grad, bce_loss, score  # callers look up training.bce_loss
from .layers import (
    STACKS,
    ModelParams,
    backward_batch,
    check_grad_layout,
    forward_batch,
    init_model_params,
    param_shapes,
    pass_bytes,
    predict_proba,
    sub_batches,
    zero_grads,
)
from .text_pipeline import PAD_INDEX, PAD_TOKEN, UNK_TOKEN, DataError, Vocabulary

CHECKPOINT_MAGIC = b"OMCK"
CHECKPOINT_VERSION = 1

# Most elements adam_step updates at a time (but one embedding row, if longer),
# through two scratch buffers that long, and _all_finite tests at a time.
_ADAM_CHUNK = 2**15

# Size bounds TrainConfig.validate checks before anything is allocated. A
# review of MAX_LEN tokens gets a training sub-batch of its own, which
# keeps what layers.pass_bytes gives for MAX_LEN tokens and one sequence.
# MAX_PARAMETERS floats take 800 MB. Initialization and checkpoint loading
# each allocate one vector that long, the parameters themselves. Training
# holds four (the parameters, the best epoch's, Adam's m and v), 3.2 GB at
# the cap, plus the traces and a batch's gradient: its embedding rows and
# every other block.
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
        for f in dataclasses.fields(self):  # an int key takes no float, no key a bool
            value = getattr(self, f.name)
            allowed = (int, float) if f.type is float else f.type
            if type(value) is bool or not isinstance(value, allowed):
                raise ConfigError(f"invalid value for {f.name}: {value!r}")
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
        count = _parameter_count(self.stack, *(getattr(self, key) for key in sizes))
        if count > MAX_PARAMETERS:
            given = ", ".join(f"{key} = {getattr(self, key)!r}" for key in sizes)
            raise ConfigError(f"invalid sizes: {given} give {count} parameters, "
                              f"more than {MAX_PARAMETERS}")
        return self


def _group_bytes(config, tokens, reviews):
    """Bytes a training group of these tokens and reviews keeps (layers.pass_bytes)."""
    token, review, _ = pass_bytes("train", config.stack, config.embedding_dim,
                                  config.gru_units, config.lstm_units)
    return token * tokens + review * reviews


# Most bytes one training sub-batch may keep: what a full ROW_BUDGET group
# of the stock config keeps, batch_size reviews at the default widths. A
# config no wider than that, with batch_size at most 128, is cut at
# ROW_BUDGET tokens first, so its groups and bits stay as they were; a
# wider one gets smaller groups.
TRAIN_BUDGET = _group_bytes(TrainConfig(), layers.ROW_BUDGET, TrainConfig().batch_size)


def _parameter_count(stack, vocab_size, embedding_dim, gru_units, lstm_units):
    """Number of floats in the parameters of a stack of these sizes."""
    shapes = param_shapes(stack, vocab_size, embedding_dim, gru_units, lstm_units)
    return sum(math.prod(shape) for shape in shapes.values())


@dataclass
class AdamState:
    m: np.ndarray  # the moments, in the layout of ModelParams.flat
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m=zero_grads(params).flat, v=zero_grads(params).flat, t=0)


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


def adam_step(state, params, grads, config):
    """One Adam update with bias correction; the PAD embedding row is frozen.

    `grads` comes from zero_grads, with every embedding row or some. A row
    the gradient leaves out takes a zero gradient: for a chunk that misses
    rows, the rows it holds go into the chunk's denominator scratch, zeros
    elsewhere (that buffer is free until v is read), so both layouts give
    the same bits. Every element of m and v decays and the step is taken
    over every parameter. The gradient layout and the shapes of m and v are
    checked before anything is written (ValueError).

    The update runs in place, in chunks of at most _ADAM_CHUNK elements
    (whole rows of the embedding) through two scratch buffers that long,
    each element as in the textbook
    flat -= lr * (m / mc) / (sqrt(v / vc) + eps). The update is
    elementwise, so the chunking does not change a bit.
    """
    g, m, v, flat = grads.flat, state.m, state.v, params.flat
    check_grad_layout(params, grads)
    for name, moment in (("m", m), ("v", v)):
        if moment.shape != flat.shape:
            raise ValueError(f"Adam's {name} has shape {moment.shape}, which does not match "
                             f"the parameters' {flat.shape}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    eps, lr = config.epsilon, config.learning_rate
    mc = 1.0 - b1 ** state.t
    vc = 1.0 - b2 ** state.t
    d, rows = params.embedding.dim, grads.rows
    E = params.embedding.E.size  # E leads flat, so the PAD row is flat[:d]
    shift = g.size - flat.size  # where the gradient's blocks after E sit against flat's
    # chunks of whole embedding rows, then of the other blocks
    bounds = [*range(0, E, max(1, _ADAM_CHUNK // d) * d), *range(E, flat.size, _ADAM_CHUNK)]
    chunks = list(zip(bounds, bounds[1:] + [flat.size]))
    size = max(hi - lo for lo, hi in chunks)
    steps, denoms = np.empty(size), np.empty(size)
    for lo, hi in chunks:
        ms, vs = m[lo:hi], v[lo:hi]
        step, denom = steps[:hi - lo], denoms[:hi - lo]
        if hi > E:
            gs = g[lo + shift:hi + shift]
        else:  # the vocabulary rows a:b
            a, b = lo // d, hi // d
            j, k = (a, b) if rows is None else np.searchsorted(rows, (a, b))
            gs = g[j * d:k * d]
            if k - j < b - a:  # the rows left out take a zero gradient, in denom
                denom.fill(0.0)
                denom.reshape(-1, d)[rows[j:k] - a] = gs.reshape(-1, d)
                gs = denom
        ms *= b1
        ms += np.multiply(1.0 - b1, gs, out=step)
        vs *= b2
        vs += np.multiply(1.0 - b2, np.multiply(gs, gs, out=step), out=step)
        np.sqrt(np.divide(vs, vc, out=denom), out=denom)
        denom += eps
        np.multiply(lr, np.divide(ms, mc, out=step), out=step)
        step /= denom
        if lo == 0:  # the PAD row stays as it is
            for vector in (step, ms, vs):
                vector[:d] = 0.0
        flat[lo:hi] -= step
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


def batch_gradients(params, batch, dropout_rate, seeds, grads):
    """Train-mode probabilities of one mini-batch; its summed BCE gradient
    goes into `grads`, which is zero-filled first. `grads` comes from
    zero_grads, with every embedding row or at least those the batch reads.

    Runs the length-sorted sub-batches of `sub_batches`, cut at
    layers.ROW_BUDGET tokens or TRAIN_BUDGET bytes; example j draws its
    dropout masks from seeds[j]. An all-PAD example scores 0.5 and adds no
    gradient. Returns yhat in batch order.
    """
    seqs = [seq for seq, _ in batch]
    yhat = np.full(len(batch), 0.5)
    grads.flat.fill(0.0)
    token, review, _ = pass_bytes("train", *params.widths())
    for rows in sub_batches(seqs, token, review, TRAIN_BUDGET, layers.ROW_BUDGET):
        cache = forward_batch(params, [seqs[j] for j in rows], mode="train",
                              dropout_rate=dropout_rate, seeds=[seeds[j] for j in rows])
        yhat[rows] = cache.yhat
        upstream = np.array([bce_grad(batch[j][1], yhat[j]) for j in rows])
        backward_batch(params, cache, upstream, grads)
        del cache  # else its traces stay alive through the next group's forward pass
    return yhat


def train_epoch(params, adam, batches, config, epoch=0):
    """One pass over the batches: mean batch gradient, one Adam step per batch.

    Example i of the epoch draws its dropout masks from seed
    _example_seed(seed, epoch, i) wherever the length sorting puts it. Each
    batch's gradient holds only the embedding rows the batch reads, PAD
    first, so its size follows the batch, not the vocabulary.
    Returns (params, adam, (mean_loss, accuracy)): the train-mode
    probabilities of every batch, scored once after the last step.
    """
    labels, probabilities = [], []
    for batch in batches:
        seeds = [_example_seed(config.seed, epoch, len(labels) + j) for j in range(len(batch))]
        rows = np.union1d([PAD_INDEX], np.concatenate([seq.indices for seq, _ in batch]))
        grads = zero_grads(params, rows)
        probabilities.extend(batch_gradients(params, batch, config.dropout_rate, seeds, grads))
        labels.extend(label for _, label in batch)
        grads.flat *= 1.0 / len(batch)
        adam_step(adam, params, grads, config)
    counts, loss = score(labels, probabilities)
    return params, adam, (loss, counts.accuracy)


def evaluate_loss(params, data):
    """Mean BCE and accuracy over an encoded dataset in infer mode."""
    if not data:
        raise ValueError("evaluate_loss needs a non-empty dataset")
    counts, loss = score([label for _, label in data],
                         predict_proba(params, [seq for seq, _ in data]))
    return loss, counts.accuracy


def _all_finite(values):
    """np.isfinite(values).all(), _ADAM_CHUNK elements at a time, so no mask as
    long as a parameter vector is built."""
    flat = np.ravel(values)
    return all(np.isfinite(flat[lo:lo + _ADAM_CHUNK]).all()
               for lo in range(0, flat.size, _ADAM_CHUNK))


def _non_finite_tensor(params):
    """The name of the first tensor, in checkpoint order, with a NaN or an inf, or None."""
    return next((name for name, arr in params.named_arrays() if not _all_finite(arr)), None)


def _check_finite(epoch, params, train_loss, val_loss):
    """ConfigError naming the first non-finite loss or tensor of a diverged epoch."""
    name = _non_finite_tensor(params)
    for what, finite in (("train loss", math.isfinite(train_loss)),
                         ("validation loss", math.isfinite(val_loss)),
                         (f"tensor {name}", name is None)):
        if not finite:
            raise ConfigError(f"training diverged in epoch {epoch}: {what} is not finite "
                              f"(try a smaller learning_rate)")


def fit(config, train, validation, params=None, on_epoch=None):
    """Mini-batch training with early stopping on validation loss.

    Stops after `patience` consecutive epochs without an improvement larger
    than `min_delta`, or at max_epochs. Returns the parameters from the
    best-validation epoch together with the per-epoch history. `params`,
    if given, is trained in place, so after the call it holds the last
    epoch's weights; the returned parameters are a copy of the best epoch's
    that shares no memory with it. `on_epoch`,
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
            if epoch == 1:
                best_params = params.clone()
            else:  # into the one copy, not a second one
                np.copyto(best_params.flat, params.flat)
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


def _tensor_parts(name, arr):
    """A tensor's record: its name and shape, its payload (the little-endian
    array itself, no copy on a little-endian host) and the payload's crc32."""
    if arr.ndim not in (1, 2):
        raise ValueError(f"tensor {name} has unsupported rank {arr.ndim}")
    rows, cols = arr.shape if arr.ndim == 2 else (len(arr), 0)
    payload = np.ascontiguousarray(arr, dtype="<f8")
    name_b = name.encode("utf-8")
    return (struct.pack("<H", len(name_b)) + name_b + struct.pack("<II", rows, cols),
            payload, struct.pack("<I", zlib.crc32(payload)))


def replace_file(path, chunks):
    """Write the byte chunks to a new file beside `path`, then move it onto `path`.

    os.replace makes the move atomic, so a write that fails or is killed
    leaves any previous file at `path` whole. On an error the new file is
    removed, and an OSError is raised as a DataError naming `path`.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:  # "x" never reuses an existing file
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:  # after os.replace there is nothing left to remove
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def save_checkpoint(params, config, vocab, path, stopwords=None, whitelist=None):
    """Write a versioned, checksummed model container; byte-deterministic.

    The parts go from the arrays straight to the file, through
    replace_file, so no copy of the body is built.
    """
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
    for name, arr in tensors:
        parts.extend(_tensor_parts(name, arr))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    replace_file(path, parts + [struct.pack("<I", crc)])


def _crc32_times(a, b):
    """a(x) * b(x) modulo the crc32 polynomial, both in its reflected bit order."""
    p = 0
    for bit in range(31, -1, -1):  # the top bit holds the coefficient of x^0
        if a >> bit & 1:
            p ^= b
        b = (b >> 1) ^ 0xEDB88320 if b & 1 else b >> 1  # b * x
    return p


_X_POW_2K = [1 << 30]  # x^(2^k) modulo the crc32 polynomial, k = 0..31
while len(_X_POW_2K) < 32:
    _X_POW_2K.append(_crc32_times(_X_POW_2K[-1], _X_POW_2K[-1]))


def _crc32_combine(crc_a, crc_b, len_b):
    """zlib.crc32(a + b) from zlib.crc32(a), zlib.crc32(b) and len(b), as
    zlib's crc32_combine computes it: crc_a times x^(8 len_b), plus crc_b."""
    shift, k = 1 << 31, 3  # x^0; 8 len_b = len_b * 2^3
    while len_b:
        if len_b & 1:
            shift = _crc32_times(_X_POW_2K[k & 31], shift)
        len_b >>= 1
        k += 1
    return _crc32_times(shift, crc_a) ^ crc_b


class _Reader:
    """Bounded reads from an open checkpoint file, with the crc32 of every byte read."""

    def __init__(self, fh, path):
        self.fh, self.pos, self.path, self.file_crc = fh, 0, path, 0
        self.end = fh.seek(0, 2) - 4  # the bytes before the file crc32
        if self.end < 12:
            raise CheckpointError(f"{path}: checksum failure (file too short)")
        fh.seek(0)

    def _advance(self, n):
        if self.pos + n > self.end:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.pos += n

    def take(self, n):
        self._advance(n)
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank while it was read
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.file_crc = zlib.crc32(out, self.file_crc)
        return out

    def into(self, buffer):
        """Fill a writable buffer (a contiguous array or a memoryview) with the
        next bytes, and return their crc32, which the file's crc32 takes in."""
        view = memoryview(buffer).cast("B")
        self._advance(len(view))
        if self.fh.readinto(view) != len(view):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        crc = zlib.crc32(view)
        self.file_crc = _crc32_combine(self.file_crc, crc, len(view))
        return crc

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def check_file_crc(self):
        """Read the bytes left before the file crc32, through one buffer of at
        most 1 MiB; a whole-file checksum failure unless that crc32 matches."""
        buffer = memoryview(bytearray(min(self.end - self.pos, 2**20)))
        while self.pos < self.end:
            self.into(buffer[:self.end - self.pos])
        crc = self.file_crc
        self.end += 4
        if self.u32() != crc:
            raise CheckpointError(f"{self.path}: whole-file checksum failure")


def load_checkpoint(path):
    """Read and verify a checkpoint in one pass, in file order.

    Raises CheckpointError on any corruption or malformed header, and
    ModelMismatchError when the tensor names are not the stack's, in order,
    or a shape differs from param_shapes. Each tensor's name and shape are
    checked before its payload is read and its crc32 checked; validate_checkpoint
    runs last. When the pass fails, the rest of the file is read, and a
    whole-file checksum failure is raised instead if the file's crc32 differs.
    """
    try:
        with open(path, "rb") as fh:
            r = _Reader(fh, path)
            try:
                ckpt = _read_checkpoint(r, path)
            except (CheckpointError, ModelMismatchError):
                r.check_file_crc()  # a whole-file checksum failure wins
                raise
            r.check_file_crc()
            return ckpt
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc


def _read_checkpoint(r, path):
    """The validated Checkpoint before the file crc32, not yet checked against it."""
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})")
    stack, config, vocab, stopwords, whitelist = _parse_header(r.take(r.u32()), path)
    params = ModelParams.zeros(stack, vocab.size, config.embedding_dim,
                               config.gru_units, config.lstm_units)
    views = list(params.named_arrays())
    count = r.u32()
    for i in range(count):
        name = str(r.take(r.u16()), "utf-8", errors="replace")
        want, view = views[i] if i < len(views) else (None, None)
        if name != want:
            raise ModelMismatchError(
                f"{path}: tensor {i} is {name!r} but stack {stack!r} stores {want!r} there")
        rows, cols = r.u32(), r.u32()
        shape = (rows, cols) if cols else (rows,)
        if shape != view.shape:
            raise ModelMismatchError(
                f"{path}: tensor {name} has shape {shape} but the vocabulary "
                f"({vocab.size} tokens) and config give {view.shape}")
        if r.into(view) != r.u32():
            raise CheckpointError(f"{path}: checksum failure in tensor {name}")
    if r.pos != r.end:
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    if count < len(views):
        raise ModelMismatchError(f"{path}: tensor {count} is None but stack {stack!r} "
                                 f"stores {views[count][0]!r} there")
    if sys.byteorder == "big":  # every crc32 above was of the file's bytes
        params.flat.byteswap(inplace=True)
    words = (None if tokens is None else frozenset(tokens) for tokens in (stopwords, whitelist))
    return validate_checkpoint(Checkpoint(params, config, vocab, *words))


def _parse_header(raw, path):
    """(stack, config, Vocabulary, stopwords, whitelist) from the JSON header bytes."""
    try:
        header = json.loads(str(raw, "utf-8"))
    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("stack", "config", "vocab", "stopwords", "whitelist"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r} key")
    if not isinstance(header["stack"], str) or header["stack"] not in STACKS:
        raise CheckpointError(f"{path}: unknown stack variant {header['stack']!r}")
    try:
        config = TrainConfig(**header["config"]).validate()
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: bad config in header: {exc}") from exc
    lists = [header["vocab"]] + [header[k] for k in ("stopwords", "whitelist")
                                 if header[k] is not None]
    if not all(isinstance(v, list) and all(isinstance(t, str) for t in v) for v in lists):
        raise CheckpointError(f"{path}: vocab and word lists must be lists of strings")
    vocab = Vocabulary({t: i for i, t in enumerate(header["vocab"])}, tuple(header["vocab"]))
    if header["vocab"][:2] != [PAD_TOKEN, UNK_TOKEN] or len(vocab.token_to_index) != vocab.size:
        raise CheckpointError(f"{path}: vocab must start with {PAD_TOKEN!r}, {UNK_TOKEN!r} "
                              f"and hold no token twice")
    sizes = (vocab.size, config.embedding_dim, config.gru_units, config.lstm_units)
    count = _parameter_count(header["stack"], *sizes)  # the load allocates them first
    if count > MAX_PARAMETERS:
        raise CheckpointError(f"{path}: a vocab of {vocab.size} tokens gives {count} "
                              f"parameters with the stored config, more than {MAX_PARAMETERS}")
    return header["stack"], config, vocab, header["stopwords"], header["whitelist"]


def validate_checkpoint(ckpt):
    """Check the stack against the config's (ModelMismatchError) and every
    tensor for NaN and inf (CheckpointError); every load_checkpoint runs it."""
    if ckpt.params.stack != ckpt.config.stack:
        raise ModelMismatchError(
            f"checkpoint stack {ckpt.params.stack!r} does not match config "
            f"stack {ckpt.config.stack!r}")
    name = _non_finite_tensor(ckpt.params)
    if name is not None:
        raise CheckpointError(f"tensor {name} holds a non-finite value")
    return ckpt
