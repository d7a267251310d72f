"""Model layers and their exact backward passes.

The stack is: trainable embedding lookup -> bidirectional GRU (forward and
backward scans concatenated per timestep) -> LSTM -> single sigmoid unit.
Two reduced stacks reuse the same cells: `lstm_only` feeds embeddings
straight into the LSTM and `gru_lstm` uses only the forward GRU scan.

Cell math, spelled out once here and mirrored by the backward code:

    GRU     z = sigmoid(W_z [h_prev, x] + b_z)
            r = sigmoid(W_r [h_prev, x] + b_r)
            h_cand = tanh(W_h [r * h_prev, x] + b_h)   # r gates h_prev
                                                       # before the concat
            h = (1 - z) * h_prev + z * h_cand

    LSTM    f, i, o = sigmoid(W_g [h_prev, x] + b_g)
            c_cand = tanh(W_c [h_prev, x] + b_c)
            C = f * C_prev + i * c_cand
            h = o * tanh(C)

One engine runs every stack at any batch size. A batch of B encoded
sequences is post-padded to the longest, T, and every scan works on
time-major (T, B, ...) arrays with a (T, B) mask of real tokens. On a
padding step a scan holds its state, so the reverse GRU starts from zero at
each sequence's last real token and the LSTM's final state is that of the
last real token: a sequence's outputs do not depend on the padding around
it. Per call, each layer stacks its stored per-gate tensors into one input
and one recurrent matrix (the checkpoint keeps the per-gate form), and the
input projection X W_x^T + b of the whole sequence is one matrix product
before the time loop. The backward pass keeps every step's gate
pre-activation gradients and forms each weight gradient with one matrix
product after the loop; the embedding gradient is scattered with np.add.at.
`sub_batches` sorts sequences by length and cuts them into groups of at most
ROW_BUDGET padded rows, which bounds the trace memory and keeps padding
small. `model_forward` and `model_backward` are the engine at B = 1.

Dropout is inverted (train-time scaling by 1/(1-rate)), applied to the
recurrent output sequence and to the final hidden state in train mode only.
Each sequence draws its two masks, in that order, from its own seeded
generator, so a batch reproduces the per-sequence passes.
"""

from dataclasses import dataclass, fields, replace
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from .tensor_math import affine, glorot_uniform, sigmoid

# The GRU directions of each stack, in the order their outputs are
# concatenated into the LSTM input: (parameter block, scans right to left).
# Every other statement of the layout -- tensor names and order, shapes,
# init draws, forward and backward wiring -- is derived from this table.
STACKS = {
    "hbgru_lstm": (("gru_fwd", False), ("gru_bwd", True)),
    "lstm_only": (),
    "gru_lstm": (("gru_fwd", False),),
}

# Gate order of the stacked matrices the scans build per call.
GRU_GATES = ("z", "r", "h")
LSTM_GATES = ("f", "i", "o", "c")

# Most padded rows (T x B) one sub-batch may hold. At full size a train-mode
# sub-batch of 1024 rows peaks near 48 MB of traces and temporaries (about
# 47 KB a row); budgets of 512 or 768 rows trained 5-10% slower.
ROW_BUDGET = 1024
@dataclass
class EmbeddingParams:
    E: np.ndarray  # (vocab_size, dim); row 0 is PAD, kept all-zero
    TENSORS: ClassVar = ("E",)

    @property
    def vocab_size(self):
        return self.E.shape[0]

    @property
    def dim(self):
        return self.E.shape[1]


@dataclass
class GruParams:
    W_z: np.ndarray  # (k, k + in_dim)
    W_r: np.ndarray
    W_h: np.ndarray
    b_z: np.ndarray  # (k,)
    b_r: np.ndarray
    b_h: np.ndarray
    TENSORS: ClassVar = ("W_z", "b_z", "W_r", "b_r", "W_h", "b_h")

    @property
    def hidden_size(self):
        return self.W_z.shape[0]

    @property
    def in_dim(self):
        return self.W_z.shape[1] - self.W_z.shape[0]


@dataclass
class LstmParams:
    W_f: np.ndarray  # (m, m + in_dim)
    W_i: np.ndarray
    W_o: np.ndarray
    W_c: np.ndarray
    b_f: np.ndarray  # (m,)
    b_i: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray
    TENSORS: ClassVar = ("W_f", "b_f", "W_i", "b_i", "W_o", "b_o", "W_c", "b_c")

    @property
    def hidden_size(self):
        return self.W_f.shape[0]

    @property
    def in_dim(self):
        return self.W_f.shape[1] - self.W_f.shape[0]


@dataclass
class DenseParams:
    W: np.ndarray  # (1, m)
    b: np.ndarray  # (1,)
    TENSORS: ClassVar = ("W", "b")


def _blocks(stack):
    """(block name, params class) pairs of a stack, in checkpoint order."""
    if stack not in STACKS:
        raise ValueError(f"unknown stack variant: {stack!r}")
    return ([("embedding", EmbeddingParams)]
            + [(block, GruParams) for block, _ in STACKS[stack]]
            + [("lstm", LstmParams), ("dense", DenseParams)])


def param_names(stack):
    """Every parameter tensor name of a stack, in checkpoint order."""
    return [f"{block}.{tensor}" for block, cls in _blocks(stack) for tensor in cls.TENSORS]


def param_shapes(stack, vocab_size, embedding_dim, gru_units, lstm_units):
    """{tensor name: shape} in checkpoint order.

    A block's weights are (rows, cols) and its biases (rows,); each recurrent
    weight reads [h_prev, x], so its cols are rows + input width.
    """
    names = param_names(stack)
    directions = STACKS[stack]
    lstm_in = gru_units * len(directions) if directions else embedding_dim
    weights = {
        "embedding": (vocab_size, embedding_dim),
        "lstm": (lstm_units, lstm_units + lstm_in),
        "dense": (1, lstm_units),
    }
    weights.update((block, (gru_units, gru_units + embedding_dim)) for block, _ in directions)
    shapes = {}
    for name in names:
        block, tensor = name.split(".")
        shapes[name] = weights[block][:1] if tensor.startswith("b") else weights[block]
    return shapes


@dataclass
class ModelParams:
    stack: str
    embedding: EmbeddingParams
    lstm: LstmParams
    dense: DenseParams
    gru_fwd: Optional[GruParams] = None
    gru_bwd: Optional[GruParams] = None

    def named_arrays(self):
        """Yield (name, array) for every parameter tensor, in checkpoint order."""
        for block, cls in _blocks(self.stack):
            for tensor in cls.TENSORS:
                yield f"{block}.{tensor}", getattr(getattr(self, block), tensor)

    def clone(self):
        return model_params_from_arrays(
            self.stack, {name: arr.copy() for name, arr in self.named_arrays()}
        )


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


def model_params_from_arrays(stack, arrays):
    """Rebuild ModelParams from a name -> array mapping (checkpoint loading)."""
    blocks = {block: cls(**{t: arrays[f"{block}.{t}"] for t in cls.TENSORS})
              for block, cls in _blocks(stack)}
    return ModelParams(stack=stack, **blocks)


def init_model_params(vocab_size, embedding_dim, gru_units, lstm_units,
                      stack="hbgru_lstm", seed=0):
    """Seeded Glorot-uniform weights, zero biases, zero PAD embedding row.

    Weights are drawn in checkpoint order from one generator.
    """
    shapes = param_shapes(stack, vocab_size, embedding_dim, gru_units, lstm_units)
    rng = np.random.default_rng(seed)
    arrays = {name: glorot_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape)
              for name, shape in shapes.items()}
    arrays["embedding.E"][0, :] = 0.0
    return model_params_from_arrays(stack, arrays)


class GruGates(NamedTuple):
    z: np.ndarray
    r: np.ndarray
    h_cand: np.ndarray


class LstmGates(NamedTuple):
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    c_cand: np.ndarray


@dataclass
class GruTrace:
    """Per-step GRU values: (T, B, k) in a batch, (n, k) in a ForwardCache.

    The gates are None when the scan kept only h, the part the LSTM reads.
    """
    h: np.ndarray
    z: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    h_cand: Optional[np.ndarray] = None


@dataclass
class LstmTrace:
    """Per-step LSTM values: (T, B, m) in a batch, (n, m) in a ForwardCache.

    When the scan kept only what the dense head reads, h is the final state
    alone, (1, B, m), and the rest is None; h[-1] is the final state either way.
    """
    h: np.ndarray
    f: Optional[np.ndarray] = None
    i: Optional[np.ndarray] = None
    o: Optional[np.ndarray] = None
    c_cand: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    tanh_c: Optional[np.ndarray] = None


def _map_arrays(trace, pick):
    """The trace with `pick` applied to each array it kept."""
    return replace(trace, **{f.name: pick(getattr(trace, f.name)) for f in fields(trace)
                             if getattr(trace, f.name) is not None})


def embed_lookup(index, emb):
    """Rows of E for an integer index array of any shape, as (..., d)."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= emb.vocab_size):
        raise IndexError("token index out of embedding range")
    return emb.E[index]


def gru_cell_forward(p, h_prev, x_t):
    """One unfused GRU step, gate by gate: the reference the scans are tested against.

    The reset gate scales h_prev before the candidate concat.
    """
    u = np.concatenate([h_prev, x_t])
    z = sigmoid(affine(p.W_z, u, p.b_z))
    r = sigmoid(affine(p.W_r, u, p.b_r))
    v = np.concatenate([r * h_prev, x_t])
    h_cand = np.tanh(affine(p.W_h, v, p.b_h))
    h = (1.0 - z) * h_prev + z * h_cand
    return h, GruGates(z=z, r=r, h_cand=h_cand)


def lstm_step(p, h_prev, C_prev, x_t):
    """One unfused LSTM step, gate by gate: the reference the scans are tested against."""
    u = np.concatenate([h_prev, x_t])
    f = sigmoid(affine(p.W_f, u, p.b_f))
    i = sigmoid(affine(p.W_i, u, p.b_i))
    o = sigmoid(affine(p.W_o, u, p.b_o))
    c_cand = np.tanh(affine(p.W_c, u, p.b_c))
    C = f * C_prev + i * c_cand
    h = o * np.tanh(C)
    return h, C, LstmGates(f=f, i=i, o=o, c_cand=c_cand)


def _stacked(p, gates):
    """(input weights, bias, recurrent weights) with the gates' rows stacked in order.

    Each stored W_g reads [h_prev, x], so its first hidden_size columns are
    the recurrent weights; both returned weights are views of one copy.
    """
    k = p.hidden_size
    W = np.concatenate([getattr(p, f"W_{g}") for g in gates])
    b = np.concatenate([getattr(p, f"b_{g}") for g in gates])
    return W[:, k:], b, W[:, :k]


def gru_scan(p, X, mask, reverse=False, trace=True):
    """Run a GRU over time-major (T, B, in_dim) inputs from a zero state.

    `mask` (T, B) marks real tokens; a padding step holds the state.
    reverse=True scans t = T..1, so position t's "previous" state is h_{t+1};
    trace arrays stay indexed by the original time axis either way.
    trace=False keeps only h.
    """
    T, B, _ = X.shape
    k = p.hidden_size
    W_x, b, W_h = _stacked(p, GRU_GATES)
    W_zr, W_hh = W_h[:2 * k], W_h[2 * k:]
    gx = affine(W_x, X, b)
    real = mask[:, :, np.newaxis]
    gates = ("z", "r", "h_cand") if trace else ()
    out = GruTrace(h=np.empty((T, B, k)), **{g: np.empty((T, B, k)) for g in gates})
    h = np.zeros((B, k))
    for t in range(T - 1, -1, -1) if reverse else range(T):
        zr = sigmoid(gx[t, :, :2 * k] + h @ W_zr.T)
        z, r = zr[:, :k], zr[:, k:]
        h_cand = np.tanh(gx[t, :, 2 * k:] + (r * h) @ W_hh.T)
        h = np.where(real[t], (1.0 - z) * h + z * h_cand, h)
        out.h[t] = h
        if trace:
            out.z[t], out.r[t], out.h_cand[t] = z, r, h_cand
    return out


def lstm_scan(p, X, mask, trace=True):
    """Run the LSTM over time-major (T, B, in_dim) inputs from a zero state.

    `mask` (T, B) marks real tokens; a padding step holds h and C.
    trace=False keeps only the final h.
    """
    T, B, _ = X.shape
    m = p.hidden_size
    W_x, b, W_h = _stacked(p, LSTM_GATES)
    gx = affine(W_x, X, b)
    real = mask[:, :, np.newaxis]
    gates = ("f", "i", "o", "c_cand", "c", "tanh_c") if trace else ()
    out = LstmTrace(h=np.empty((T if trace else 1, B, m)),
                    **{g: np.empty((T, B, m)) for g in gates})
    h = np.zeros((B, m))
    C = np.zeros((B, m))
    for t in range(T):
        a = gx[t] + h @ W_h.T
        fio = sigmoid(a[:, :3 * m])
        f, i, o = fio[:, :m], fio[:, m:2 * m], fio[:, 2 * m:]
        c_cand = np.tanh(a[:, 3 * m:])
        C_new = f * C + i * c_cand
        tanh_c = np.tanh(C_new)
        h = np.where(real[t], o * tanh_c, h)
        C = np.where(real[t], C_new, C)
        if trace:
            out.f[t], out.i[t], out.o[t], out.c_cand[t] = f, i, o, c_cand
            out.c[t], out.tanh_c[t], out.h[t] = C, tanh_c, h
    if not trace:
        out.h[0] = h
    return out


def dense_sigmoid(p, h):
    """Probability from the single-unit sigmoid head, one per row of h (..., m)."""
    return sigmoid(affine(p.W, h, p.b))[..., 0]


def classify(yhat):
    """Decision threshold at 0.5; the boundary itself is positive."""
    return 1 if yhat >= 0.5 else 0


@dataclass
class ForwardCache:
    """Everything the backward pass needs to replay one forward call."""
    stack: str
    mode: str
    dropout_rate: float
    indices: np.ndarray          # effective (non-PAD) token indices
    x: np.ndarray                # (n, d) embedded inputs
    grus: tuple                  # one GruTrace per STACKS direction, in order
    seq_mask: Optional[np.ndarray]   # dropout mask over the LSTM input sequence
    lstm_in: np.ndarray          # (n, in_dim) sequence the LSTM consumed
    lstm: Optional[LstmTrace]
    out_mask: Optional[np.ndarray]   # dropout mask over the final hidden state
    h_final: np.ndarray          # vector the dense head consumed
    yhat: float
    degenerate: bool = False


@dataclass
class BatchCache:
    """A forward_batch call: time-major arrays over T steps and B sequences."""
    stack: str
    mode: str
    dropout_rate: float
    index: np.ndarray            # (T, B) token indices, PAD past each length
    mask: np.ndarray             # (T, B), True on real tokens
    x: np.ndarray                # (T, B, d) embedded inputs
    grus: tuple                  # one GruTrace per STACKS direction, in order
    seq_mask: Optional[np.ndarray]   # (T, B, in_dim) dropout mask, LSTM input
    lstm_in: np.ndarray          # (T, B, in_dim) sequence the LSTM consumed
    lstm: LstmTrace
    out_mask: Optional[np.ndarray]   # (B, m) dropout mask, final hidden state
    h_final: np.ndarray          # (B, m) rows the dense head consumed
    yhat: np.ndarray             # (B,)


def _check_mode(mode, dropout_rate):
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode: {mode!r}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")


def forward_batch(params, seqs, mode="infer", dropout_rate=0.0, seeds=None, trace=True):
    """Forward pass over non-empty encoded sequences, padded to the longest.

    Train mode with dropout draws sequence j's masks from a generator seeded
    with seeds[j], the LSTM-input mask first, as model_forward does for one
    sequence. trace=False keeps only what each next layer reads, which is
    enough for the probabilities but not for backward_batch.
    """
    _check_mode(mode, dropout_rate)
    lengths = [seq.true_length for seq in seqs]
    if min(lengths) < 1:
        raise ValueError("forward_batch needs sequences with at least one token")
    T = max(lengths)
    index = np.zeros((T, len(seqs)), dtype=np.int64)
    for j, (seq, n) in enumerate(zip(seqs, lengths)):
        index[:n, j] = seq.indices[:n]
    mask = np.arange(T)[:, np.newaxis] < np.array(lengths)
    x = embed_lookup(index, params.embedding)

    grus = tuple(gru_scan(getattr(params, block), x, mask, reverse, trace)
                 for block, reverse in STACKS[params.stack])
    H = np.concatenate([g.h for g in grus], axis=2) if grus else x

    # inverted dropout; raw embeddings are not dropped, so the sequence
    # mask is drawn only after a GRU and always before the final-state mask
    train = mode == "train" and dropout_rate > 0.0
    rngs = [np.random.default_rng(seed) for seed in seeds] if train else []
    seq_mask = out_mask = None
    if train and grus:
        seq_mask = np.zeros(H.shape, dtype=bool)
        for j, (rng, n) in enumerate(zip(rngs, lengths)):
            seq_mask[:n, j] = rng.random((n, H.shape[2])) >= dropout_rate
        H *= seq_mask
        H /= 1.0 - dropout_rate

    lt = lstm_scan(params.lstm, H, mask, trace)
    h_final = lt.h[-1]
    if train:
        out_mask = np.stack([rng.random(h_final.shape[1]) >= dropout_rate for rng in rngs])
        h_final = h_final * out_mask / (1.0 - dropout_rate)
    return BatchCache(
        stack=params.stack, mode=mode, dropout_rate=dropout_rate, index=index, mask=mask,
        x=x, grus=grus, seq_mask=seq_mask, lstm_in=H, lstm=lt, out_mask=out_mask,
        h_final=h_final, yhat=dense_sigmoid(params.dense, h_final),
    )


def model_forward(params, seq, mode="infer", dropout_rate=0.0, seed=0):
    """Full forward pass for one encoded sequence: forward_batch at B = 1.

    Returns (yhat, cache). Train mode draws dropout masks from a generator
    seeded with `seed`, so (seed, input) fully determines the output. An
    all-PAD input yields yhat = 0.5 with cache.degenerate set.
    """
    _check_mode(mode, dropout_rate)
    if seq.true_length == 0:
        return 0.5, ForwardCache(
            stack=params.stack, mode=mode, dropout_rate=dropout_rate,
            indices=np.zeros(0, dtype=np.int64), x=np.zeros((0, params.embedding.dim)),
            grus=(), seq_mask=None, lstm_in=np.zeros((0, 0)), lstm=None, out_mask=None,
            h_final=np.zeros(params.lstm.hidden_size), yhat=0.5, degenerate=True,
        )
    batch = forward_batch(params, [seq], mode, dropout_rate, [seed])
    first = lambda a: None if a is None else a[:, 0]  # noqa: E731
    yhat = float(batch.yhat[0])
    return yhat, ForwardCache(
        stack=params.stack, mode=mode, dropout_rate=dropout_rate,
        indices=batch.index[:, 0], x=batch.x[:, 0],
        grus=tuple(_map_arrays(trace, first) for trace in batch.grus),
        seq_mask=first(batch.seq_mask), lstm_in=batch.lstm_in[:, 0],
        lstm=_map_arrays(batch.lstm, first),
        out_mask=None if batch.out_mask is None else batch.out_mask[0],
        h_final=batch.h_final[0], yhat=yhat,
    )


def sub_batches(seqs):
    """Index lists of length-sorted groups of at most ROW_BUDGET padded rows.

    Sorting by length keeps the padding of each group small (sequence
    bucketing). All-PAD sequences are left out: they score 0.5 and have no
    gradient. A sequence longer than the budget gets a group of its own.
    """
    lengths = [seq.true_length for seq in seqs]
    order = [j for j in np.argsort(lengths, kind="stable") if lengths[j] > 0]
    groups, start = [], 0
    for end, j in enumerate(order):
        if end > start and (end + 1 - start) * lengths[j] > ROW_BUDGET:
            groups.append(order[start:end])
            start = end
    if order:
        groups.append(order[start:])
    return groups


def predict_proba(params, seqs):
    """Infer-mode probabilities of encoded sequences, in input order.

    Runs the length-sorted sub-batches keeping only what each next layer
    reads; an all-PAD sequence gets 0.5, as in model_forward.
    """
    yhat = np.full(len(seqs), 0.5)
    for rows in sub_batches(seqs):
        yhat[rows] = forward_batch(params, [seqs[j] for j in rows], trace=False).yhat
    return yhat


def _add_gate_grads(grads, prefix, gates, da, X, dW_h):
    """Add the weight and bias gradients of stacked gates to `grads`.

    `da` (T, B, G*k) holds the gate pre-activation gradients, X the layer
    input and dW_h (G*k, k) the recurrent weight gradient.
    """
    k = dW_h.shape[1]
    da2 = da.reshape(-1, da.shape[2])
    dW_x = da2.T @ X.reshape(-1, X.shape[2])
    db = da2.sum(axis=0)
    for g, gate in enumerate(gates):
        rows = slice(g * k, (g + 1) * k)
        W = grads[f"{prefix}.W_{gate}"]
        W[:, :k] += dW_h[rows]
        W[:, k:] += dW_x[rows]
        grads[f"{prefix}.b_{gate}"] += db[rows]


def _lstm_backward(p, trace, U, mask, dh_last, grads, prefix="lstm"):
    """BPTT through the LSTM; returns d(loss)/d(input sequence), (T, B, in_dim)."""
    T, B, m = trace.h.shape
    W_x, _, W_h = _stacked(p, LSTM_GATES)
    zero = np.zeros((B, m))
    real = mask[:, :, np.newaxis]
    da = np.empty((T, B, 4 * m))
    dh = dh_last
    dc = np.zeros((B, m))
    for t in range(T - 1, -1, -1):
        f, i, o, cc = trace.f[t], trace.i[t], trace.o[t], trace.c_cand[t]
        tc = trace.tanh_c[t]
        # a padding step passed h and C through unchanged
        dh_new = np.where(real[t], dh, 0.0)
        dc_new = np.where(real[t], dc, 0.0) + dh_new * o * (1.0 - tc * tc)
        da[t, :, :m] = dc_new * (trace.c[t - 1] if t else zero) * f * (1.0 - f)
        da[t, :, m:2 * m] = dc_new * cc * i * (1.0 - i)
        da[t, :, 2 * m:3 * m] = dh_new * tc * o * (1.0 - o)
        da[t, :, 3 * m:] = dc_new * i * (1.0 - cc * cc)
        dh = np.where(real[t], 0.0, dh) + da[t] @ W_h
        dc = np.where(real[t], dc_new * f, dc)
    # step 0 read the zero initial state, so its rows add nothing to dW_h
    dW_h = da[1:].reshape(-1, 4 * m).T @ trace.h[:-1].reshape(-1, m)
    _add_gate_grads(grads, prefix, LSTM_GATES, da, U, dW_h)
    return (da.reshape(-1, 4 * m) @ W_x).reshape(T, B, -1)


def _gru_backward(p, trace, X, mask, dH, grads, prefix, reverse=False):
    """BPTT through one GRU direction; returns d(loss)/d(input sequence).

    For the reverse scan the recurrent neighbour of step t is t+1, so the
    gradient sweep runs t = 1..T instead of t = T..1.
    """
    T, B, k = trace.h.shape
    W_x, _, W_h = _stacked(p, GRU_GATES)
    W_zr, W_hh = W_h[:2 * k], W_h[2 * k:]
    zero = np.zeros((B, k))
    real = mask[:, :, np.newaxis]
    da = np.empty((T, B, 3 * k))
    dh_carry = np.zeros((B, k))
    for t in range(T) if reverse else range(T - 1, -1, -1):
        if reverse:
            hp = trace.h[t + 1] if t + 1 < T else zero
        else:
            hp = trace.h[t - 1] if t > 0 else zero
        z, r, hc = trace.z[t], trace.r[t], trace.h_cand[t]
        dh = dH[t] + dh_carry
        dh_new = np.where(real[t], dh, 0.0)
        da[t, :, 2 * k:] = dh_new * z * (1.0 - hc * hc)
        dv = da[t, :, 2 * k:] @ W_hh  # d(loss)/d(r * h_prev)
        da[t, :, :k] = dh_new * (hc - hp) * z * (1.0 - z)
        da[t, :, k:2 * k] = dv * hp * r * (1.0 - r)
        dh_carry = np.where(real[t], dh_new * (1.0 - z) + dv * r, dh) + da[t, :, :2 * k] @ W_zr
    # the step that read the zero initial state adds nothing to dW_h
    da2 = da.reshape(-1, 3 * k)
    steps, h_prev = (slice(0, -B), trace.h[1:]) if reverse else (slice(B, None), trace.h[:-1])
    rh_prev = (trace.r[:-1] if reverse else trace.r[1:]) * h_prev
    dW_h = np.concatenate([da2[steps, :2 * k].T @ h_prev.reshape(-1, k),
                           da2[steps, 2 * k:].T @ rh_prev.reshape(-1, k)])
    _add_gate_grads(grads, prefix, GRU_GATES, da, X, dW_h)
    return (da2 @ W_x).reshape(T, B, -1)


def _check_cache(params, cache):
    if cache.mode != "train":
        raise ValueError("the backward pass needs a cache recorded in train mode")
    if cache.stack != params.stack:
        raise ValueError(
            f"cache stack {cache.stack!r} does not match params stack {params.stack!r}"
        )


def backward_batch(params, cache, dL_dyhat, grads):
    """Add the exact gradients of sum_j loss_j to `grads` (a zero_grads dict).

    `cache` comes from a train-mode forward_batch call on the same params
    and dL_dyhat (B,) holds each d(loss_j)/d(yhat_j). The embedding gradient
    is scattered per looked-up row; its PAD row is forced to zero.
    """
    _check_cache(params, cache)
    if cache.x.shape[2] != params.embedding.dim or \
            cache.lstm.h.shape[2] != params.lstm.hidden_size:
        raise ValueError("stale cache: shapes do not match params")

    # dense head: yhat = sigmoid(W h + b)
    ds = dL_dyhat * cache.yhat * (1.0 - cache.yhat)
    grads["dense.W"] += ds @ cache.h_final
    grads["dense.b"] += ds.sum()
    dh_final = params.dense.W[0] * ds[:, np.newaxis]

    if cache.out_mask is not None:
        dh_final = dh_final * cache.out_mask / (1.0 - cache.dropout_rate)

    dU = _lstm_backward(params.lstm, cache.lstm, cache.lstm_in, cache.mask, dh_final, grads)

    if cache.seq_mask is not None:
        dU *= cache.seq_mask
        dU /= 1.0 - cache.dropout_rate

    # each GRU direction owns an equal slice of the LSTM input columns
    dX = dU
    if cache.grus:
        k = dU.shape[2] // len(cache.grus)
        dX = sum(_gru_backward(getattr(params, block), trace, cache.x, cache.mask,
                               dU[:, :, j * k:(j + 1) * k], grads, block, reverse=reverse)
                 for j, ((block, reverse), trace)
                 in enumerate(zip(STACKS[params.stack], cache.grus)))

    # padding steps carry a zero gradient into the PAD row, zeroed here too
    dE = grads["embedding.E"]
    np.add.at(dE, cache.index.reshape(-1), dX.reshape(-1, dX.shape[2]))
    dE[0, :] = 0.0


def model_backward(params, cache, dL_dyhat):
    """Exact gradients of a scalar loss with respect to every parameter.

    `cache` must come from a train-mode model_forward call on the same
    params; this is backward_batch at B = 1. The embedding gradient
    accumulates per looked-up row and its PAD row is forced to zero.
    """
    _check_cache(params, cache)
    grads = zero_grads(params)
    if cache.degenerate:
        return grads
    column = lambda a: None if a is None else a[:, np.newaxis]  # noqa: E731
    batch = BatchCache(
        stack=cache.stack, mode=cache.mode, dropout_rate=cache.dropout_rate,
        index=column(cache.indices), mask=np.ones((len(cache.indices), 1), dtype=bool),
        x=column(cache.x), grus=tuple(_map_arrays(trace, column) for trace in cache.grus),
        seq_mask=column(cache.seq_mask), lstm_in=column(cache.lstm_in),
        lstm=_map_arrays(cache.lstm, column),
        out_mask=None if cache.out_mask is None else cache.out_mask[np.newaxis],
        h_final=cache.h_final[np.newaxis], yhat=np.array([cache.yhat]),
    )
    backward_batch(params, batch, np.array([dL_dyhat]), grads)
    return grads
