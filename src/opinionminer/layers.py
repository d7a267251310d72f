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

Dropout is inverted (train-time scaling by 1/(1-rate)), applied to the
recurrent output sequence and to the final hidden state in train mode only.
"""

from dataclasses import dataclass
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
    z: np.ndarray       # (n, k)
    r: np.ndarray
    h_cand: np.ndarray
    h: np.ndarray


@dataclass
class LstmTrace:
    f: np.ndarray       # (n, m)
    i: np.ndarray
    o: np.ndarray
    c_cand: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


def embed_lookup(seq, emb):
    """Rows of E for the non-PAD prefix of a TokenSequence, as an (n, d) array."""
    idx = np.asarray(seq.indices[: seq.true_length])
    if idx.size and (idx.min() < 0 or idx.max() >= emb.vocab_size):
        raise IndexError("token index out of embedding range")
    return emb.E[idx]


def gru_cell_forward(p, h_prev, x_t):
    """One GRU step; the reset gate scales h_prev before the candidate concat."""
    u = np.concatenate([h_prev, x_t])
    z = sigmoid(affine(p.W_z, u, p.b_z))
    r = sigmoid(affine(p.W_r, u, p.b_r))
    v = np.concatenate([r * h_prev, x_t])
    h_cand = np.tanh(affine(p.W_h, v, p.b_h))
    h = (1.0 - z) * h_prev + z * h_cand
    return h, GruGates(z=z, r=r, h_cand=h_cand)


def gru_scan(p, X, reverse=False):
    """Run a GRU over an (n, in_dim) sequence from a zero initial state.

    reverse=True scans t = n..1, so position t's "previous" state is h_{t+1};
    trace arrays stay indexed by the original time axis either way.
    """
    n = X.shape[0]
    k = p.hidden_size
    trace = GruTrace(z=np.empty((n, k)), r=np.empty((n, k)),
                     h_cand=np.empty((n, k)), h=np.empty((n, k)))
    h = np.zeros(k)
    steps = range(n - 1, -1, -1) if reverse else range(n)
    for t in steps:
        h, gates = gru_cell_forward(p, h, X[t])
        trace.z[t] = gates.z
        trace.r[t] = gates.r
        trace.h_cand[t] = gates.h_cand
        trace.h[t] = h
    return trace


def lstm_step(p, h_prev, C_prev, x_t):
    """One LSTM step: gated cell update then gated tanh readout."""
    u = np.concatenate([h_prev, x_t])
    f = sigmoid(affine(p.W_f, u, p.b_f))
    i = sigmoid(affine(p.W_i, u, p.b_i))
    o = sigmoid(affine(p.W_o, u, p.b_o))
    c_cand = np.tanh(affine(p.W_c, u, p.b_c))
    C = f * C_prev + i * c_cand
    h = o * np.tanh(C)
    return h, C, LstmGates(f=f, i=i, o=o, c_cand=c_cand)


def lstm_scan(p, X):
    n = X.shape[0]
    m = p.hidden_size
    trace = LstmTrace(f=np.empty((n, m)), i=np.empty((n, m)), o=np.empty((n, m)),
                      c_cand=np.empty((n, m)), c=np.empty((n, m)),
                      tanh_c=np.empty((n, m)), h=np.empty((n, m)))
    h = np.zeros(m)
    C = np.zeros(m)
    for t in range(n):
        h, C, gates = lstm_step(p, h, C, X[t])
        trace.f[t] = gates.f
        trace.i[t] = gates.i
        trace.o[t] = gates.o
        trace.c_cand[t] = gates.c_cand
        trace.c[t] = C
        trace.tanh_c[t] = np.tanh(C)
        trace.h[t] = h
    return trace


def dense_sigmoid(p, h):
    """Scalar probability from the single-unit sigmoid head."""
    s = affine(p.W, h, p.b)
    return float(sigmoid(s)[0])


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


def model_forward(params, seq, mode="infer", dropout_rate=0.0, seed=0):
    """Full forward pass for one encoded sequence.

    Returns (yhat, cache). Train mode draws dropout masks from a generator
    seeded with `seed`, so (seed, input) fully determines the output. An
    all-PAD input yields yhat = 0.5 with cache.degenerate set.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode: {mode!r}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    x = embed_lookup(seq, params.embedding)
    n = x.shape[0]
    empty = np.zeros((0, 0))
    if n == 0:
        return 0.5, ForwardCache(
            stack=params.stack, mode=mode, dropout_rate=dropout_rate,
            indices=np.zeros(0, dtype=np.int64), x=x, grus=(),
            seq_mask=None, lstm_in=empty, lstm=None, out_mask=None,
            h_final=np.zeros(params.lstm.hidden_size), yhat=0.5, degenerate=True,
        )

    train = mode == "train" and dropout_rate > 0.0
    rng = np.random.default_rng(seed) if train else None

    grus = tuple(gru_scan(getattr(params, block), x, reverse=reverse)
                 for block, reverse in STACKS[params.stack])
    H = np.concatenate([trace.h for trace in grus], axis=1) if grus else x

    # inverted dropout; raw embeddings are not dropped, so the sequence
    # mask is drawn only after a GRU and always before the final-state mask
    seq_mask = out_mask = None
    if train and grus:
        seq_mask = rng.random(H.shape) >= dropout_rate
        H = H * seq_mask / (1.0 - dropout_rate)

    lt = lstm_scan(params.lstm, H)
    h_final = lt.h[-1]
    if train:
        out_mask = rng.random(h_final.shape) >= dropout_rate
        h_final = h_final * out_mask / (1.0 - dropout_rate)
    yhat = dense_sigmoid(params.dense, h_final)
    cache = ForwardCache(
        stack=params.stack, mode=mode, dropout_rate=dropout_rate,
        indices=np.asarray(seq.indices[: seq.true_length]), x=x,
        grus=grus, seq_mask=seq_mask, lstm_in=H, lstm=lt,
        out_mask=out_mask, h_final=h_final, yhat=yhat,
    )
    return yhat, cache


def _lstm_backward(p, trace, U, dh_last, grads, prefix="lstm"):
    """BPTT through the LSTM; returns d(loss)/d(input sequence)."""
    n, m = trace.h.shape
    dU = np.zeros_like(U)
    dh = dh_last.copy()
    dc = np.zeros(m)
    zero = np.zeros(m)
    for t in range(n - 1, -1, -1):
        f, i, o, cc = trace.f[t], trace.i[t], trace.o[t], trace.c_cand[t]
        tc = trace.tanh_c[t]
        c_prev = trace.c[t - 1] if t > 0 else zero
        h_prev = trace.h[t - 1] if t > 0 else zero

        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        df = dc * c_prev
        di = dc * cc
        dcc = dc * i

        da_f = df * f * (1.0 - f)
        da_i = di * i * (1.0 - i)
        da_o = do * o * (1.0 - o)
        da_c = dcc * (1.0 - cc * cc)

        u = np.concatenate([h_prev, U[t]])
        grads[f"{prefix}.W_f"] += np.outer(da_f, u)
        grads[f"{prefix}.W_i"] += np.outer(da_i, u)
        grads[f"{prefix}.W_o"] += np.outer(da_o, u)
        grads[f"{prefix}.W_c"] += np.outer(da_c, u)
        grads[f"{prefix}.b_f"] += da_f
        grads[f"{prefix}.b_i"] += da_i
        grads[f"{prefix}.b_o"] += da_o
        grads[f"{prefix}.b_c"] += da_c

        du = p.W_f.T @ da_f + p.W_i.T @ da_i + p.W_o.T @ da_o + p.W_c.T @ da_c
        dh = du[:m]
        dU[t] = du[m:]
        dc = dc * f
    return dU


def _gru_backward(p, trace, X, dH, grads, prefix, reverse=False):
    """BPTT through one GRU direction; returns d(loss)/d(input sequence).

    For the reverse scan the recurrent neighbour of step t is t+1, so the
    gradient sweep runs t = 1..n instead of t = n..1.
    """
    n, k = trace.h.shape
    dX = np.zeros_like(X)
    dh_carry = np.zeros(k)
    zero = np.zeros(k)
    steps = range(n) if reverse else range(n - 1, -1, -1)
    for t in steps:
        if reverse:
            h_prev = trace.h[t + 1] if t + 1 < n else zero
        else:
            h_prev = trace.h[t - 1] if t > 0 else zero
        z, r, hc = trace.z[t], trace.r[t], trace.h_cand[t]

        dh = dH[t] + dh_carry
        dz = dh * (hc - h_prev)
        dhc = dh * z
        dh_prev = dh * (1.0 - z)

        da_h = dhc * (1.0 - hc * hc)
        v = np.concatenate([r * h_prev, X[t]])
        grads[f"{prefix}.W_h"] += np.outer(da_h, v)
        grads[f"{prefix}.b_h"] += da_h
        dv = p.W_h.T @ da_h
        dr = dv[:k] * h_prev
        dh_prev = dh_prev + dv[:k] * r
        dx = dv[k:].copy()

        u = np.concatenate([h_prev, X[t]])
        da_z = dz * z * (1.0 - z)
        grads[f"{prefix}.W_z"] += np.outer(da_z, u)
        grads[f"{prefix}.b_z"] += da_z
        duz = p.W_z.T @ da_z
        dh_prev = dh_prev + duz[:k]
        dx += duz[k:]

        da_r = dr * r * (1.0 - r)
        grads[f"{prefix}.W_r"] += np.outer(da_r, u)
        grads[f"{prefix}.b_r"] += da_r
        dur = p.W_r.T @ da_r
        dh_prev = dh_prev + dur[:k]
        dx += dur[k:]

        dX[t] = dx
        dh_carry = dh_prev
    return dX


def model_backward(params, cache, dL_dyhat):
    """Exact gradients of a scalar loss with respect to every parameter.

    `cache` must come from a train-mode model_forward call on the same
    params. The embedding gradient accumulates per looked-up row and its
    PAD row is forced to zero.
    """
    if cache.mode != "train":
        raise ValueError("model_backward needs a cache recorded in train mode")
    if cache.stack != params.stack:
        raise ValueError(
            f"cache stack {cache.stack!r} does not match params stack {params.stack!r}"
        )
    grads = zero_grads(params)
    if cache.degenerate:
        return grads
    if cache.x.shape[1] != params.embedding.dim or \
            cache.lstm.h.shape[1] != params.lstm.hidden_size:
        raise ValueError("stale cache: shapes do not match params")

    # dense head: yhat = sigmoid(W h + b)
    ds = dL_dyhat * cache.yhat * (1.0 - cache.yhat)
    grads["dense.W"] += ds * cache.h_final[np.newaxis, :]
    grads["dense.b"] += np.array([ds])
    dh_final = params.dense.W[0] * ds

    if cache.out_mask is not None:
        dh_final = dh_final * cache.out_mask / (1.0 - cache.dropout_rate)

    dU = _lstm_backward(params.lstm, cache.lstm, cache.lstm_in, dh_final, grads)

    if cache.seq_mask is not None:
        dU = dU * cache.seq_mask / (1.0 - cache.dropout_rate)

    # each GRU direction owns an equal slice of the LSTM input columns
    dX = dU
    if cache.grus:
        k = dU.shape[1] // len(cache.grus)
        dX = sum(_gru_backward(getattr(params, block), trace, cache.x,
                               dU[:, j * k:(j + 1) * k], grads, block, reverse=reverse)
                 for j, ((block, reverse), trace)
                 in enumerate(zip(STACKS[params.stack], cache.grus)))

    dE = grads["embedding.E"]
    for t, idx in enumerate(cache.indices):
        dE[idx] += dX[t]
    dE[0, :] = 0.0
    return grads
