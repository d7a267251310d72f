"""Model layers and their exact backward passes.

The stack is: trainable embedding lookup -> bidirectional GRU (forward and
backward scans concatenated per timestep) -> LSTM -> single sigmoid unit.
Two reduced stacks reuse the same cells: `lstm_only` feeds embeddings
straight into the LSTM and `gru_lstm` uses only the forward GRU scan.

Cell math, spelled out once here, run only by the stacked scans below and
mirrored by the backward code (the tests keep a gate-by-gate transcription
of it that shares no code with this module):

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
sequences is sorted shortest-first and post-padded to the longest, T, and
every scan works on time-major (T, B, ...) arrays with a (T, B) mask of real
tokens. So the rows still inside their sequence at step t are a suffix
[first[t]:] of the batch, and each step of the four time loops (both scans
and their backward passes) computes those rows only; the scans refuse any
other batch layout. A finished or not yet started row is left untouched:
the reverse GRU starts from zero at each sequence's last real token, the
LSTM's final state is that of the last real token, and a padding position's
gates are 0, so a sequence's outputs do not depend on the padding around
it. Each step writes its products and gates straight into the trace arrays,
with its temporaries allocated once per loop. Each layer stores its gates
stacked in one matrix, whose columns split into the recurrent and the input
weights; the checkpoint tensors W_z, b_z, ... are row views of it. The
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

from dataclasses import dataclass
from typing import ClassVar, Optional

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

# Most padded rows (T x B) one sub-batch may hold. At full size a train-mode
# sub-batch of 1024 rows peaks near 48 MB of traces and temporaries (about
# 47 KB a row); budgets of 512 or 768 rows trained 5-10% slower.
ROW_BUDGET = 1024


class _Block:
    """A parameter block; TENSORS names its checkpoint tensors in order."""

    def arrays(self):
        return [getattr(self, tensor) for tensor in self.TENSORS]

    @classmethod
    def from_arrays(cls, arrays):
        return cls(*arrays)


@dataclass
class EmbeddingParams(_Block):
    E: np.ndarray  # (vocab_size, dim); row 0 is PAD, kept all-zero
    TENSORS: ClassVar = ("E",)

    @property
    def vocab_size(self):
        return self.E.shape[0]

    @property
    def dim(self):
        return self.E.shape[1]


@dataclass
class GatedParams(_Block):
    """A recurrent layer with its G gates stacked in GATES order, k rows each.

    W (G*k, k + in_dim) reads [h_prev, x], so W[:, :k] holds the recurrent
    and W[:, k:] the input weights; b is (G*k,). The checkpoint stores each
    gate's rows as the tensors W_<gate> and b_<gate>.
    """
    W: np.ndarray
    b: np.ndarray
    GATES: ClassVar = ()

    def __init_subclass__(cls):
        cls.TENSORS = tuple(f"{t}_{gate}" for gate in cls.GATES for t in ("W", "b"))

    @property
    def hidden_size(self):
        return self.W.shape[0] // len(self.GATES)

    def arrays(self):
        """Each gate's W and b rows, as views, in TENSORS order."""
        k = self.hidden_size
        return [arr[g * k:(g + 1) * k] for g in range(len(self.GATES)) for arr in (self.W, self.b)]

    @classmethod
    def from_arrays(cls, arrays):
        """Stack per-gate tensors, given in TENSORS order, into W and b."""
        return cls(W=np.concatenate(arrays[0::2]), b=np.concatenate(arrays[1::2]))


class GruParams(GatedParams):
    GATES: ClassVar = ("z", "r", "h")


class LstmParams(GatedParams):
    GATES: ClassVar = ("f", "i", "o", "c")


@dataclass
class DenseParams(_Block):
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
        """Yield (name, array) for every parameter tensor, in checkpoint order.

        Gate tensors are views: updating one in place updates its layer.
        """
        for block, cls in _blocks(self.stack):
            for tensor, arr in zip(cls.TENSORS, getattr(self, block).arrays()):
                yield f"{block}.{tensor}", arr

    def clone(self):
        return model_params_from_arrays(
            self.stack, {name: arr.copy() for name, arr in self.named_arrays()}
        )


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


def model_params_from_arrays(stack, arrays):
    """Rebuild ModelParams from a name -> array mapping (checkpoint loading)."""
    blocks = {block: cls.from_arrays([arrays[f"{block}.{t}"] for t in cls.TENSORS])
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


@dataclass
class GruTrace:
    """Per-step GRU values, (T, B, k).

    The gates are None when the scan kept only h, the part the LSTM reads.
    """
    h: np.ndarray
    z: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    h_cand: Optional[np.ndarray] = None


@dataclass
class LstmTrace:
    """Per-step LSTM values, (T, B, m).

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


def embed_lookup(index, emb):
    """Rows of E for an integer index array of any shape, as (..., d)."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= emb.vocab_size):
        raise IndexError("token index out of embedding range")
    return emb.E[index]


def _first_rows(mask):
    """first[t]: the first batch row still inside its sequence at step t.

    The (T, B) mask must be post-padded and sorted shortest-first, as
    sub_batches yields it, so the rows a step computes are [first[t]:].
    """
    T, B = mask.shape
    lengths = mask.sum(axis=0)
    if (lengths[1:] < lengths[:-1]).any() or \
            not (mask == (np.arange(T)[:, np.newaxis] < lengths)).all():
        raise ValueError("a batch must be post-padded and sorted shortest-first, "
                         "as sub_batches yields it")
    return (B - mask.sum(axis=1)).tolist()


def gru_scan(p, X, mask, reverse=False, trace=True):
    """Run a GRU over time-major (T, B, in_dim) inputs from a zero state.

    `mask` (T, B) marks real tokens (see _first_rows); step t updates only
    the rows still inside their sequence, so a padding position's h holds
    the carried state (zero before the reverse scan starts) and its gates 0.
    reverse=True scans t = T..1, so position t's "previous" state is h_{t+1};
    trace arrays stay indexed by the original time axis either way.
    Without `trace` only h is kept.
    """
    T, B, _ = X.shape
    k = p.hidden_size
    W_zr, W_hh = p.W[:2 * k, :k].T, p.W[2 * k:, :k].T
    first = _first_rows(mask)
    gx = affine(p.W[:, k:], X, p.b)
    out = GruTrace(h=np.empty((T, B, k)))
    gates = np.zeros((T, B, 3 * k)) if trace else np.empty((1, B, 3 * k))
    if trace:
        out.z, out.r, out.h_cand = (gates[..., g * k:(g + 1) * k] for g in range(3))
    h = np.zeros((B, k))
    tmp = np.empty((B, k))
    for t in range(T - 1, -1, -1) if reverse else range(T):
        s = first[t]
        hs, v, g = h[s:], tmp[s:], gates[t if trace else 0, s:]
        zr, z, r, h_cand = g[:, :2 * k], g[:, :k], g[:, k:2 * k], g[:, 2 * k:]
        np.matmul(hs, W_zr, out=zr)
        zr += gx[t, s:, :2 * k]
        sigmoid(zr, out=zr)
        np.multiply(r, hs, out=v)
        np.matmul(v, W_hh, out=h_cand)
        h_cand += gx[t, s:, 2 * k:]
        np.tanh(h_cand, out=h_cand)
        np.subtract(h_cand, hs, out=v)  # h = h_prev + z * (h_cand - h_prev)
        v *= z
        hs += v
        out.h[t] = h
    return out


def lstm_scan(p, X, mask, trace=True):
    """Run the LSTM over time-major (T, B, in_dim) inputs from a zero state.

    `mask` (T, B) marks real tokens (see _first_rows); step t updates only
    the rows still inside their sequence, so a padding position's h and C
    hold the carried state and its gates and tanh_c are 0.
    Without `trace` only the final h is kept.
    """
    T, B, _ = X.shape
    m = p.hidden_size
    W_h = p.W[:, :m].T
    first = _first_rows(mask)
    gx = affine(p.W[:, m:], X, p.b)
    out = LstmTrace(h=np.empty((T if trace else 1, B, m)))
    gates = np.zeros((T, B, 4 * m)) if trace else np.empty((1, B, 4 * m))
    if trace:
        out.f, out.i, out.o, out.c_cand = (gates[..., g * m:(g + 1) * m] for g in range(4))
        out.c, out.tanh_c = np.empty((T, B, m)), np.zeros((T, B, m))
    h = np.zeros((B, m))
    C = np.zeros((B, m))
    tmp = np.empty((B, m))
    for t in range(T):
        s = first[t]
        hs, Cs, v, a = h[s:], C[s:], tmp[s:], gates[t if trace else 0, s:]
        f, i, o, c_cand = (a[:, g * m:(g + 1) * m] for g in range(4))
        np.matmul(hs, W_h, out=a)
        a += gx[t, s:]
        sigmoid(a[:, :3 * m], out=a[:, :3 * m])
        np.tanh(c_cand, out=c_cand)
        Cs *= f
        np.multiply(i, c_cand, out=v)
        Cs += v
        tanh_c = out.tanh_c[t, s:] if trace else v
        np.tanh(Cs, out=tanh_c)
        np.multiply(o, tanh_c, out=hs)
        if trace:
            out.c[t], out.h[t] = C, h
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
class BatchCache:
    """A forward_batch call: time-major arrays over T steps and B sequences.

    The GRU and LSTM traces hold their gates only in train mode, the one
    mode whose caches backward_batch accepts.
    """
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


def forward_batch(params, seqs, mode="infer", dropout_rate=0.0, seeds=None):
    """Forward pass over non-empty encoded sequences, padded to the longest.

    The sequences must come sorted shortest-first, as sub_batches yields
    them; the scans raise ValueError otherwise. Train mode with dropout
    draws sequence j's masks from a generator seeded with seeds[j], the
    LSTM-input mask first, as model_forward does for one sequence. Infer
    mode keeps only what each next layer reads, which is enough for the
    probabilities but not for backward_batch.
    """
    _check_mode(mode, dropout_rate)
    trace = mode == "train"
    lengths = [seq.true_length for seq in seqs]
    if min(lengths) < 1:
        raise ValueError("forward_batch needs sequences with at least one token")
    T = max(lengths)
    index = np.zeros((T, len(seqs)), dtype=np.int64)
    for j, (seq, n) in enumerate(zip(seqs, lengths)):
        index[:n, j] = seq.indices
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

    Returns (yhat, cache), the cache being forward_batch's with B = 1. Train
    mode draws dropout masks from a generator seeded with `seed`, so (seed,
    input) fully determines the output. An all-PAD input yields (0.5, None).
    """
    _check_mode(mode, dropout_rate)
    if seq.true_length == 0:
        return 0.5, None
    cache = forward_batch(params, [seq], mode, dropout_rate, [seed])
    return float(cache.yhat[0]), cache


def sub_batches(seqs):
    """Index lists of length-sorted groups of at most ROW_BUDGET padded rows.

    Sorting by length keeps the padding of each group small (sequence
    bucketing). Groups are filled from the longest sequence down, so the
    long tail shares as few time steps as the budget allows: each step
    reads the whole recurrent weight block, however few rows it computes.
    All-PAD sequences are left out: they score 0.5 and have no gradient. A
    sequence longer than the budget gets a group of its own.
    """
    lengths = [seq.true_length for seq in seqs]
    order = [j for j in np.argsort(lengths, kind="stable") if lengths[j] > 0]
    groups, end = [], len(order)
    while end:
        start = max(0, end - max(1, ROW_BUDGET // lengths[order[end - 1]]))
        groups.append(order[start:end])
        end = start
    return groups[::-1]


def predict_proba(params, seqs):
    """Infer-mode probabilities of encoded sequences, in input order.

    Runs the length-sorted sub-batches keeping only what each next layer
    reads; an all-PAD sequence gets 0.5, as in model_forward.
    """
    yhat = np.full(len(seqs), 0.5)
    for rows in sub_batches(seqs):
        yhat[rows] = forward_batch(params, [seqs[j] for j in rows]).yhat
    return yhat


def _add_gate_grads(grads, prefix, p, da, X, dW_h):
    """Add the weight and bias gradients of layer p's stacked gates to `grads`.

    `da` (T, B, G*k) holds the gate pre-activation gradients, X the layer
    input and dW_h (G*k, k) the recurrent weight gradient.
    """
    da2 = da.reshape(-1, da.shape[2])
    dW_x = da2.T @ X.reshape(-1, X.shape[2])
    step = type(p)(W=np.concatenate([dW_h, dW_x], axis=1), b=da2.sum(axis=0))
    for tensor, g in zip(p.TENSORS, step.arrays()):
        grads[f"{prefix}.{tensor}"] += g


def _times_dsigmoid(out, y, *factors):
    """out = y * (1 - y) * factors, in place: the derivative of y = sigmoid(a)."""
    np.subtract(1.0, y, out=out)
    out *= y
    for f in factors:
        out *= f
    return out


def _times_dtanh(out, y, *factors):
    """out = (1 - y^2) * factors, in place: the derivative of y = tanh(a)."""
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    for f in factors:
        out *= f
    return out


def _lstm_backward(p, trace, U, mask, dh_last, grads, prefix="lstm"):
    """BPTT through the LSTM; returns d(loss)/d(input sequence), (T, B, in_dim).

    Step t updates only the rows the forward step t computed; the others
    carry their gradient and get zero gate gradients.
    """
    T, B, m = trace.h.shape
    W_h = p.W[:, :m]
    first = _first_rows(mask)
    da = np.zeros((T, B, 4 * m))
    dh = np.array(dh_last, dtype=np.float64)
    dc = np.zeros((B, m))
    tmp = np.empty((B, m))
    for t in range(T - 1, -1, -1):
        s = first[t]
        f, i, o, cc = (g[t, s:] for g in (trace.f, trace.i, trace.o, trace.c_cand))
        tc = trace.tanh_c[t, s:]
        dhs, dcs, v, d = dh[s:], dc[s:], tmp[s:], da[t, s:]
        df, di, do, dcc = (d[:, g * m:(g + 1) * m] for g in range(4))
        dcs += _times_dtanh(v, tc, o, dhs)
        if t:  # the zero initial state gives df = 0
            _times_dsigmoid(df, f, trace.c[t - 1, s:], dcs)
        _times_dsigmoid(di, i, cc, dcs)
        _times_dsigmoid(do, o, tc, dhs)
        _times_dtanh(dcc, cc, i, dcs)
        np.matmul(d, W_h, out=dhs)
        dcs *= f
    # step t read state t-1; step 0 read the zero initial state
    dW_h = da[1:].reshape(-1, 4 * m).T @ trace.h[:-1].reshape(-1, m)
    _add_gate_grads(grads, prefix, p, da, U, dW_h)
    return (da.reshape(-1, 4 * m) @ p.W[:, m:]).reshape(T, B, -1)


def _gru_backward(p, trace, X, mask, dH, grads, prefix, reverse=False):
    """BPTT through one GRU direction; returns d(loss)/d(input sequence).

    For the reverse scan the recurrent neighbour of step t is t+1, so the
    gradient sweep runs t = 1..T instead of t = T..1. Step t updates only
    the rows the forward step t computed; dH at a padding position is not
    read, since the LSTM reads none.
    """
    T, B, k = trace.h.shape
    W_zr, W_hh = p.W[:2 * k, :k], p.W[2 * k:, :k]
    first = _first_rows(mask)
    da = np.zeros((T, B, 3 * k))
    dh = np.zeros((B, k))
    zero = np.zeros((B, k))
    tmp, tmp2 = np.empty((B, k)), np.empty((B, k))
    for t in range(T) if reverse else range(T - 1, -1, -1):
        s = first[t]
        z, r, hc = trace.z[t, s:], trace.r[t, s:], trace.h_cand[t, s:]
        prev = t + 1 if reverse else t - 1
        hp = trace.h[prev, s:] if 0 <= prev < T else zero[s:]  # the state step t read
        dhs, dv, w, d = dh[s:], tmp[s:], tmp2[s:], da[t, s:]
        dz, dr, dhc = (d[:, g * k:(g + 1) * k] for g in range(3))
        dhs += dH[t, s:]
        _times_dtanh(dhc, hc, z, dhs)
        np.matmul(dhc, W_hh, out=dv)  # d(loss)/d(r * h_prev)
        _times_dsigmoid(dz, z, dhs, np.subtract(hc, hp, out=w))
        _times_dsigmoid(dr, r, hp, dv)
        dhs *= np.subtract(1.0, z, out=w)  # d(loss)/d(h_prev)
        dv *= r
        dhs += dv
        np.matmul(d[:, :2 * k], W_zr, out=dv)
        dhs += dv
    # the start step read the zero state, which adds nothing to dW_h
    cur, prev = (slice(None, -1), slice(1, None)) if reverse else (slice(1, None), slice(None, -1))
    da_c = da[cur].reshape(-1, 3 * k)
    h_prev = trace.h[prev]
    dW_h = np.concatenate([da_c[:, :2 * k].T @ h_prev.reshape(-1, k),
                           da_c[:, 2 * k:].T @ (trace.r[cur] * h_prev).reshape(-1, k)])
    _add_gate_grads(grads, prefix, p, da, X, dW_h)
    return (da.reshape(-1, 3 * k) @ p.W[:, k:]).reshape(T, B, -1)


def backward_batch(params, cache, dL_dyhat, grads):
    """Add the exact gradients of sum_j loss_j to `grads` (a zero_grads dict).

    `cache` comes from a train-mode forward_batch call on the same params
    and dL_dyhat (B,) holds each d(loss_j)/d(yhat_j). The embedding gradient
    is scattered per looked-up row; its PAD row is forced to zero.
    """
    if cache.mode != "train":
        raise ValueError("the backward pass needs a cache recorded in train mode")
    if cache.stack != params.stack:
        raise ValueError(
            f"cache stack {cache.stack!r} does not match params stack {params.stack!r}"
        )
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
    params; this is backward_batch at B = 1. The None cache of an all-PAD
    input gives zero gradients.
    """
    grads = zero_grads(params)
    if cache is not None:
        backward_batch(params, cache, np.array([dL_dyhat]), grads)
    return grads
