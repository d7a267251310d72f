"""Straight-line reference for the forward pass, written from the equations.

It shares no code with the package: the sigmoid is the exp form, each gate
is its own `W @ u + b`, and the parameters are read by their checkpoint
names. A step takes one layer's tensors as {tensor name: array}, such as
{"W_z": ..., "b_z": ...}, and one vector each of state and input.
"""

import numpy as np


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def gru_step(w, h_prev, x):
    """One GRU step: (h, z, r, h_cand). The reset gate scales h_prev before the concat."""
    u = np.concatenate([h_prev, x])
    z = sigmoid(w["W_z"] @ u + w["b_z"])
    r = sigmoid(w["W_r"] @ u + w["b_r"])
    h_cand = np.tanh(w["W_h"] @ np.concatenate([r * h_prev, x]) + w["b_h"])
    return (1.0 - z) * h_prev + z * h_cand, z, r, h_cand


def lstm_step(w, h_prev, C_prev, x):
    """One LSTM step: (h, C, f, i, o, c_cand)."""
    u = np.concatenate([h_prev, x])
    f = sigmoid(w["W_f"] @ u + w["b_f"])
    i = sigmoid(w["W_i"] @ u + w["b_i"])
    o = sigmoid(w["W_o"] @ u + w["b_o"])
    c_cand = np.tanh(w["W_c"] @ u + w["b_c"])
    C = f * C_prev + i * c_cand
    return o * np.tanh(C), C, f, i, o, c_cand


def layer_tensors(layer):
    """{tensor name: array} of one GRU or LSTM layer."""
    return dict(zip(layer.TENSORS, layer.arrays()))


def model_forward(params, indices):
    """Infer-mode probability of one review, given its token indices.

    The forward GRU reads the tokens left to right and the backward GRU
    right to left; a stack without one of them has that block None. The
    LSTM reads the GRU states of each token, concatenated in that order, or
    the embeddings when the stack has no GRU.
    """
    w = {}
    for name, arr in params.named_arrays():
        block, tensor = name.split(".")
        w.setdefault(block, {})[tensor] = arr
    X = [w["embedding"]["E"][i] for i in indices]
    n = len(X)

    states = []
    for block, reverse in (("gru_fwd", False), ("gru_bwd", True)):
        if getattr(params, block) is None:
            continue
        h, hs = np.zeros(w[block]["W_z"].shape[0]), [None] * n
        for t in range(n - 1, -1, -1) if reverse else range(n):
            h = gru_step(w[block], h, X[t])[0]
            hs[t] = h
        states.append(hs)
    U = [np.concatenate(per_token) for per_token in zip(*states)] if states else X

    m = w["lstm"]["W_f"].shape[0]
    h, C = np.zeros(m), np.zeros(m)
    for u in U:
        h, C = lstm_step(w["lstm"], h, C, u)[:2]
    return float(sigmoid(w["dense"]["W"] @ h + w["dense"]["b"])[0])
