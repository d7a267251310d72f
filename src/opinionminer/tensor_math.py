"""Dense float64 kernels shared by every layer.

Vectors are 1-D and matrices 2-D ``numpy.float64`` arrays throughout the
package. Everything here is pure: no shared RNG, no in-place mutation of
arguments.
"""

import numpy as np

__all__ = [
    "affine",
    "sigmoid",
    "glorot_uniform",
]


def affine(W, v, b):
    """W @ v + b for a (rows, cols) matrix, length-cols vector and length-rows bias."""
    W = np.asarray(W, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if W.ndim != 2 or v.ndim != 1 or b.ndim != 1:
        raise ValueError("affine expects a 2-D matrix and 1-D vectors")
    if W.shape[1] != v.shape[0]:
        raise ValueError(f"affine: W has {W.shape[1]} cols but v has length {v.shape[0]}")
    if W.shape[0] != b.shape[0]:
        raise ValueError(f"affine: W has {W.shape[0]} rows but b has length {b.shape[0]}")
    return W @ v + b


def sigmoid(x):
    """Elementwise logistic function, branch form so exp never overflows."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def glorot_uniform(rng, rows, cols):
    """Uniform(-s, s) draw with s = sqrt(6 / (rows + cols)) from a given Generator."""
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-s, s, size=(rows, cols))
