"""Scalar probes for gradient tests: each turns a tensor into a scalar loss
with one op, so a test can run backward or central differences through any
layer."""

import numpy as np

from sfvda.tensor import Tensor


def inner(t, g):
    """<t, g> for a fixed array ``g``; its VJP hands ``g`` to ``t``."""
    g = np.broadcast_to(np.asarray(g, dtype=np.float64), t.shape)
    return Tensor._from_op(np.sum(t.data * g), "inner", (t,), lambda grad: (grad * g,))


def squared_norm(t):
    """sum(t ** 2); its VJP is 2 t."""
    return Tensor._from_op(np.sum(t.data * t.data), "squared_norm", (t,), lambda grad: (grad * 2.0 * t.data,))
