"""The unfused op graph that attention.attend replaces, kept as the reference
attend is checked against: softmax and a swap of the last two axes as
separate autodiff nodes, and the plain-array softmax they are built on. The
model itself never builds them."""

import numpy as np

from psformer.autodiff import ShapeError, Tensor, _accum, _make


def softmax_data(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain array along `axis`."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def swap_last(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError(f"swap_last needs ndim >= 2, got shape {a.shape}")
    data = np.swapaxes(a.data, -1, -2)
    an = a._node

    def backward_fn(g):
        _accum(an, np.swapaxes(g, -1, -2))

    return _make(data, (a,), backward_fn, "swap_last")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    data = softmax_data(a.data, axis)
    an = a._node

    def backward_fn(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(an, (g - dot) * data)

    return _make(data, (a,), backward_fn, "softmax", reads_output=True)
