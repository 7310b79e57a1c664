"""Ops the model never builds, kept for the tests: whole-tensor sum and
mean, which test losses reduce to a scalar with, and the unfused op graphs
that attention.attend and featurenorm.fn_apply replace, kept as the
references those ops are checked against: a batched product, softmax, a
swap of the last two axes, sqrt and div as separate autodiff nodes, the
plain-array softmax they are built on, and FN composed from sub, mul, mean,
sqrt and div."""

import numpy as np

from psformer.autodiff import ShapeError, Tensor, _accum, _make, _save, mul
from psformer.featurenorm import EPS, FNParams


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, a scalar."""
    an = a._node

    def backward_fn(g):
        _accum(an, np.broadcast_to(g, an.shape))

    return _make(a.data.sum(), (a,), backward_fn, "sum")


def tmean(a: Tensor) -> Tensor:
    """Mean of every element, a scalar: the sum times 1/size."""
    return mul(tsum(a), Tensor(1.0 / float(a.data.size)))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over stacks of matrices, broadcast as numpy broadcasts them:
    the batched product autodiff.matmul, which takes a weight matrix only,
    does not make."""
    data = a.data @ b.data
    an, bn = a._node, b._node
    av = _save(a) if bn is not None else None
    bv = _save(b) if an is not None else None

    def backward_fn(g):
        if an is not None:
            _accum(an, g @ np.swapaxes(bv, -1, -2))
        if bn is not None:
            _accum(bn, np.swapaxes(av, -1, -2) @ g)

    return _make(data, (a, b), backward_fn, "bmm")


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


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    an = a._node

    def backward_fn(g):
        # Subgradient 0 at the origin: the true slope is infinite, and a
        # 0/0 here would poison every upstream gradient with NaN.
        denom = np.where(data > 0.0, data, 1.0)
        _accum(an, np.where(data > 0.0, g * 0.5 / denom, 0.0))

    return _make(data, (a,), backward_fn, "sqrt", reads_output=True)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    an, bn = a._node, b._node
    av = _save(a) if bn is not None else None
    bv = _save(b)

    def backward_fn(g):
        if an is not None:
            _accum(an, g / bv)
        if bn is not None:
            _accum(bn, -g * av / (bv * bv))

    return _make(data, (a, b), backward_fn, "div")


def fn_apply(members: Tensor, centroids: Tensor, params: FNParams) -> Tensor:
    """alpha * (f_ij - f_i) / (sigma + EPS) + beta as a graph of elementwise
    ops, sigma the root mean square of the centroid difference. The
    difference is built twice, once for sigma and once for the affine map,
    so each reaches the members and the centroids by its own path."""
    m, _, d = members.shape
    sigma_diff = members - centroids.reshape(m, 1, d)
    sigma = sqrt(tmean(sigma_diff * sigma_diff))
    diff = members - centroids.reshape(m, 1, d)
    return params.alpha * div(diff, sigma + EPS) + params.beta
