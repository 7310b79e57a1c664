"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is implicit: every tensor produced by an operation keeps references
to its parents and a closure that routes the output gradient back to them.
backward() orders the nodes reachable from the loss by an iterative
depth-first post-order walk and runs each closure once, in reverse of that
order, so a node's gradient is complete before it is routed to its parents.
An interior node's gradient is released as soon as it has been routed; leaf
tensors (parameters) and the loss keep theirs. Tensors are confined to one
thread during a forward/backward pass; tensors built under no_grad(), which
holds in the calling thread only, are plain read-only values.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A caller-side precondition was violated."""


_grad_enabled = contextvars.ContextVar("psformer_grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph construction inside its scope, in
    the calling thread only."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self) -> "Tensor":
        return tsum(self)

    def mean(self) -> "Tensor":
        return tmean(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
        out._op = op
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g to t.grad: the one place a gradient enters a tensor. g of an
    op's broadcast output shape is summed down to t's shape first."""
    if not t.requires_grad:
        return
    if g.shape != t.shape:
        g = _unbroadcast(g, t.shape)
    if t.grad is None:
        # Copy: g may be a view into a child's gradient buffer.
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# elementwise ops -------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward_fn(g):
        _accum(a, g)
        _accum(b, g)

    return _make(data, (a, b), backward_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward_fn(g):
        _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)

    return _make(data, (a, b), backward_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _make(data, (a, b), backward_fn, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -g * a.data / (b.data * b.data))

    return _make(data, (a, b), backward_fn, "div")


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward_fn(g):
        # Subgradient 0 at the origin: the true slope is infinite, and a
        # 0/0 here would poison every upstream gradient with NaN.
        denom = np.where(data > 0.0, data, 1.0)
        _accum(a, np.where(data > 0.0, g * 0.5 / denom, 0.0))

    return _make(data, (a,), backward_fn, "sqrt")


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        _accum(a, g * (a.data > 0.0))

    return _make(data, (a,), backward_fn, "relu")


def sigmoid_data(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of a plain array, in the form that never overflows."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


# shape ops -------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if b.ndim == 2 and g.ndim > 2 and a.shape[:-1] == g.shape[:-1]:
                # Batched stack times shared matrix: one flat product instead
                # of a batched one reduced afterwards.
                ga = a.data.reshape(-1, a.shape[-1])
                gg = g.reshape(-1, g.shape[-1])
                _accum(b, ga.T @ gg)
            else:
                _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make(data, (a, b), backward_fn, "matmul")


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def backward_fn(g):
        _accum(a, g.reshape(a.shape))

    return _make(data, (a,), backward_fn, "reshape")


def concat(tensors: list, axis: int = -1) -> Tensor:
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    first = tensors[0].data.shape
    ax = axis if axis >= 0 else tensors[0].data.ndim + axis
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(first) or any(
                i != ax and s[i] != first[i] for i in range(len(s))):
            raise ShapeError(f"concat shapes {first} and {s} differ off axis {axis}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward_fn(g):
        offsets = np.cumsum([0] + sizes)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _make(data, tensors, backward_fn, "concat")


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of `a` (axis 0) by an integer index array of any shape."""
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx.reshape(-1), g.reshape((idx.size,) + a.shape[1:]))
        _accum(a, ga)

    return _make(data, (a,), backward_fn, "gather_rows")


# reductions ------------------------------------------------------------


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, a scalar."""
    def backward_fn(g):
        _accum(a, np.broadcast_to(g, a.shape))

    return _make(a.data.sum(), (a,), backward_fn, "sum")


def tmean(a: Tensor) -> Tensor:
    """Mean of every element, a scalar: the sum times 1/size."""
    return mul(tsum(a), Tensor(1.0 / float(a.data.size)))


def group_max_pool(a: Tensor, valid_counts) -> Tensor:
    """Channelwise max over axis 1 of an (M, K, d) tensor, restricted per row
    to its first valid_counts[i] members. Padding entries never win."""
    m, k, d = a.shape
    counts = np.asarray(valid_counts, dtype=np.int64)
    mask = np.arange(k)[None, :] < counts[:, None]
    masked = np.where(mask[:, :, None], a.data, -np.inf)
    data = masked.max(axis=1)
    winners = masked.argmax(axis=1)  # first max among valid members

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        rows = np.arange(m)[:, None]
        cols = np.arange(d)[None, :]
        np.add.at(ga, (rows, winners, cols), g)
        _accum(a, ga)

    return _make(data, (a,), backward_fn, "group_max_pool")


# fused / structured ops ------------------------------------------------


def interp_apply(src: Tensor, idx: np.ndarray, weights: np.ndarray) -> Tensor:
    """out[i] = sum_j weights[i, j] * src[idx[i, j]].

    idx and weights come from a neighbor search over coordinates and carry no
    gradient; src is (M, d), idx/weights are (N, k).
    """
    idx = np.asarray(idx, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    data = np.einsum("nk,nkd->nd", w, src.data[idx])

    def backward_fn(g):
        gs = np.zeros_like(src.data)
        contrib = w[:, :, None] * g[:, None, :]
        np.add.at(gs, idx.reshape(-1), contrib.reshape(-1, src.shape[1]))
        _accum(src, gs)

    return _make(data, (src,), backward_fn, "interp_apply")


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy from logits, in the stable log-sum-exp form."""
    if logits.size == 0:
        raise ContractError("bce_with_logits: empty input")
    y = np.asarray(targets, dtype=np.float64).reshape(logits.shape)
    z = logits.data
    data = np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))

    def backward_fn(g):
        _accum(logits, g * (sigmoid_data(z) - y) / z.size)

    return _make(data, (logits,), backward_fn, "bce_with_logits")


# backward + gradient checking ------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf tensor that requires a gradient and is
    reachable from a scalar loss, and on the loss itself. An interior node's
    gradient is dropped once routed to its parents, so only the gradients
    still waiting to be routed are alive at any point of the walk."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            if node is not loss:
                node.grad = None


@dataclass
class CheckReport:
    """Per-parameter max relative error between analytic and numeric grads."""

    tol: float
    per_param: dict = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def lines(self):
        for name, err in self.per_param.items():
            status = "ok" if err <= self.tol else "FAIL"
            yield f"{name:<28s} max_rel_err={err:.3e} {status}"


def grad_check(f, params: dict, step: float = 1e-5, tol: float = 1e-4,
               max_elems: int = 0) -> CheckReport:
    """Compare analytic gradients of scalar f() against central differences.

    params is a dict name -> Tensor; f must be a deterministic closure over
    them. Relative error per element is
    |a - n| / max(|a|, |n|, 1e-8). max_elems > 0 caps the number of elements
    probed per parameter (a fast smoke mode); 0 checks every element.
    """
    if step <= 0:
        raise ContractError("grad_check: step must be positive")

    with no_grad():
        y0 = f().data.copy()
        y1 = f().data.copy()
    if y0.shape != y1.shape or not np.array_equal(y0, y1):
        raise ContractError("grad_check: f produced different values on two evaluations")

    for p in params.values():
        p.grad = None
    loss = f()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    report = CheckReport(tol=tol)
    with no_grad():
        for name, p in params.items():
            a = analytic[name]
            worst = 0.0
            flat = p.data.reshape(-1)
            aflat = a.reshape(-1)
            n_check = flat.size if max_elems <= 0 else min(flat.size, max_elems)
            for i in range(n_check):
                orig = flat[i]
                flat[i] = orig + step
                fp = f().item()
                flat[i] = orig - step
                fm = f().item()
                flat[i] = orig
                n = (fp - fm) / (2.0 * step)
                if np.isfinite(aflat[i]) and np.isfinite(n):
                    rel = abs(aflat[i] - n) / max(abs(aflat[i]), abs(n), 1e-8)
                else:
                    # A NaN would compare False against tol and slip through.
                    rel = np.inf
                if rel > worst:
                    worst = rel
            report.per_param[name] = worst
    return report
