"""Dense float64 tensors with reverse-mode automatic differentiation.

The ops are those the model builds, in the forms it passes them: matmul
by a weight matrix, concat on the last axis, no whole-tensor reductions.
Forms that only tests build are in tests/unfused_ops.py.

A Tensor is a value; a tracked Tensor also points at its graph Node. A node
holds what backward needs and nothing else: the gradient, its parents'
nodes, the closure that routes its gradient to them, the op's name and the
value's shape. The value stays on the caller's Tensor, so an intermediate
the caller drops is freed at once unless a backward reads it.

Each closure captures, at forward time, exactly the arrays its backward
reads (matmul one operand's value only when the other needs a gradient,
mul its operands, attend q, k and v, FN its centroid difference, relu its
own output, bce its logits) and the nodes of its operands, never their
Tensors.
An interior node whose value some closure saved keeps it as its `data`
until the node is routed; every other node's `data` is an empty array. So
a walk over the nodes summing `data.nbytes` counts each saved intermediate
once, while parameters, index arrays and constants that closures hold too
are not counted.

backward() orders the nodes reachable from the loss by an iterative
depth-first post-order walk and runs each closure once, in reverse of that
order, so a node's gradient is complete before it is routed to its parents.
Once routed, an interior node drops its closure, its saved value and its
gradient; leaf tensors (parameters) and the loss keep their gradients. A
second backward through a routed graph raises ContractError. Tensors are
confined to one thread during a forward/backward pass; tensors built under
no_grad(), which holds in the calling thread only, get no node.

Gradients are values: no code writes an array it was handed, so none copies
one for protection. A closure may pass its incoming gradient, or a view of
it, straight on (add, sub's left operand, reshape, concat), and one array
may then be the gradient of several nodes; a later gradient is summed out
of place. A `.grad` is read, never written in place.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field

import numpy as np

from . import _pool


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A caller-side precondition was violated."""


_grad_enabled = contextvars.ContextVar("psformer_grad_enabled", default=True)

# The `data` of a node whose value no backward reads.
_UNSAVED = np.empty(0)
_UNSAVED.flags.writeable = False


class no_grad:
    """Context manager that disables graph construction inside its scope, in
    the calling thread only."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


class Node:
    """A tracked tensor's place in the graph. A leaf node (a parameter) has
    no parents and no closure; an interior node's closure routes its
    gradient to its parents and is dropped once it has run."""

    __slots__ = ("data", "grad", "shape", "_parents", "_backward", "_op")

    def __init__(self, shape: tuple, parents: tuple = (), backward_fn=None,
                 op: str = "leaf"):
        self.data = _UNSAVED
        self.grad = None
        self.shape = shape
        self._parents = parents
        self._backward = backward_fn
        self._op = op


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = Node(self.data.shape) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        """The gradient backward() left here, or None. Read it, never write
        into it: the array may also be another node's gradient or a
        read-only view."""
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g) -> None:
        if self._node is None:
            raise ContractError("grad: this tensor does not require a gradient")
        self._node.grad = g

    @property
    def _parents(self) -> tuple:
        """The nodes this tensor's node routes its gradient to."""
        return () if self._node is None else self._node._parents

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
        op = "leaf" if self._node is None else self._node._op
        return f"Tensor(shape={self.shape}, op={op}, requires_grad={self.requires_grad})"

    # arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents, backward_fn, op: str,
          reads_output: bool = False) -> Tensor:
    """The op's output, with a node when gradients are on and an operand is
    tracked. reads_output: the closure reads `data`, so the node keeps it."""
    out = Tensor(data)
    if _grad_enabled.get():
        nodes = tuple(p._node for p in parents if p._node is not None)
        if nodes:
            node = out._node = Node(out.data.shape, nodes, backward_fn, op)
            if reads_output:
                node.data = out.data
    return out


def _save(t: Tensor) -> np.ndarray:
    """t's value, for a closure to capture. An interior node keeps it as its
    `data` too, so a walk over the graph counts it once."""
    node = t._node
    if node is not None and node._parents and _grad_enabled.get():
        node.data = t.data
    return t.data


def _accum(node: Node | None, g: np.ndarray) -> None:
    """Add g to node.grad: the one place a gradient enters a node. g of an
    op's broadcast output shape is summed down to the node's shape first.
    The first gradient is kept as given and later ones are summed out of
    place, so neither g nor a stored gradient is ever written. np.asarray
    only wraps the numpy scalar that 0-d arithmetic returns. An untracked
    operand has no node and takes nothing."""
    if node is None:
        return
    if g.shape != node.shape:
        g = _unbroadcast(g, node.shape)
    node.grad = np.asarray(g if node.grad is None else node.grad + g)


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
    an, bn = a._node, b._node

    def backward_fn(g):
        _accum(an, g)
        _accum(bn, g)

    return _make(data, (a, b), backward_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    an, bn = a._node, b._node

    def backward_fn(g):
        _accum(an, g)
        if bn is not None:
            _accum(bn, -g)

    return _make(data, (a, b), backward_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    an, bn = a._node, b._node
    av = _save(a) if bn is not None else None
    bv = _save(b) if an is not None else None

    def backward_fn(g):
        if an is not None:
            _accum(an, g * bv)
        if bn is not None:
            _accum(bn, g * av)

    return _make(data, (a, b), backward_fn, "mul")


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    an = a._node

    def backward_fn(g):
        # out > 0 exactly where in > 0: np.maximum keeps a NaN, which fails
        # both tests, and maps -0.0 and every negative to a zero.
        _accum(an, g * (data > 0.0))

    return _make(data, (a,), backward_fn, "relu", reads_output=True)


def sigmoid_data(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of a plain array, in the form that never overflows."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


# shape ops -------------------------------------------------------------


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, for a 2-D b or stacks a and b of equal leading shape. A large
    product is two halves along a's leading axis, one per thread (_pool).
    Each half is the same BLAS calls on fewer rows of a 2-D a or fewer sets
    of a stack, so its bits are the whole product's."""
    out = np.empty(a.shape[:-1] + b.shape[-1:])

    def half(rows):
        np.matmul(a[rows], b if b.ndim == 2 else b[rows], out=out[rows])

    _pool.run(half, _pool.parts(a.shape[0], out.size * a.shape[-1]))
    return out


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """a @ w for an (..., n) tensor a and an (n, m) weight matrix w; any
    other w raises ShapeError. w's gradient is one flat product over every
    row of the stack."""
    if a.ndim < 2 or w.ndim != 2 or a.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {w.shape}")
    data = _product(a.data, w.data)
    an, wn = a._node, w._node
    av = _save(a) if wn is not None else None
    wv = _save(w) if an is not None else None

    def backward_fn(g):
        if an is not None:
            _accum(an, _product(g, wv.T))
        if wn is not None:
            _accum(wn, _product(av.reshape(-1, av.shape[-1]).T,
                                g.reshape(-1, g.shape[-1])))

    return _make(data, (a, w), backward_fn, "matmul")


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)
    an = a._node

    def backward_fn(g):
        _accum(an, g.reshape(an.shape))

    return _make(data, (a,), backward_fn, "reshape")


def concat(tensors: list) -> Tensor:
    """Join tensors on the last axis; every other axis must agree."""
    shapes = [t.shape for t in tensors]
    if any(s[:-1] != shapes[0][:-1] for s in shapes):
        raise ShapeError(f"concat shapes {shapes} differ off the last axis")
    data = np.concatenate([t.data for t in tensors], axis=-1)
    sizes = [s[-1] for s in shapes]
    nodes = [t._node for t in tensors]

    def backward_fn(g):
        offsets = np.cumsum([0] + sizes)
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            _accum(node, g[..., lo:hi])

    return _make(data, tensors, backward_fn, "concat")


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of `a` (axis 0) by an integer index array of any shape."""
    idx = np.asarray(idx, dtype=np.int64)
    data = a.data[idx]
    an = a._node

    def backward_fn(g):
        ga = np.zeros(an.shape)
        np.add.at(ga, idx.reshape(-1), g.reshape((idx.size,) + an.shape[1:]))
        _accum(an, ga)

    return _make(data, (a,), backward_fn, "gather_rows")


# reductions ------------------------------------------------------------


def group_max_pool(a: Tensor, valid_counts) -> Tensor:
    """Channelwise max over axis 1 of an (M, K, d) tensor, restricted per row
    to its first valid_counts[i] members. Padding entries never win."""
    m, k, d = a.shape
    counts = np.asarray(valid_counts, dtype=np.int64)
    mask = np.arange(k)[None, :] < counts[:, None]
    masked = np.where(mask[:, :, None], a.data, -np.inf)
    data = masked.max(axis=1)
    winners = masked.argmax(axis=1)  # first max among valid members
    an = a._node

    def backward_fn(g):
        ga = np.zeros(an.shape)
        rows = np.arange(m)[:, None]
        cols = np.arange(d)[None, :]
        np.add.at(ga, (rows, winners, cols), g)
        _accum(an, ga)

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
    sn = src._node

    def backward_fn(g):
        gs = np.zeros(sn.shape)
        contrib = w[:, :, None] * g[:, None, :]
        np.add.at(gs, idx.reshape(-1), contrib.reshape(-1, sn.shape[1]))
        _accum(sn, gs)

    return _make(data, (src,), backward_fn, "interp_apply")


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy from logits, in the stable log-sum-exp form."""
    if logits.size == 0:
        raise ContractError("bce_with_logits: empty input")
    y = np.asarray(targets, dtype=np.float64).reshape(logits.shape)
    z = _save(logits)
    data = np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))
    ln = logits._node

    def backward_fn(g):
        _accum(ln, g * (sigmoid_data(z) - y) / z.size)

    return _make(data, (logits,), backward_fn, "bce_with_logits")


# backward + gradient checking ------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf tensor that requires a gradient and is
    reachable from a scalar loss, and on the loss itself. An untracked loss
    routes nothing. Each interior node is freed once routed to its parents:
    its closure, with the arrays it saved, its kept value and, but for the
    loss, its gradient. So only what the unrouted nodes read is alive at any
    point of the walk, and a second backward through the graph raises."""
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        return
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._backward is None and node._parents:
            raise ContractError(
                f"backward: the {node._op} node was already routed and freed by "
                "an earlier backward; run the forward again")
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node.data = _UNSAVED
            if node is not root:
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
    probed per parameter (a fast smoke mode); 0 checks every element. Each
    parameter is probed on a private copy of its array, and its own array is
    put back afterwards, so no array the caller passed is written, not even
    when f raises mid-probe.
    """
    if step <= 0:
        raise ContractError("grad_check: step must be positive")

    with no_grad():
        y0 = f().data
        y1 = f().data
    if y0.shape != y1.shape or not np.array_equal(y0, y1):
        raise ContractError("grad_check: f produced different values on two evaluations")

    for p in params.values():
        p.grad = None
    loss = f()
    backward(loss)
    analytic = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    report = CheckReport(tol=tol)
    with no_grad():
        for name, p in params.items():
            aflat = analytic[name].reshape(-1)
            worst = 0.0
            given = p.data
            p.data = given.copy()
            try:
                flat = p.data.reshape(-1)
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
            finally:
                p.data = given
            report.per_param[name] = worst
    return report
