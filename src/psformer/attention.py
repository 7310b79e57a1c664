"""Shared transformer block: QKV projection, scaled dot-product attention,
residual feed-forward output.

Single-head, no positional encoding, no layer normalization. Positions enter
upstream as relative coordinates appended to grouped features; normalization
is the separate feature-norm stage. Works on (S, d_in) sets or batched
(..., S, d_in) stacks of independent sets.

Attention is one autodiff node computed in blocks of query rows, each block
over the whole key axis, so neither its forward nor its backward holds an
(S, S) array: memory is O(S * block), not O(S^2). Its closure saves q, k and
v and nothing else; the backward recomputes each block's softmax instead of
keeping it (FlashAttention's exact-math tiling, Dao et al. 2022, arXiv
2205.14135). A call reuses its block buffers across blocks, one (rows, S)
buffer in the forward and three in the backward, and runs the unfused graph's
elementwise ops in their order with `out=`, so its bits are the unfused ops'
bits. A large block runs as two halves on the machine's two cores (_pool),
each in its own rows of the same buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .autodiff import ShapeError, Tensor, _accum, _make, _product, _save, relu

# Most logits one block of query rows may hold, summed over a batch of sets:
# 2^21 float64 values, 16 MB per block buffer.
BLOCK_LOGITS = 1 << 21


@dataclass
class TransParams:
    w_q: Tensor   # (d, d)
    w_k: Tensor   # (d, d)
    w_v: Tensor   # (d, d)
    ffn_w1: Tensor  # (d, 2d)
    ffn_b1: Tensor  # (2d,)
    ffn_w2: Tensor  # (2d, d)
    ffn_b2: Tensor  # (d,)

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.wq": self.w_q, f"{prefix}.wk": self.w_k, f"{prefix}.wv": self.w_v,
            f"{prefix}.ffn_w1": self.ffn_w1, f"{prefix}.ffn_b1": self.ffn_b1,
            f"{prefix}.ffn_w2": self.ffn_w2, f"{prefix}.ffn_b2": self.ffn_b2,
        }


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)


def init_trans(rng: np.random.Generator, d: int) -> TransParams:
    """Fresh parameters of a block on width-d features; queries, keys and
    values are d wide too.

    The hidden bias starts slightly off zero: normalized group features place
    each centroid's own entry exactly at the beta vector, and with beta and
    ffn_b1 both zero the hidden ReLU would sit exactly on its kink, where
    finite-difference gradient checks are ill-defined.
    """
    return TransParams(
        w_q=glorot(rng, d, d),
        w_k=glorot(rng, d, d),
        w_v=glorot(rng, d, d),
        ffn_w1=glorot(rng, d, 2 * d),
        ffn_b1=Tensor(rng.uniform(-0.1, 0.1, size=2 * d), requires_grad=True),
        ffn_w2=glorot(rng, 2 * d, d),
        ffn_b2=Tensor(np.zeros(d), requires_grad=True),
    )


def project_qkv(f: Tensor, params: TransParams):
    return f @ params.w_q, f @ params.w_k, f @ params.w_v


def _row_blocks(q_shape: tuple, s: int) -> list:
    """Slices of query rows whose logits, over every set of the batch, fit
    in BLOCK_LOGITS (one row at least)."""
    sets = math.prod(q_shape[:-2])
    rows = max(1, BLOCK_LOGITS // max(1, sets * s))
    n = q_shape[-2]
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def attend(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q Kᵀ / sqrt(d)) V, softmax over keys. Every element of a set
    attends over all S elements of that set.

    q is (..., S_q, d), k is (..., S, d) and v is (..., S, d_v) with equal
    leading dims. Each block of query rows repeats the unblocked op sequence
    on its rows, so the output is exact at any block size; it is also
    bit-identical wherever BLAS gives a row slice of a product the same bits
    as the whole product, as it does for 512-row blocks of a 4096-point set.
    The k and v gradients sum over blocks, so the block size changes them
    only through summation order.

    Each call allocates its block-sized arrays once and reuses them for
    every block. The forward holds one (..., rows, S) logits buffer; the
    backward holds three: the probabilities p, their gradient gp, and a
    scratch for gp * p, whose row sums are reduced from it. Each side adds
    one (..., rows, 1) buffer for the row reductions. Every op writes in
    place (`out=`) but runs in the unfused graph's order on the same
    operands, which is why its bits are the unfused ops' bits.

    A block with enough work is split in two, one half per thread (_pool),
    without new buffers: its query rows, or the sets of a stack. After both
    halves of a backward block are done, the k and v products of the block
    are split along keys, widths or sets, and summed into the gradients on
    the calling thread in block order. A half runs the same ops on fewer
    rows or sets, so the split moves no bit.
    """
    if (q.ndim < 2 or k.ndim != q.ndim or q.shape[:-2] != k.shape[:-2]
            or k.shape[:-1] != v.shape[:-1] or q.shape[-1] != k.shape[-1]):
        raise ShapeError(f"attend shapes incompatible: q {q.shape}, k {k.shape}, v {v.shape}")
    scale = np.float64(1.0 / math.sqrt(q.shape[-1]))
    qn, kn, vn = q._node, k._node, v._node
    qv, kv, vv = _save(q), _save(k), _save(v)
    kt, vt = np.swapaxes(kv, -1, -2), np.swapaxes(vv, -1, -2)
    blocks = _row_blocks(q.shape, k.shape[-2])
    rows = blocks[0].stop if blocks else 0
    block_shape = q.shape[:-2] + (rows, k.shape[-2])
    row_shape = q.shape[:-2] + (rows, 1)
    batched = q.ndim > 2
    sets = math.prod(q.shape[:-2])
    width = min(q.shape[-1], v.shape[-1])

    def halves(blk):
        """The parts of block blk that the two threads take (_pool): its
        query rows, or the sets of a stack."""
        n = blk.stop - blk.start
        return _pool.parts(q.shape[0] if batched else n, sets * n * k.shape[-2] * width)

    def keyed(a, part):
        """Part of k, v or a transpose of them: every query row of a set
        reads its set's keys and values whole."""
        return a[part] if batched else a

    def probs(q_rows, kt_part, x, r):
        """Fill x with the softmax of the scaled logits of q_rows, in the
        unfused softmax's op order; r holds the row max, then the row sum."""
        np.matmul(q_rows, kt_part, out=x)
        np.multiply(x, scale, out=x)
        np.max(x, axis=-1, keepdims=True, out=r)
        np.subtract(x, r, out=x)
        np.exp(x, out=x)
        np.sum(x, axis=-1, keepdims=True, out=r)
        np.divide(x, r, out=x)

    out = np.empty(q.shape[:-1] + v.shape[-1:])
    x_buf, r_buf = np.empty(block_shape), np.empty(row_shape)
    for blk in blocks:
        head = np.s_[..., :blk.stop - blk.start, :]   # the last block may be partial
        x, r, q_blk, o = x_buf[head], r_buf[head], qv[..., blk, :], out[..., blk, :]

        def forward_part(part):
            probs(q_blk[part], keyed(kt, part), x[part], r[part])
            np.matmul(x[part], keyed(vv, part), out=o[part])

        _pool.run(forward_part, halves(blk))

    def backward_fn(g):
        gq = np.empty_like(qv) if qn is not None else None
        p_buf, gp_buf, t_buf = (np.empty(block_shape) for _ in range(3))
        r_buf = np.empty(row_shape)
        for blk in blocks:
            head = np.s_[..., :blk.stop - blk.start, :]
            p, gp, t, dot = p_buf[head], gp_buf[head], t_buf[head], r_buf[head]
            q_blk, g_blk = qv[..., blk, :], g[..., blk, :]

            def backward_part(part):
                pp, gpp, tp, dotp = p[part], gp[part], t[part], dot[part]
                probs(q_blk[part], keyed(kt, part), pp, dotp)
                np.matmul(g_blk[part], keyed(vt, part), out=gpp)
                np.multiply(gpp, pp, out=tp)
                np.sum(tp, axis=-1, keepdims=True, out=dotp)
                # gl = (gp - dot) * p * scale, built in gp
                np.subtract(gpp, dotp, out=gpp)
                np.multiply(gpp, pp, out=gpp)
                np.multiply(gpp, scale, out=gpp)
                if gq is not None:
                    np.matmul(gpp, keyed(kv, part), out=gq[..., blk, :][part])

            _pool.run(backward_part, halves(blk))
            if vn is not None:
                _accum(vn, _product(np.swapaxes(p, -1, -2), g_blk))
            if kn is not None:
                _accum(kn, np.swapaxes(_product(np.swapaxes(q_blk, -1, -2), gp), -1, -2))
        if gq is not None:
            _accum(qn, gq)

    return _make(out, (q, k, v), backward_fn, "attend")


def ffn(y: Tensor, params: TransParams) -> Tensor:
    h = relu(y @ params.ffn_w1 + params.ffn_b1)
    return h @ params.ffn_w2 + params.ffn_b2


def trans_block(f: Tensor, params: TransParams) -> Tensor:
    """F + FFN(attend(QKV(F))). The residual passes F through exactly when
    the FFN output is zero."""
    q, k, v = project_qkv(f, params)
    return f + ffn(attend(q, k, v), params)
