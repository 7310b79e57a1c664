"""Attention block: extended-precision value oracle, symmetry, gradients."""

import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from psformer import _pool, attention
from psformer.attention import (attend, ffn, glorot, init_trans, project_qkv,
                                trans_block)
from psformer.autodiff import ShapeError, Tensor, backward, grad_check
from unfused_ops import bmm, softmax, swap_last, tmean, tsum

mp.mp.dps = 50


def _attend_reference(q, k, v):
    """softmax(q k^T / sqrt(d)) v at 50 decimal digits."""
    s, d = q.shape
    scale = 1 / mp.sqrt(d)
    out = np.zeros((s, v.shape[1]))
    for i in range(s):
        logits = [scale * sum(mp.mpf(q[i, t]) * mp.mpf(k[j, t]) for t in range(d))
                  for j in range(s)]
        m = max(logits)
        es = [mp.e ** (z - m) for z in logits]
        tot = sum(es)
        for c in range(v.shape[1]):
            acc = mp.mpf(0)
            for j in range(s):
                acc += (es[j] / tot) * mp.mpf(v[j, c])
            out[i, c] = float(acc)
    return out


def test_attend_matches_extended_precision():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        dv = int(rng.integers(1, 5))
        q = rng.standard_normal((s, d)) * rng.uniform(0.2, 3)
        k = rng.standard_normal((s, d)) * rng.uniform(0.2, 3)
        v = rng.standard_normal((s, dv))
        got = attend(Tensor(q), Tensor(k), Tensor(v)).data
        want = _attend_reference(q, k, v)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        q = Tensor(rng.standard_normal((s, d)))
        k = Tensor(rng.standard_normal((s, d)))
        logits = bmm(q, swap_last(k)) * Tensor(1.0 / math.sqrt(d))
        rows = softmax(logits, axis=-1).data.sum(axis=-1)
        assert np.all(np.abs(rows - 1.0) <= 1e-12)


def test_attend_batched_matches_per_group():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((4, 3, 2))
    k = rng.standard_normal((4, 3, 2))
    v = rng.standard_normal((4, 3, 5))
    batched = attend(Tensor(q), Tensor(k), Tensor(v)).data
    for g in range(4):
        single = attend(Tensor(q[g]), Tensor(k[g]), Tensor(v[g])).data
        assert np.allclose(batched[g], single, atol=1e-15, rtol=0)


def test_trans_block_permutation_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s, d_in = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        params = init_trans(rng, d_in)
        f = rng.standard_normal((s, d_in))
        perm = rng.permutation(s)
        out = trans_block(Tensor(f), params).data
        out_perm = trans_block(Tensor(f[perm]), params).data
        assert np.max(np.abs(out[perm] - out_perm)) <= 1e-10


def test_zero_queries_average_values():
    # with W_q = 0 all scores vanish, so attention is the mean over the set
    rng = np.random.default_rng(4)
    params = init_trans(rng, 4)
    params.w_q.data[:] = 0.0
    f = rng.standard_normal((6, 4))
    q, k, v = project_qkv(Tensor(f), params)
    out = attend(q, k, v).data
    assert np.allclose(out, np.tile(v.data.mean(axis=0), (6, 1)), atol=1e-12)


def test_singleton_set_attends_to_itself():
    rng = np.random.default_rng(5)
    params = init_trans(rng, 3)
    f = rng.standard_normal((1, 3))
    q, k, v = project_qkv(Tensor(f), params)
    assert np.allclose(attend(q, k, v).data, v.data, atol=1e-14, rtol=0)
    # residual structure: output = f + ffn(v)
    out = trans_block(Tensor(f), params).data
    want = f + ffn(v, params).data
    assert np.allclose(out, want, atol=1e-14, rtol=0)


def test_residual_passthrough_with_zero_ffn():
    rng = np.random.default_rng(6)
    params = init_trans(rng, 5)
    params.ffn_w2.data[:] = 0.0
    params.ffn_b2.data[:] = 0.0
    f = rng.standard_normal((7, 5))
    assert np.array_equal(trans_block(Tensor(f), params).data, f)


def test_project_qkv_shapes_and_errors():
    rng = np.random.default_rng(7)
    params = init_trans(rng, 6)
    q, k, v = project_qkv(Tensor(np.zeros((4, 6))), params)
    assert q.shape == k.shape == v.shape == (4, 6)
    with pytest.raises(ShapeError):
        project_qkv(Tensor(np.zeros((4, 5))), params)


def test_trans_params_named_covers_all_weights():
    params = init_trans(np.random.default_rng(8), 3)
    named = params.named("blk")
    assert set(named) == {"blk.wq", "blk.wk", "blk.wv", "blk.ffn_w1",
                          "blk.ffn_b1", "blk.ffn_w2", "blk.ffn_b2"}
    assert all(t.requires_grad for t in named.values())


def test_glorot_bounds():
    w = glorot(np.random.default_rng(9), 30, 50).data
    limit = math.sqrt(6.0 / 80)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.1 * limit


def test_trans_block_grad_check():
    rng = np.random.default_rng(10)
    params = init_trans(rng, 3)
    f = rng.standard_normal((4, 3))

    def objective():
        out = trans_block(Tensor(f), params)
        return tmean(out * out)

    report = grad_check(objective, params.named("t"))
    assert report.passed, dict(report.per_param)


def test_trans_block_batched_grad_check():
    rng = np.random.default_rng(11)
    params = init_trans(rng, 2)
    f = rng.standard_normal((3, 4, 2))   # (groups, members, d)

    def objective():
        out = trans_block(Tensor(f), params)
        return tmean(out * out)

    report = grad_check(objective, params.named("t"))
    assert report.passed, dict(report.per_param)


# ------------------------------------------------------- blocked attention

def _attend_with_grads(fn, q, k, v, g):
    ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    out = fn(*ts)
    backward(tsum(out * Tensor(g)))
    return out.data, [t.grad for t in ts]


def _composed_attend(q, k, v):
    """The unfused op graph attend replaces, as the reference."""
    logits = bmm(q, swap_last(k)) * Tensor(1.0 / math.sqrt(q.shape[-1]))
    return bmm(softmax(logits, axis=-1), v)


@pytest.mark.parametrize("shape", [(40, 6), (5, 7, 3)])
def test_one_block_attend_bit_identical_to_composed_ops(shape):
    rng = np.random.default_rng(12)
    q, k, v, g = (rng.standard_normal(shape) for _ in range(4))
    assert len(attention._row_blocks(shape, shape[-2])) == 1
    out, grads = _attend_with_grads(attend, q, k, v, g)
    ref_out, ref_grads = _attend_with_grads(_composed_attend, q, k, v, g)
    assert np.array_equal(out, ref_out)
    for got, want in zip(grads, ref_grads):
        assert np.array_equal(got, want)


# (4096, 64) at 512 rows is UT5 of the default preset under the real
# BLOCK_LOGITS: the blocks whose bits set the default-preset digests.
@pytest.mark.parametrize("shape, rows", [((256, 16), 64), ((16, 24, 8), 8),
                                         ((4096, 64), 512)])
def test_blocked_attend_matches_one_block(monkeypatch, shape, rows):
    # At these shapes BLAS gives a row slice of a product the same bits as
    # the whole product, so only the k and v gradient sums may move.
    rng = np.random.default_rng(13)
    q, k, v, g = (rng.standard_normal(shape) for _ in range(4))
    s = shape[-2]
    monkeypatch.setattr(attention, "BLOCK_LOGITS", math.prod(shape[:-2]) * s * s)
    assert len(attention._row_blocks(shape, s)) == 1
    out1, grads1 = _attend_with_grads(attend, q, k, v, g)

    monkeypatch.setattr(attention, "BLOCK_LOGITS", rows * math.prod(shape[:-2]) * s)
    assert len(attention._row_blocks(shape, s)) == s // rows > 1
    out, grads = _attend_with_grads(attend, q, k, v, g)
    assert np.array_equal(out, out1)
    for got, want in zip(grads, grads1):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(6, 3), (3, 5, 2)])
def test_attend_grad_check_across_block_boundary(monkeypatch, shape):
    # two query rows per block: the last block is partial
    monkeypatch.setattr(attention, "BLOCK_LOGITS", 2 * math.prod(shape[:-2]) * shape[-2])
    assert len(attention._row_blocks(shape, shape[-2])) == 3
    rng = np.random.default_rng(14)
    q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(3))
    w = Tensor(rng.standard_normal(shape))
    report = grad_check(lambda: tsum(attend(q, k, v) * w), {"q": q, "k": k, "v": v})
    assert report.passed, dict(report.per_param)


def _held_arrays(node):
    """Every array a graph node keeps alive: its data and gradient, and each
    array its closure captured, through nested closures, containers and the
    bases of views."""
    found, fns = [node.data, node.grad], [node._backward]
    while fns:
        fn = fns.pop()
        for cell in getattr(fn, "__closure__", None) or ():
            items = [cell.cell_contents]
            while items:
                x = items.pop()
                if isinstance(x, (list, tuple)):
                    items.extend(x)
                elif isinstance(x, np.ndarray):
                    found.append(x)
                elif callable(x):
                    fns.append(x)
    arrays = []
    for a in found:
        while a is not None:
            arrays.append(a)
            a = a.base
    return arrays


def _graph_nodes(out):
    seen, stack, nodes = {id(out._node)}, [out._node], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def test_trans_block_graph_holds_no_square_array():
    # node values, gradients and the arrays closures saved, views included
    s = 2048
    rng = np.random.default_rng(15)
    out = trans_block(Tensor(rng.standard_normal((s, 4))), init_trans(rng, 4))
    ops = set()
    for node in _graph_nodes(out):
        ops.add(node._op)
        held = _held_arrays(node)
        assert all(a.size < s * s for a in held), (node._op, [a.shape for a in held])
        if node._op == "attend":     # the walk sees what attend saved
            assert sum(a.shape == (s, 4) for a in held) >= 3
    assert "attend" in ops


def test_trans_block_graph_holds_only_what_backward_reads():
    # (2048, 16) in one block: backward reads q, k and v (attend), the
    # attention output y (y @ w1) and the hidden h (relu and h @ w2), five
    # arrays of 1.5 MiB in all. The caller holds the input and the output.
    # The slack covers the nodes and closures. Measured 1.51 MiB; the graph
    # that kept every intermediate on its Tensors measured 3.01 MiB.
    s, d = 2048, 16
    rng = np.random.default_rng(22)
    f = Tensor(rng.standard_normal((s, d)))
    params = init_trans(rng, d)
    read = 4 * s * d * 8 + s * 2 * d * 8
    slack = 64 << 10
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = trans_block(f, params)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held <= read + slack, (held, read)
    saved = {id(n.data): n.data.nbytes for n in _graph_nodes(out)}
    assert sum(saved.values()) == read


def test_attend_rejects_mismatched_shapes():
    z = lambda *shape: Tensor(np.zeros(shape))
    with pytest.raises(ShapeError):
        attend(z(4, 3), z(4, 2), z(4, 5))     # q and k widths differ
    with pytest.raises(ShapeError):
        attend(z(4, 3), z(4, 3), z(5, 2))     # k and v set sizes differ
    with pytest.raises(ShapeError):
        attend(z(2, 4, 3), z(3, 4, 3), z(3, 4, 3))   # batch dims differ


# ------------------------------------------------- reused block buffers

def _attend_node(shape, seed):
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.standard_normal(shape), requires_grad=True) for _ in range(3))
    return q, k, v, rng.standard_normal(shape)


def test_attend_memory_is_one_block_forward_three_backward(monkeypatch):
    # 1024 keys in 256-row blocks: four blocks of 2 MiB each, each split
    # in two halves that share its buffers; q, k, v and the output are 64
    # KiB each. The slack covers numpy's 64 KiB ufunc buffer (a broadcast
    # subtract or divide with out=), a second one for the worker thread's
    # half, and Python objects. Measured at 128-row blocks, before blocks
    # were split: forward 1.13 MiB, backward 3.26 MiB; the allocating body
    # before block buffers were reused measured 3.13 and 6.25 MiB. Split,
    # at 256-row blocks: forward 2.13-2.14 MiB, backward 6.32 MiB.
    monkeypatch.setattr(_pool, "WORKERS", 1)
    shape, rows = (1024, 8), 256
    monkeypatch.setattr(attention, "BLOCK_LOGITS", rows * shape[0])
    assert len(attention._row_blocks(shape, shape[0])) == 4
    assert len(_pool.parts(rows, rows * shape[0] * shape[1])) == 2
    q, k, v, g = _attend_node(shape, 16)
    block, arr, slack = rows * shape[0] * 8, q.data.nbytes, (128 + 64) << 10

    tracemalloc.start()
    try:
        out = attend(q, k, v)
        fwd = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out._node._backward(g)
        bwd = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert fwd <= block + arr + slack, fwd
    # backward: three blocks and the three gradients, plus the q gradient's
    # buffer and one per-block k or v product before it is summed
    assert bwd <= 3 * block + 5 * arr + slack, bwd
    assert all(t.grad is not None for t in (q, k, v))


def test_attend_leaves_inputs_and_earlier_outputs_alone(monkeypatch):
    shape = (2, 40, 6)
    monkeypatch.setattr(attention, "BLOCK_LOGITS", 16 * math.prod(shape[:-1]))
    assert len(attention._row_blocks(shape, shape[-2])) == 3
    q, k, v, g = _attend_node(shape, 17)
    before = [t.data.copy() for t in (q, k, v)]
    out = attend(q, k, v)
    first = out.data.copy()
    out._node._backward(g)
    for t, data in zip((q, k, v), before):
        assert np.array_equal(t.data, data)
        assert not np.shares_memory(out.data, t.data)
    q2, k2, v2, _ = _attend_node(shape, 18)
    out2 = attend(q2, k2, v2)
    assert not np.shares_memory(out.data, out2.data)
    assert np.array_equal(out.data, first)
    assert not np.array_equal(out2.data, first)


def test_attend_threads_get_sequential_bits(monkeypatch):
    # every call owns its buffers, so concurrent calls cannot see each
    # other's blocks. Each block is above the split floor, so three callers
    # share the one worker thread: more threads than a two-core machine
    # has cores, and no caller may wait on another's half.
    monkeypatch.setattr(_pool, "WORKERS", 1)
    monkeypatch.setattr(attention, "BLOCK_LOGITS", 1 << 18)
    for shape, n_split in (((4, 512, 8), 4), ((1024, 32), 256)):
        blocks = attention._row_blocks(shape, shape[-2])
        rows = blocks[0].stop
        assert len(blocks) == 4
        assert len(_pool.parts(n_split, math.prod(shape[:-2]) * rows * shape[-2] * shape[-1])) == 2
    cases = [_attend_node(shape, seed)
             for shape, seed in (((4, 512, 8), 19), ((1024, 32), 20), ((1024, 32), 23))]

    def run(q, k, v, g):
        ts = [Tensor(t.data, requires_grad=True) for t in (q, k, v)]
        out = attend(*ts)
        out._node._backward(g)
        return [out.data] + [t.grad for t in ts]

    want = [run(*c) for c in cases]
    got = [[] for _ in cases]

    def worker(i):
        for _ in range(20):
            got[i].append(run(*cases[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for runs, ref in zip(got, want):
        assert len(runs) == 20
        for arrays in runs:
            assert all(np.array_equal(a, b) for a, b in zip(arrays, ref))


def test_partial_last_block_under_batch_dims_matches_one_block(monkeypatch):
    # 50 rows in 16-row blocks leave a 2-row last block; BLAS gives these
    # row slices the same bits as the whole product, so the output and the
    # q gradient are bit-identical.
    shape = (3, 50, 8)
    rng = np.random.default_rng(21)
    q, k, v, g = (rng.standard_normal(shape) for _ in range(4))
    out1, grads1 = _attend_with_grads(attend, q, k, v, g)
    monkeypatch.setattr(attention, "BLOCK_LOGITS", 16 * math.prod(shape[:-1]))
    assert [b.stop - b.start for b in attention._row_blocks(shape, 50)] == [16, 16, 16, 2]
    out, grads = _attend_with_grads(attend, q, k, v, g)
    assert np.array_equal(out, out1)
    assert np.array_equal(grads[0], grads1[0])
