"""Tensor op forward oracles and backward checks.

Forward values are compared against triple-loop / extended-precision
references; backward passes are spot-checked against closed forms and the
finite-difference checker.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from psformer.autodiff import (CheckReport, ContractError, ShapeError, Tensor,
                               _accum, _make, backward, bce_with_logits,
                               concat, gather_rows, grad_check, group_max_pool,
                               interp_apply, matmul, no_grad, relu,
                               sigmoid_data)
from unfused_ops import bmm, div, softmax_data, sqrt, swap_last, tmean, tsum


def _matmul_loops(a, b):
    """Reference matmul: explicit index loops, no BLAS."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 2 and b.ndim == 2:
        n, k = a.shape
        k2, m = b.shape
        out = np.zeros((n, m))
        for i in range(n):
            for j in range(m):
                acc = 0.0
                for t in range(k):
                    acc += a[i, t] * b[t, j]
                out[i, j] = acc
        return out
    # one batch axis
    out = np.zeros(a.shape[:-1] + (b.shape[-1],))
    for i in range(a.shape[0]):
        out[i] = _matmul_loops(a[i], b[i] if b.ndim == 3 else b)
    return out


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, k, m = rng.integers(1, 6, size=3)
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((k, m))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.allclose(got, _matmul_loops(a, b), atol=1e-12, rtol=0)


def test_matmul_batched_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g, n, k, m = rng.integers(1, 5, size=4)
        a = rng.standard_normal((g, n, k))
        # batched @ shared 2D weight, the encoder's hot pattern
        w = rng.standard_normal((k, m))
        got = matmul(Tensor(a), Tensor(w)).data
        assert np.allclose(got, _matmul_loops(a, w), atol=1e-12, rtol=0)
        # the batched product the unfused attention reference takes
        b = rng.standard_normal((g, k, m))
        got = bmm(Tensor(a), Tensor(b)).data
        assert np.allclose(got, _matmul_loops(a, b), atol=1e-12, rtol=0)


def test_matmul_shared_weight_backward_matches_loop():
    # flat-BLAS fast path must agree with the per-batch accumulation loop
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4, 5))
    w = rng.standard_normal((5, 2))
    at, wt = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
    out = matmul(at, wt)
    g = rng.standard_normal(out.shape)
    backward(tsum(out * Tensor(g)))

    gw = np.zeros_like(w)
    ga = np.zeros_like(a)
    for i in range(3):
        gw += _matmul_loops(a[i].T, g[i])
        ga[i] = _matmul_loops(g[i], w.T)
    assert np.allclose(wt.grad, gw, atol=1e-12, rtol=0)
    assert np.allclose(at.grad, ga, atol=1e-12, rtol=0)


def test_matmul_shape_error():
    with pytest.raises(ShapeError, match=r"\(2, 3\) x \(4, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    # the right operand is a weight matrix, never a stack
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 3, 4))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


def test_softmax_matches_extended_precision():
    # reference computed at 50 decimal digits
    got = softmax_data(np.array([0.3, -1.2, 2.0]))
    want = np.array([0.14931886218339119035,
                     0.033317541632161398817,
                     0.81736359618444741083])
    assert np.allclose(got, want, atol=1e-15, rtol=0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.standard_normal((4, 7)) * rng.uniform(0.1, 30)
        s = softmax_data(x)
        assert np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-12)
        assert np.all(s >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 6))
    a = softmax_data(x)
    b = softmax_data(x + 123.456)
    assert np.allclose(a, b, atol=1e-14, rtol=0)


def test_softmax_extreme_logits_finite():
    s = softmax_data(np.array([1000.0, 0.0, -1000.0]))
    assert np.all(np.isfinite(s))
    assert abs(s.sum() - 1.0) <= 1e-12
    assert s[0] > 0.999


def test_sigmoid_matches_extended_precision():
    got = sigmoid_data(np.array([0.7, -3.2]))
    want = np.array([0.66818777216816610653, 0.039165722796764358658])
    assert np.allclose(got, want, atol=1e-15, rtol=0)
    # extremes saturate cleanly instead of overflowing
    lo, hi = sigmoid_data(np.array(-800.0)), sigmoid_data(np.array(800.0))
    assert np.isfinite(lo) and np.isfinite(hi)
    assert 0.0 <= lo < 1e-300 and hi == 1.0


def test_bce_with_logits_matches_extended_precision():
    got = bce_with_logits(Tensor([2.0, -1.0]), np.array([1.0, 0.0])).item()
    assert abs(got - 0.22009484928059766525) <= 1e-15


def test_bce_with_logits_extreme_stability():
    assert abs(bce_with_logits(Tensor([500.0]), np.array([0.0])).item() - 500.0) <= 1e-12
    assert abs(bce_with_logits(Tensor([-500.0]), np.array([1.0])).item() - 500.0) <= 1e-12
    tiny = bce_with_logits(Tensor([37.5]), np.array([1.0])).item()
    assert abs(tiny - 5.175555005801868e-17) <= 1e-30


def test_backward_product_closed_form():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal(6), requires_grad=True)
    y = Tensor(rng.standard_normal(6), requires_grad=True)
    backward(tsum(x * y + x))
    assert np.allclose(x.grad, y.data + 1.0, atol=1e-15, rtol=0)
    assert np.allclose(y.grad, x.data, atol=1e-15, rtol=0)


def test_backward_shared_node_accumulates():
    x = Tensor(3.0, requires_grad=True)
    y = x + x               # 2x
    z = y * y               # 4x^2, dz/dx = 8x
    backward(z)
    assert np.allclose(x.grad, 24.0, atol=1e-15, rtol=0)


def test_backward_never_writes_a_gradient_the_caller_set():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    given = np.array([10.0, 20.0, 30.0])
    x.grad = given
    backward(tsum(x * Tensor(2.0)))
    assert np.array_equal(x.grad, [12.0, 22.0, 32.0])
    assert np.array_equal(given, [10.0, 20.0, 30.0])


def test_zero_dim_gradients_are_arrays():
    # 0-d arithmetic returns numpy scalars; .grad holds arrays, both for a
    # first gradient and for a sum of two
    x = Tensor(2.0, requires_grad=True)
    backward(x * Tensor(3.0) + x * Tensor(4.0))
    assert isinstance(x.grad, np.ndarray) and x.grad.shape == ()
    assert x.grad == 7.0
    y = Tensor(2.0, requires_grad=True)
    backward(y * Tensor(3.0))
    assert isinstance(y.grad, np.ndarray) and y.grad == 3.0


def test_backward_div_sqrt_closed_forms():
    x = Tensor([4.0, 9.0], requires_grad=True)
    backward(tsum(sqrt(x)))
    assert np.allclose(x.grad, 0.5 / np.sqrt(x.data), atol=1e-15, rtol=0)

    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([4.0, 5.0], requires_grad=True)
    backward(tsum(div(a, b)))
    assert np.allclose(a.grad, 1.0 / b.data, atol=1e-15, rtol=0)
    assert np.allclose(b.grad, -a.data / b.data ** 2, atol=1e-15, rtol=0)


def test_backward_broadcast_unbroadcasts():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    backward(tsum(a + b))
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.all(b.grad == 3.0)

    s = Tensor(2.0, requires_grad=True)
    backward(tsum(Tensor(np.ones((2, 5))) * s))
    assert s.grad.shape == ()
    assert s.grad == 10.0

    # sub and div against a (3, 4) operand: a (4,) and a (1, 4) operand each
    # get their gradient summed over the broadcast rows
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(1.0, 2.0, (3, 4)), requires_grad=True)
    for shape in ((4,), (1, 4)):
        y = Tensor(rng.uniform(1.0, 2.0, shape), requires_grad=True)
        x.grad = None
        backward(tsum(x - y))
        assert y.grad.shape == shape
        assert np.all(x.grad == 1.0) and np.all(y.grad == -3.0)

        x.grad = y.grad = None
        backward(tsum(div(x, y)))
        assert y.grad.shape == shape
        assert np.allclose(x.grad, np.broadcast_to(1.0 / y.data, (3, 4)),
                           atol=1e-15, rtol=0)
        want = (-x.data / (y.data * y.data)).sum(axis=0).reshape(shape)
        assert np.allclose(y.grad, want, atol=1e-14, rtol=0)

    # a () divisor
    d = Tensor(4.0, requires_grad=True)
    x.grad = None
    backward(tsum(div(x, d)))
    assert d.grad.shape == ()
    assert np.allclose(d.grad, -x.data.sum() / 16.0, atol=1e-14, rtol=0)
    assert np.all(x.grad == 0.25)

    # a batched product whose right operand broadcasts over the batch
    a3 = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    b3 = Tensor(rng.standard_normal((1, 4, 5)), requires_grad=True)
    backward(tsum(bmm(a3, b3)))
    assert a3.grad.shape == (3, 2, 4) and b3.grad.shape == (1, 4, 5)
    # d/dA sum(A B) = 1 Bᵀ: each row of A gets B's row sums
    assert np.allclose(a3.grad, np.broadcast_to(b3.data[0].sum(axis=1), (3, 2, 4)),
                       atol=1e-14, rtol=0)
    # d/dB sum(A B) = Aᵀ 1, summed over the batch: each column gets A's column sums
    col = a3.data.sum(axis=(0, 1))
    assert np.allclose(b3.grad, np.broadcast_to(col[None, :, None], (1, 4, 5)),
                       atol=1e-14, rtol=0)


def test_relu_gradient_gate():
    x = Tensor([-2.0, -0.5, 0.5, 3.0], requires_grad=True)
    backward(tsum(relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])


def test_relu_output_mask_matches_input_mask():
    # relu's backward masks by its output: out > 0 is in > 0 on every value,
    # the signed zeros and NaN included, so the gradient is the input-mask
    # formula's, sign bits and all
    x = np.array([np.nan, -np.nan, 0.0, -0.0, -3.0, -1e-300, 1e-300, 2.5,
                  np.inf, -np.inf])
    g = np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0, 9.0, -10.0])
    t = Tensor(x, requires_grad=True)
    backward(tsum(relu(t) * Tensor(g)))
    want = g * (x > 0.0)
    assert np.array_equal(t.grad, want)
    assert np.array_equal(np.signbit(t.grad), np.signbit(want))


def _nodes(t):
    seen, stack, nodes = {id(t._node)}, [t._node], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def test_graph_keeps_only_the_arrays_backward_reads():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    pre = matmul(x, w) + Tensor(np.ones(3))   # add reads no operand
    out = relu(pre)                           # relu reads its own output
    loss = tsum(out * Tensor(2.0))
    pre_ref, out_ref = weakref.ref(pre.data), weakref.ref(out.data)
    del pre, out
    gc.collect()
    assert pre_ref() is None
    assert out_ref() is not None
    # a graph walk counts the one saved intermediate; no parameter is pinned
    assert sum(n.data.nbytes for n in _nodes(loss)) == 5 * 3 * 8
    assert x._node.data.size == 0 and w._node.data.size == 0
    backward(loss)
    gc.collect()
    assert out_ref() is None
    want = np.where(x.data @ w.data + 1.0 > 0.0, 2.0, 0.0)
    assert np.array_equal(w.grad, x.data.T @ want)


def test_backward_frees_each_routed_node_and_keeps_leaf_and_loss_grads():
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    h = relu(matmul(x, w))
    loss = tmean(h * h)
    nodes = _nodes(loss)
    assert any(n.data.size for n in nodes)
    backward(loss)
    interior = [n for n in nodes if n._parents]
    assert len(interior) == 5
    for n in interior:
        assert n._backward is None and n.data.size == 0, n._op
        assert (n.grad is None) == (n is not loss._node), n._op
    assert loss.grad == 1.0
    assert x.grad is not None and w.grad is not None


def test_second_backward_through_a_routed_graph_raises():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    h = x * x
    loss = tsum(relu(h))
    backward(loss)
    first = x.grad.copy()
    with pytest.raises(ContractError, match="sum node"):
        backward(loss)
    # a new loss on a routed intermediate names that intermediate's op
    with pytest.raises(ContractError, match="mul node"):
        backward(tsum(h * Tensor(2.0)))
    assert np.array_equal(x.grad, first)    # nothing routed twice
    assert loss.grad == 1.0


def test_gather_rows_scatter_adds_on_duplicates():
    a = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    idx = np.array([0, 2, 0, 0])
    out = gather_rows(a, idx)
    assert np.array_equal(out.data, a.data[idx])
    backward(tsum(out))
    want = np.zeros((4, 3))
    want[0] = 3.0
    want[2] = 1.0
    assert np.array_equal(a.grad, want)


def test_group_max_pool_valid_mask_and_ties():
    # group 0: padding rows beyond count 2 must not contribute
    x = np.array([[[1.0, 5.0], [2.0, 1.0], [99.0, 99.0]],
                  [[3.0, 3.0], [3.0, 4.0], [0.0, 0.0]]])
    counts = np.array([2, 3])
    t = Tensor(x, requires_grad=True)
    out = group_max_pool(t, counts)
    assert np.array_equal(out.data, [[2.0, 5.0], [3.0, 4.0]])
    backward(tsum(out))
    # tie in group 1 channel 0 (3.0 twice among valid): first member wins
    assert t.grad[1, 0, 0] == 1.0 and t.grad[1, 1, 0] == 0.0
    assert np.all(t.grad[0, 2] == 0.0)


def test_group_max_pool_padding_invariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m, k, d = rng.integers(1, 5), int(rng.integers(2, 6)), int(rng.integers(1, 4))
        x = rng.standard_normal((int(m), k, d))
        counts = rng.integers(1, k + 1, size=int(m))
        base = group_max_pool(Tensor(x), counts).data
        trash = x.copy()
        for i, c in enumerate(counts):
            trash[i, c:] = rng.standard_normal((k - c, d)) * 1e6
        again = group_max_pool(Tensor(trash), counts).data
        assert np.array_equal(base, again)


def test_group_max_pool_full_count_tie_goes_to_first_member():
    x = Tensor([[[1.0, 4.0], [3.0, 2.0], [3.0, 0.0]]], requires_grad=True)
    out = group_max_pool(x, [3])
    assert np.array_equal(out.data, [[3.0, 4.0]])
    backward(tsum(out))
    # tie in channel 0: the first member at the max gets the gradient
    assert np.array_equal(x.grad, [[[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]])


def test_interp_apply_forward_oracle():
    rng = np.random.default_rng(7)
    src = rng.standard_normal((5, 3))
    idx = rng.integers(0, 5, size=(4, 3))
    w = rng.uniform(0, 1, size=(4, 3))
    w /= w.sum(axis=1, keepdims=True)
    out = interp_apply(Tensor(src), idx, w).data
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            want[i] += w[i, j] * src[idx[i, j]]
    assert np.allclose(out, want, atol=1e-12, rtol=0)


def test_interp_apply_backward_scatters():
    src = Tensor(np.zeros((3, 2)), requires_grad=True)
    idx = np.array([[0, 0, 1]])
    w = np.array([[0.25, 0.25, 0.5]])
    backward(tsum(interp_apply(src, idx, w)))
    assert np.allclose(src.grad, [[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]], atol=1e-15)


def test_concat_reshape_swap_last_roundtrip_grads():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    out = concat([a, b])
    assert out.shape == (2, 7)
    backward(tsum(swap_last(out).reshape(14) * Tensor(np.arange(14.0))))
    assert a.grad.shape == (2, 3) and b.grad.shape == (2, 4)
    with pytest.raises(ShapeError):
        concat([a, Tensor(np.zeros((3, 4)))])


def test_sum_mean_axes():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert tsum(x).item() == 15.0
    backward(tmean(x))
    assert np.allclose(x.grad, np.full((2, 3), 1.0 / 6.0), atol=1e-15)


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = tsum(x * 2.0)
    assert y._parents == ()
    backward(y)            # detached scalar: nothing flows back
    assert x.grad is None

    z = tsum(x * 2.0)
    backward(z)
    assert np.all(x.grad == 2.0)
    with pytest.raises(ContractError):
        backward(z * Tensor(np.ones(2)))   # non-scalar loss


def test_no_grad_is_confined_to_its_thread():
    # a worker thread builds and differentiates a graph while the main
    # thread sits inside no_grad(); neither scope leaks into the other
    x = Tensor(np.ones(3), requires_grad=True)
    seen = {}

    def worker():
        y = tsum(x * 3.0)
        seen["parents"] = len(y._parents)
        backward(y)

    with no_grad():
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=30)
        inside = tsum(x * 2.0)
    assert not t.is_alive()
    assert seen["parents"] == 1
    assert np.all(x.grad == 3.0)
    assert inside._parents == ()
    assert tsum(x * 2.0)._parents != ()


def test_grad_check_passes_on_composite():
    rng = np.random.default_rng(9)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    x = rng.standard_normal((5, 4))

    def f():
        h = relu(matmul(Tensor(x), w) + b)
        return tmean(h * h)

    report = grad_check(f, {"w": w, "b": b})
    assert report.passed, max(report.per_param.items(), key=lambda kv: kv[1])
    assert set(report.per_param) == {"w", "b"}


def test_grad_check_rejects_nondeterministic_objective():
    w = Tensor(np.ones(2), requires_grad=True)
    state = {"n": 0.0}

    def f():
        state["n"] += 1.0
        return tsum(w * state["n"])

    with pytest.raises(ContractError):
        grad_check(f, {"w": w})


def test_grad_check_leaves_parameters_as_given_when_f_raises():
    w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([[0.5, -0.5]]), requires_grad=True)
    arrays = {"w": w.data, "b": b.data}
    saved = {k: a.copy() for k, a in arrays.items()}
    calls = {"n": 0}

    def f():
        calls["n"] += 1
        if calls["n"] == 5:   # the second probe of w's first element
            raise RuntimeError("objective failed")
        return tsum(w * w) + tsum(b * b)

    with pytest.raises(RuntimeError, match="objective failed"):
        grad_check(f, {"w": w, "b": b})
    for name, t in (("w", w), ("b", b)):
        assert t.data is arrays[name], name
        assert np.array_equal(t.data, saved[name]), name


def test_grad_check_step_must_be_positive():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda: tsum(w), {"w": w}, step=0.0)


def test_corrupted_backward_fails_grad_check():
    # negative control: a relu whose backward rule is skewed by 1% must fail
    # the check that the real relu passes
    def skewed_relu(a):
        an, av = a._node, a.data

        def backward_fn(g):
            _accum(an, g * (av > 0.0) * 1.01)
        return _make(np.maximum(av, 0.0), (a,), backward_fn, "relu")

    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 3)))
    for act, passes in ((relu, True), (skewed_relu, False)):
        report = grad_check(lambda: tmean(act(matmul(x, w)) * act(matmul(x, w))),
                            {"w": w})
        assert bool(report.passed) == passes, (act, report.max_rel_error)


def test_check_report_lines_and_verdict():
    r = CheckReport(tol=1e-4, per_param={"a": 1e-6, "b": 2e-3})
    assert not r.passed
    assert r.max_rel_error == 2e-3
    lines = list(r.lines())
    assert any("FAIL" in ln for ln in lines) and any(" ok" in ln for ln in lines)
