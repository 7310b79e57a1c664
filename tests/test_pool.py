"""The two-way split (_pool): its parts depend on shapes alone, so every
output and gradient has the same bits whether the parts run on one thread
or two."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from psformer import _pool, attention
from psformer.attention import attend
from psformer.autodiff import Tensor, matmul
from psformer.training import Adam

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _under_each_worker_count(monkeypatch, fn):
    """fn()'s arrays with no worker thread and with one."""
    results = []
    for workers in (0, 1):
        monkeypatch.setattr(_pool, "WORKERS", workers)
        results.append(fn())
    return results


def _assert_same_bits(monkeypatch, fn):
    inline, split = _under_each_worker_count(monkeypatch, fn)
    assert len(inline) == len(split)
    for a, b in zip(inline, split):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_parts_follow_the_floor():
    assert _pool.parts(4096, _pool.FLOOR - 1) == (slice(0, 4096),)
    assert _pool.parts(4096, _pool.FLOOR) == (slice(0, 2048), slice(2048, 4096))
    assert _pool.parts(9, _pool.FLOOR, at=2) == (slice(0, 2), slice(2, 9))
    assert _pool.parts(1, 1 << 40) == (slice(0, 1),)


# UT5 of the default preset (eight 512-row blocks, each split by rows) and
# psi_pre of its level 1 (1024 groups of 16, split by groups)
@pytest.mark.parametrize("shape", [(4096, 64), (1024, 16, 64)])
def test_attend_bits_do_not_depend_on_workers(monkeypatch, shape):
    rng = np.random.default_rng(30)
    q, k, v, g = (rng.standard_normal(shape) for _ in range(4))
    rows = attention._row_blocks(shape, shape[-2])[0].stop
    work = math.prod(shape[:-2]) * rows * shape[-2] * shape[-1]
    assert len(_pool.parts(shape[0] if len(shape) > 2 else rows, work)) == 2

    def run():
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = attend(*ts)
        out._node._backward(g)
        return [out.data] + [t.grad for t in ts]

    _assert_same_bits(monkeypatch, run)


@pytest.mark.parametrize("a_shape, b_shape", [((1024, 16, 64), (64, 64)),
                                              ((4096, 64), (64, 64))])
def test_matmul_bits_do_not_depend_on_workers(monkeypatch, a_shape, b_shape):
    # a level-1 projection of the default preset and a UT5 one
    rng = np.random.default_rng(32)
    a0, b0 = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    g = rng.standard_normal(a_shape[:-1] + b_shape[-1:])
    assert len(_pool.parts(a_shape[0], g.size * a_shape[-1])) == 2

    def run():
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        out = matmul(a, b)
        out._node._backward(g)
        return [out.data, a.grad, b.grad]

    _assert_same_bits(monkeypatch, run)
    # and the halves are the whole product's bits
    inline, _ = _under_each_worker_count(monkeypatch, run)
    assert np.array_equal(inline[0], a0 @ b0)
    assert np.array_equal(inline[1], g @ b0.T)
    flat = a0.reshape(-1, a_shape[-1])
    assert np.array_equal(inline[2], flat.T @ g.reshape(-1, b_shape[-1]))


def test_adam_step_bits_do_not_depend_on_workers(monkeypatch):
    # weights of default-preset sizes, a bias, a scalar and one without a
    # gradient: 2.1M elements, above the floor
    shapes = [(1024, 512), (512, 512), (512,), (256, 1024), (), (1000, 1100), (64, 3)]
    assert sum(int(np.prod(s)) for s in shapes) >= _pool.FLOOR

    def run():
        rng = np.random.default_rng(33)
        params = {f"p{i}": Tensor(rng.standard_normal(s), requires_grad=True)
                  for i, s in enumerate(shapes)}
        opt = Adam(params, lr=1e-3)
        for _ in range(2):
            for name, p in params.items():
                p.grad = None if name == "p6" else rng.standard_normal(p.data.shape)
            opt.step()
        return ([p.data for p in params.values()] + list(opt.m.values())
                + list(opt.v.values()))

    _assert_same_bits(monkeypatch, run)


def test_adam_step_is_the_textbook_expression():
    rng = np.random.default_rng(34)
    p = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    m, v, data = np.zeros((3, 5)), np.zeros((3, 5)), p.data
    for t in (1, 2, 3):
        g = rng.standard_normal((3, 5))
        p.grad = g
        before = p.data
        opt.step()
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        data = data - 0.01 * (m / (1.0 - 0.9 ** t)) / (
            np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert p.data is not before          # a new array, the old one intact
        assert np.array_equal(p.data, data)
        assert np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v)


def test_adam_checks_every_shape_before_moving_any_parameter():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam({"a": a, "b": b}, lr=0.1)
    a.grad, b.grad = np.ones(3), np.ones((2, 1))
    with pytest.raises(ValueError, match="for b"):
        opt.step()
    assert np.array_equal(a.data, np.zeros(3)) and opt.t == 0


def test_a_job_error_reaches_the_caller_after_both_parts(monkeypatch):
    monkeypatch.setattr(_pool, "WORKERS", 1)
    done = []

    def job(part):
        if part == "first":
            raise RuntimeError("first part failed")
        done.append(part)

    with pytest.raises(RuntimeError, match="first part failed"):
        _pool.run(job, ("first", "second"))
    assert done == ["second"]


def test_one_cpu_means_no_worker():
    code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from psformer import _pool; print(_pool.WORKERS)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"
