"""Feature normalization: closed forms, brute-force oracle, invariances."""

import numpy as np
import pytest

import unfused_ops
from psformer.autodiff import ContractError, Tensor, backward, grad_check
from psformer.featurenorm import EPS, FNParams, fn_apply, group_std, init_fn


def _make_groups(nb, ctr):
    """(members, centroids) Tensors of (M, K, d) and (M, d) arrays."""
    return Tensor(np.asarray(nb, dtype=np.float64)), Tensor(np.asarray(ctr, dtype=np.float64))


def _diff(nb, ctr):
    """The (M, K, d) deviations of members nb from their centroids ctr."""
    return np.asarray(nb, dtype=np.float64) - np.asarray(ctr, dtype=np.float64)[:, None, :]


def _sigma_reference(nb, ctr):
    """Triple loop over groups, members, channels."""
    m, k, d = nb.shape
    acc = 0.0
    for i in range(m):
        for j in range(k):
            for c in range(d):
                acc += (nb[i, j, c] - ctr[i, c]) ** 2
    return np.sqrt(acc / (m * k * d))


def test_group_std_hand_closed_form():
    # all deviations are exactly +-1 -> sigma is exactly 1
    ctr = np.array([[0.0, 0.0]])
    nb = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    assert group_std(_diff(nb, ctr)) == 1.0

    # deviations 0 and 2 -> sigma = sqrt((0+4)/2) = sqrt(2)
    nb2 = np.array([[[0.0], [2.0]]])
    ctr2 = np.array([[0.0]])
    assert abs(group_std(_diff(nb2, ctr2)) - np.sqrt(2.0)) <= 1e-15


def test_group_std_matches_triple_loop():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, k, d = (int(rng.integers(1, 5)) for _ in range(3))
        nb = rng.standard_normal((m, k, d)) * rng.uniform(0.1, 10)
        ctr = rng.standard_normal((m, d))
        got = group_std(_diff(nb, ctr))
        assert abs(got - _sigma_reference(nb, ctr)) <= 1e-12


def test_fn_apply_matches_triple_loop():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m, k, d = (int(rng.integers(1, 5)) for _ in range(3))
        nb = rng.standard_normal((m, k, d))
        ctr = rng.standard_normal((m, d))
        alpha = rng.standard_normal(d)
        beta = rng.standard_normal(d)
        params = FNParams(Tensor(alpha), Tensor(beta))
        got = fn_apply(*_make_groups(nb, ctr), params).data
        sigma = _sigma_reference(nb, ctr)
        want = np.zeros_like(nb)
        for i in range(m):
            for j in range(k):
                for c in range(d):
                    want[i, j, c] = (alpha[c] * (nb[i, j, c] - ctr[i, c])
                                     / (sigma + EPS) + beta[c])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_fn_shift_invariance():
    # adding one constant vector to every feature (members and centroids)
    # cancels in the centroid-relative differences
    rng = np.random.default_rng(2)
    for _ in range(50):
        m, k, d = 3, 4, 5
        nb = rng.standard_normal((m, k, d))
        ctr = rng.standard_normal((m, d))
        shift = rng.standard_normal(d) * 100
        params = init_fn(d)
        a = fn_apply(*_make_groups(nb, ctr), params).data
        b = fn_apply(*_make_groups(nb + shift, ctr + shift), params).data
        assert np.max(np.abs(a - b)) <= 1e-10


def test_sigma_scale_equivariance():
    rng = np.random.default_rng(3)
    nb = rng.standard_normal((2, 3, 4))
    ctr = rng.standard_normal((2, 4))
    base = group_std(_diff(nb, ctr))
    for c in (0.5, 3.0, 250.0):
        scaled = group_std(_diff(c * nb, c * ctr))
        assert abs(scaled - c * base) <= 1e-9 * max(1.0, c * base)


def test_output_deviation_is_normalized():
    # with alpha=1, beta=0 the output deviations have std sigma/(sigma+eps)
    rng = np.random.default_rng(4)
    nb = rng.standard_normal((4, 6, 3)) * 7.3
    ctr = nb[:, 0, :]     # centroid = first member, its own diff is zero
    sigma = group_std(_diff(nb, ctr))
    out = fn_apply(*_make_groups(nb, ctr), init_fn(3))
    out_sigma = group_std(out.data)
    assert abs(out_sigma - sigma / (sigma + EPS)) <= 1e-10


def test_centroid_own_entry_maps_to_beta():
    rng = np.random.default_rng(5)
    nb = rng.standard_normal((3, 4, 2))
    nb[:, 0, :] = rng.standard_normal((3, 2))
    ctr = nb[:, 0, :].copy()
    beta = np.array([0.25, -1.5])
    params = FNParams(Tensor(np.ones(2)), Tensor(beta))
    out = fn_apply(*_make_groups(nb, ctr), params).data
    assert np.allclose(out[:, 0, :], np.tile(beta, (3, 1)), atol=1e-15, rtol=0)


def test_fn_apply_keeps_geometry_and_centroids():
    # one output row per member; neither input is written to
    rng = np.random.default_rng(6)
    nb, ctr = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4))
    members, centroids = _make_groups(nb, ctr)
    out = fn_apply(members, centroids, init_fn(4))
    assert out.shape == (2, 3, 4)
    assert np.array_equal(members.data, nb)
    assert np.array_equal(centroids.data, ctr)


def test_group_std_rejects_empty():
    with pytest.raises(ContractError):
        group_std(np.zeros((0, 2, 2)))
    with pytest.raises(ContractError):
        fn_apply(*_make_groups(np.zeros((2, 0, 2)), np.zeros((2, 2))), init_fn(2))


def test_fn_grad_check():
    rng = np.random.default_rng(7)
    nb = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    ctr = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    params = init_fn(4)
    params.alpha.data[:] = rng.uniform(0.5, 1.5, 4)
    params.beta.data[:] = rng.standard_normal(4) * 0.3

    def objective():
        out = fn_apply(nb, ctr, params)
        return unfused_ops.tmean(out * out)

    tracked = {"alpha": params.alpha, "beta": params.beta, "nb": nb, "ctr": ctr}
    report = grad_check(objective, tracked)
    assert report.passed, dict(report.per_param)


def test_fused_fn_matches_composed_reference():
    # the one-node FN against the sub/mul/mean/sqrt/div graph it replaces:
    # values and gradients bit-equal, which implies agreement to 1e-12
    # normwise; the last level has zero deviation, where both drop sigma's
    # term
    rng = np.random.default_rng(8)
    for case in range(31):
        m, k, d = (int(n) for n in rng.integers(1, 9, 3))
        nb = rng.standard_normal((m, k, d)) * rng.uniform(0.1, 10)
        ctr = rng.standard_normal((m, d))
        if case == 30:
            nb = np.repeat(ctr[:, None, :], k, axis=1)
        alpha, beta = rng.uniform(0.5, 1.5, d), rng.standard_normal(d)
        weights = Tensor(rng.standard_normal((m, k, d)))
        runs = []
        for apply in (fn_apply, unfused_ops.fn_apply):
            tracked = [Tensor(a, requires_grad=True) for a in (nb, ctr, alpha, beta)]
            out = apply(tracked[0], tracked[1], FNParams(tracked[2], tracked[3]))
            backward(unfused_ops.tsum(out * weights))
            runs.append((out.data, [t.grad for t in tracked]))
        (fused, fused_grads), (ref, ref_grads) = runs
        assert np.array_equal(fused, ref), (m, k, d)
        for name, a, b in zip(("members", "centroids", "alpha", "beta"),
                              fused_grads, ref_grads):
            assert np.isfinite(a).all(), name
            assert np.array_equal(a, b), (name, m, k, d)
