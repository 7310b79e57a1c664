"""Decoder stage tests: upsample-and-attend blocks, pooled scene context,
and the saliency head. Context pooling is checked against a plain-loop
reference and for point-order invariance."""

import numpy as np
import pytest

from psformer._kernels import three_nn
from psformer.attention import trans_block
from psformer.autodiff import ShapeError, Tensor, grad_check
from psformer.decoder import (decode, init_head, init_mca, init_ut, mca,
                              predict_head, ut_block)
from psformer.pointcloud import normalize_cloud
from psformer.autodiff import ContractError, concat, interp_apply
from unfused_ops import tmean


def _level_out(rng, n, d):
    """(coords, features) of a level: n random points, d random channels."""
    coords = rng.uniform(0, 1, (n, 3))
    feats = rng.normal(0, 1, (n, d))
    return coords, Tensor(feats)


def _ut(upper, skip, params):
    return ut_block(upper[1], skip[1], params, three_nn(skip[0], upper[0]))


# ---------------------------------------------------------------- ut blocks

def test_ut_block_shapes_and_composition():
    rng = np.random.default_rng(0)
    upper = _level_out(rng, 4, 6)
    skip = _level_out(rng, 9, 5)
    params = init_ut(rng, d_up=6, d_skip=5)

    out = _ut(upper, skip, params)
    assert out.shape == (9, 5)

    # equals the manual pipeline: interpolate, concat, fuse, transformer
    idx, w = three_nn(skip[0], upper[0])
    up = interp_apply(upper[1], idx, w)
    cat = concat([up, skip[1]])
    fused = cat @ params.fuse_w + params.fuse_b
    manual = trans_block(fused, params.trans)
    assert np.array_equal(out.data, manual.data)


def test_ut_block_without_transformer_is_linear_fuse():
    rng = np.random.default_rng(1)
    upper = _level_out(rng, 4, 6)
    skip = _level_out(rng, 7, 5)
    params = init_ut(rng, d_up=6, d_skip=5, use_trans=False)
    assert params.trans is None

    out = _ut(upper, skip, params)
    idx, w = three_nn(skip[0], upper[0])
    up = interp_apply(upper[1], idx, w)
    cat = concat([up, skip[1]])
    fused = cat @ params.fuse_w + params.fuse_b
    assert np.array_equal(out.data, fused.data)


def test_ut_block_rejects_mismatched_fuse_width():
    rng = np.random.default_rng(2)
    upper = _level_out(rng, 4, 6)
    skip = _level_out(rng, 7, 5)
    params = init_ut(rng, d_up=6, d_skip=4)  # expects skip width 4, not 5
    with pytest.raises(ShapeError):
        _ut(upper, skip, params)


# ------------------------------------------------------------ scene context

def _mca_reference(level_feats, ws, bs):
    """Plain-loop relu(f @ w + b), channelwise max over points, concatenated."""
    out = []
    for f, w, b in zip(level_feats, ws, bs):
        n, d = f.shape
        c = w.shape[1]
        best = [-np.inf] * c
        for i in range(n):
            for j in range(c):
                h = b[j]
                for t in range(d):
                    h += f[i, t] * w[t, j]
                h = max(h, 0.0)
                if h > best[j]:
                    best[j] = h
        out.extend(best)
    return np.array(out)


def test_mca_matches_loop_reference():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n_levels = int(rng.integers(2, 6))
        compress = int(rng.integers(2, 5))
        feats, levels = [], []
        widths = []
        for _ in range(n_levels):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(2, 6))
            f = rng.normal(0, 1, (n, d))
            feats.append(f)
            widths.append(d)
            # coordinates, which mca never reads: drawn to keep the seeded instances
            rng.uniform(0, 1, (n, 3))
            levels.append(Tensor(f))
        params = init_mca(rng, widths, compress)
        got = mca(levels, params).data
        want = _mca_reference(feats, [w.data for w in params.w],
                              [b.data for b in params.b])
        assert got.shape == (1, n_levels * compress)
        worst = max(worst, np.abs(got[0] - want).max())
    assert worst <= 1e-12, worst


def test_mca_invariant_to_point_order_within_each_level():
    rng = np.random.default_rng(7)
    for _ in range(50):
        widths = [4, 6, 3]
        levels = [_level_out(rng, int(rng.integers(2, 8)), d)[1] for d in widths]
        params = init_mca(rng, widths, 3)
        base = mca(levels, params).data
        shuffled = []
        for lv in levels:
            perm = rng.permutation(lv.shape[0])
            shuffled.append(Tensor(lv.data[perm]))
        assert np.array_equal(mca(shuffled, params).data, base)


def test_mca_level_count_mismatch():
    rng = np.random.default_rng(8)
    levels = [_level_out(rng, 4, 5)[1]]
    params = init_mca(rng, [5, 5], 3)
    with pytest.raises(ContractError):
        mca(levels, params)


# ------------------------------------------------------------------- head

def test_predict_head_returns_one_logit_per_point():
    rng = np.random.default_rng(9)
    f = rng.normal(0, 1, (11, 6))
    params = init_head(rng, 6, 8)
    assert predict_head(Tensor(f), None, params).shape == (11,)


def test_predict_head_broadcasts_context_rows():
    rng = np.random.default_rng(11)
    f = rng.normal(0, 1, (6, 4))
    levels = [_level_out(rng, 5, 3)[1]]
    ctx = mca(levels, init_mca(rng, [3], 2))
    params = init_head(rng, 4 + ctx.shape[1], 8)
    logits = predict_head(Tensor(f), ctx, params)
    # manually append the context to every row
    manual_in = np.concatenate([f, np.tile(ctx.data, (6, 1))], axis=1)
    h = np.maximum(manual_in @ params.w1.data + params.b1.data, 0.0)
    manual = (h @ params.w2.data + params.b2.data).reshape(6)
    assert np.allclose(logits.data, manual, rtol=0, atol=1e-15)


def test_predict_head_width_mismatch():
    rng = np.random.default_rng(12)
    params = init_head(rng, 5, 8)
    with pytest.raises(ShapeError):
        predict_head(Tensor(rng.normal(0, 1, (3, 4))), None, params)


# ----------------------------------------------------------------- decode

def _decode_setup(rng, n=20, use_trans=True):
    coords = rng.uniform(0, 1, (n, 3))
    colors = rng.uniform(0, 1, (n, 3))
    cloud = normalize_cloud(coords, colors)
    widths = [6, 8, 10]
    sizes = [12, 8, 4]
    levels = [_level_out(rng, m, d) for m, d in zip(sizes, widths)]
    d_dec = 5
    from psformer.attention import glorot
    from psformer.decoder import DecoderParams
    uts = [init_ut(rng, widths[2], widths[1], use_trans),
           init_ut(rng, widths[1], widths[0], use_trans),
           init_ut(rng, widths[0], d_dec, use_trans)]
    params = DecoderParams(
        stem_w=glorot(rng, 9, d_dec),
        stem_b=Tensor(np.zeros(d_dec), requires_grad=True),
        uts=uts,
    )
    return cloud, levels, params


def _decode(levels, cloud, params):
    """decode on (coords, features) levels, with each UT step's
    interpolation, coarsest first, made as PSFormer.build_geometry makes it."""
    coords = [c for c, _ in levels]
    dsts = coords[-2::-1] + [cloud.coords]
    chain = [three_nn(d, c) for c, d in zip(coords[::-1], dsts)]
    return decode([f for _, f in levels], Tensor(cloud.features9()), params, chain)


def test_decode_end_to_end_shape():
    rng = np.random.default_rng(13)
    cloud, levels, params = _decode_setup(rng)
    out = _decode(levels, cloud, params)
    assert out.shape == (20, 5)
    assert np.isfinite(out.data).all()


def test_decode_without_transformers():
    rng = np.random.default_rng(14)
    cloud, levels, params = _decode_setup(rng, use_trans=False)
    out = _decode(levels, cloud, params)
    assert out.shape == (20, 5)


def test_decode_level_count_mismatch():
    rng = np.random.default_rng(15)
    cloud, levels, params = _decode_setup(rng)
    with pytest.raises(ContractError):
        _decode(levels[:2], cloud, params)


# --------------------------------------------------------------- gradients

def test_ut_block_grad_check():
    rng = np.random.default_rng(16)
    upper = _level_out(rng, 4, 5)
    skip = _level_out(rng, 7, 4)
    params = init_ut(rng, d_up=5, d_skip=4)

    def objective():
        out = _ut(upper, skip, params)
        return tmean(out * out)

    report = grad_check(objective, params.named("ut"))
    assert report.passed, report.per_param


def test_mca_and_head_grad_check():
    rng = np.random.default_rng(18)
    widths = [4, 5]
    levels = [_level_out(rng, 6, widths[0])[1], _level_out(rng, 3, widths[1])[1]]
    mparams = init_mca(rng, widths, 3)
    point_feats = Tensor(rng.normal(0, 1, (9, 4)))
    hparams = init_head(rng, 4 + 6, 5)
    labels = rng.integers(0, 2, 9).astype(np.float64)

    from psformer.autodiff import bce_with_logits

    def objective():
        return bce_with_logits(predict_head(point_feats, mca(levels, mparams), hparams),
                               labels)

    tracked = {}
    tracked.update(mparams.named())
    tracked.update(hparams.named())
    report = grad_check(objective, tracked)
    assert report.passed, report.per_param
