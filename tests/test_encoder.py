"""Encoder levels: shapes, composition, locality, pooling semantics."""

from dataclasses import replace

import numpy as np
import pytest

from psformer.autodiff import ContractError, Tensor, backward, grad_check
from psformer.encoder import (PCTLevelConfig, build_level_geometry,
                              encode_features, init_level, pct_block)
from psformer.pointcloud import normalize_cloud


def _level(m, radius=0.5, k=4, d_out=6, **flags):
    return PCTLevelConfig(m=m, radius=radius, k=k, d_out=d_out, **flags)


def _cloud(rng, n=24):
    return normalize_cloud(rng.uniform(0, 1, (n, 3)), rng.uniform(0, 1, (n, 3)))


def _block(cloud, cfg, params, **kw):
    """One level on a cloud's 9 input channels, radii unscaled."""
    return pct_block(cloud.coords, Tensor(cloud.features9()), cfg, params,
                     build_level_geometry(cloud.coords, cfg), **kw)


def _chain_geometry(coords, cfgs, radius_scale=1.0):
    """Per-level geometry of a level chain, as PSFormer.build_geometry makes it."""
    geoms = []
    for cfg in cfgs:
        geoms.append(build_level_geometry(coords, cfg, radius_scale))
        coords = coords[geoms[-1].centroid_idx]
    return geoms


def test_level_output_shapes():
    rng = np.random.default_rng(0)
    cfg = _level(m=5, d_out=7)
    params = init_level(rng, 9, cfg)
    cloud = _cloud(rng)
    out = _block(cloud, cfg, params)
    assert out.coords.shape == (5, 3)
    assert out.features.shape == (5, 7)
    assert out.m == 5


def test_chain_matches_manual_composition():
    rng = np.random.default_rng(1)
    cfgs = [_level(m=8, radius=0.4, d_out=5), _level(m=3, radius=0.9, d_out=6)]
    params = [init_level(rng, 9, cfgs[0]), init_level(rng, 5, cfgs[1])]
    cloud = _cloud(rng)

    geoms = _chain_geometry(cloud.coords, cfgs, cloud.extent)
    levels = encode_features(cloud.coords, Tensor(cloud.features9()), cfgs,
                             params, geoms)
    assert [lv.m for lv in levels] == [8, 3]

    scale = cloud.extent
    first = pct_block(cloud.coords, Tensor(cloud.features9()), cfgs[0], params[0],
                      build_level_geometry(cloud.coords, cfgs[0], scale))
    second = pct_block(first.coords, first.features, cfgs[1], params[1],
                       build_level_geometry(first.coords, cfgs[1], scale))
    assert np.array_equal(levels[0].features.data, first.features.data)
    assert np.array_equal(levels[1].features.data, second.features.data)
    assert np.array_equal(levels[1].coords, second.coords)


def test_seed_coords_subset_of_input():
    rng = np.random.default_rng(2)
    cloud = _cloud(rng, n=30)
    cfg = _level(m=6)
    out = _block(cloud, cfg, init_level(rng, 9, cfg))
    in_set = set(map(tuple, cloud.coords))
    assert all(tuple(c) in in_set for c in out.coords)


def test_too_few_points_contract_error():
    rng = np.random.default_rng(3)
    cloud = _cloud(rng, n=4)
    cfg = _level(m=5)
    with pytest.raises(ContractError):
        build_level_geometry(cloud.coords, cfg)


def test_lift_bias_only_without_fn():
    rng = np.random.default_rng(4)
    with_fn = init_level(rng, 9, _level(m=4, use_fn=True))
    without_fn = init_level(rng, 9, _level(m=4, use_fn=False))
    # normalization subtracts the centroid feature from each member, so a
    # per-channel shift before it cancels exactly; the bias would be dead
    assert with_fn.lift_b is None
    assert without_fn.lift_b is not None
    names_fn = set(init_level(np.random.default_rng(0), 9,
                              _level(m=4, use_fn=True)).named("e"))
    assert "e.lift.b" not in names_fn
    assert "e.lift.b" in set(without_fn.named("e"))


def test_ablation_flags_drop_parameters():
    rng = np.random.default_rng(5)
    full = init_level(rng, 9, _level(m=4))
    bare = init_level(rng, 9, _level(m=4, use_fn=False, use_psi_pre=False,
                                     use_psi_post=False))
    full_names = set(full.named("e"))
    bare_names = set(bare.named("e"))
    assert any(n.startswith("e.fn.") for n in full_names)
    assert any(n.startswith("e.pre.") for n in full_names)
    assert any(n.startswith("e.post.") for n in full_names)
    assert not any(n.startswith(("e.fn.", "e.pre.", "e.post.")) for n in bare_names)


def test_pooled_is_max_over_valid_members():
    rng = np.random.default_rng(6)
    cloud = _cloud(rng)
    cfg = _level(m=5, use_psi_pre=False, use_psi_post=False)
    params = init_level(rng, 9, cfg)
    trace = {}
    out = _block(cloud, cfg, params, trace=trace)
    member = trace["member_feats"].data
    counts = trace["grouped"].valid_counts
    for i in range(5):
        want = member[i, :counts[i]].max(axis=0)
        assert np.array_equal(out.features.data[i], want)


def test_padding_choice_never_changes_pooled_output():
    # padding repeats an existing member and the pooled max masks it out, so
    # pointing the pad rows at a different valid member changes nothing.
    # FN and psi_pre stay off: sigma and in-group attention see all k rows
    # by design, masking applies at the pool
    rng = np.random.default_rng(7)
    coords = np.vstack([rng.uniform(0, 0.1, (6, 3)), rng.uniform(5, 5.1, (6, 3))])
    cloud = normalize_cloud(coords, rng.uniform(0, 1, (12, 3)))
    cfg = _level(m=4, radius=0.05, k=8, use_fn=False, use_psi_pre=False)
    params = init_level(rng, 9, cfg)
    geom = build_level_geometry(cloud.coords, cfg, radius_scale=cloud.extent)
    assert np.any(geom.valid_counts < cfg.k), "expected some padded groups"

    out = pct_block(cloud.coords, Tensor(cloud.features9()), cfg, params, geom)
    idx2 = geom.neighbor_idx.copy()
    for i, c in enumerate(geom.valid_counts):
        idx2[i, c:] = idx2[i, c - 1]       # pad with the farthest valid member
    geom2 = replace(geom, neighbor_idx=idx2)
    out2 = pct_block(cloud.coords, Tensor(cloud.features9()), cfg, params, geom2)
    assert np.array_equal(out.features.data, out2.features.data)


def test_member_shuffle_invariance_on_full_groups():
    # with every group full, reordering members inside a group only permutes
    # rows through the equivariant stages; the pooled max forgets the order
    rng = np.random.default_rng(13)
    cloud = _cloud(rng, n=20)
    cfg = _level(m=5, radius=2.0, k=6)     # huge radius: every group full
    params = init_level(rng, 9, cfg)
    geom = build_level_geometry(cloud.coords, cfg, radius_scale=cloud.extent)
    assert np.all(geom.valid_counts == cfg.k)

    base = pct_block(cloud.coords, Tensor(cloud.features9()), cfg, params, geom)
    idx2 = geom.neighbor_idx.copy()
    for i in range(cfg.m):
        idx2[i] = idx2[i][rng.permutation(cfg.k)]
    out2 = pct_block(cloud.coords, Tensor(cloud.features9()), cfg, params,
                     replace(geom, neighbor_idx=idx2))
    assert np.max(np.abs(base.features.data - out2.features.data)) <= 1e-10


def test_uniform_coincident_cloud_gives_uniform_outputs():
    # all features equal and all points mutually in-radius: every stage
    # preserves the symmetry, so every output feature row is identical
    rng = np.random.default_rng(14)
    coords = np.tile(rng.uniform(0, 1, 3), (10, 1))
    colors = np.tile(rng.uniform(0, 1, 3), (10, 1))
    cloud = normalize_cloud(coords, colors)
    assert cloud.degenerate
    cfg = _level(m=4, radius=0.5, k=5)
    params = init_level(rng, 9, cfg)
    out = _block(cloud, cfg, params)
    assert np.max(np.abs(out.features.data - out.features.data[0])) <= 1e-12


def test_zero_features_zero_params_propagate_zeros():
    rng = np.random.default_rng(15)
    coords = rng.uniform(0, 1, (18, 3))
    cfgs = [_level(m=6, d_out=5), _level(m=3, radius=0.9, d_out=5)]
    params = [init_level(rng, 4, cfgs[0]), init_level(rng, 5, cfgs[1])]
    for p in params:
        for t in p.named("x").values():
            t.data[:] = 0.0
    levels = encode_features(coords, Tensor(np.zeros((18, 4))), cfgs, params,
                             _chain_geometry(coords, cfgs))
    for lv in levels:
        assert np.all(lv.features.data == 0.0)


def test_fn_disabled_is_identity_passthrough():
    rng = np.random.default_rng(16)
    cloud = _cloud(rng)
    cfg = _level(m=4, use_fn=False)
    trace = {}
    _block(cloud, cfg, init_level(rng, 9, cfg), trace=trace)
    assert trace["normed"] is trace["lifted"]


def test_encode_chain_grad_check():
    # generous radii so every group has real neighbors: with a fully
    # degenerate level the loss goes flat and central differences end up
    # comparing float noise against zero under the 1e-8 error floor.
    # The objective sums every level, mirroring how the decoder consumes
    # them; a last-level-only loss has structurally zero gradients for
    # uniform-shift parameters (the next level's normalizer eats shifts)
    # and those degenerate into zero-vs-noise comparisons.
    rng = np.random.default_rng(17)
    cloud = _cloud(rng, n=10)
    cfgs = [_level(m=4, radius=0.9, k=3, d_out=4),
            _level(m=2, radius=2.0, k=3, d_out=5)]
    params = [init_level(rng, 9, cfgs[0]), init_level(rng, 4, cfgs[1])]
    tracked = {}
    for i, p in enumerate(params):
        tracked.update(p.named(f"enc{i + 1}"))
    feats = cloud.features9()
    geoms = _chain_geometry(cloud.coords, cfgs, cloud.extent)

    def objective():
        levels = encode_features(cloud.coords, Tensor(feats), cfgs, params, geoms)
        total = (levels[0].features * levels[0].features).mean()
        for lv in levels[1:]:
            total = total + (lv.features * lv.features).mean()
        return total

    report = grad_check(objective, tracked)
    assert report.passed, {k: v for k, v in report.per_param.items() if v > 1e-4}


def test_degenerate_level_keeps_gradients_finite():
    # every level-2 group is a lone seed padded with itself, so the level
    # deviation is exactly zero; sqrt's backward must not emit 0/0 NaNs
    # (they would silently poison every upstream gradient)
    rng = np.random.default_rng(17)
    cloud = _cloud(rng, n=10)
    cfgs = [_level(m=4, radius=0.5, k=3, d_out=4),
            _level(m=2, radius=1.0, k=3, d_out=5)]
    params = [init_level(rng, 9, cfgs[0]), init_level(rng, 4, cfgs[1])]

    levels = encode_features(cloud.coords, Tensor(cloud.features9()), cfgs,
                             params, _chain_geometry(cloud.coords, cfgs, cloud.extent))
    loss = (levels[-1].features * levels[-1].features).mean()
    backward(loss)

    for i, p in enumerate(params):
        for name, t in p.named(f"enc{i + 1}").items():
            assert t.grad is not None, name
            assert np.isfinite(t.grad).all(), name
    # the constant-output level blocks all influence from below: level-1
    # gradients cancel to zero up to summation-order noise
    assert np.abs(params[0].lift_w.grad).max() < 1e-9


def test_locality_without_global_stages():
    # with FN (global sigma) and psi_post (cross-seed attention) disabled,
    # a group's output depends only on points inside its ball
    rng = np.random.default_rng(8)
    coords = rng.uniform(0, 1, (30, 3))
    colors = rng.uniform(0, 1, (30, 3))
    cfg = _level(m=5, radius=0.2, k=4, use_fn=False, use_psi_post=False)
    params = init_level(rng, 9, cfg)

    cloud = normalize_cloud(coords, colors)
    geom = build_level_geometry(cloud.coords, cfg, radius_scale=cloud.extent)
    base = pct_block(cloud.coords, Tensor(cloud.features9()), cfg, params, geom)

    # perturb the color of one point that is in no group
    used = set(geom.neighbor_idx.reshape(-1).tolist()) | set(geom.centroid_idx.tolist())
    free = [i for i in range(30) if i not in used]
    assert free, "pick a sparser layout"
    colors2 = colors.copy()
    colors2[free[0]] = rng.uniform(0, 1, 3)
    cloud2 = normalize_cloud(coords, colors2)
    out2 = pct_block(cloud2.coords, Tensor(cloud2.features9()), cfg, params, geom)
    assert np.array_equal(base.features.data, out2.features.data)


def test_coincident_centroids_get_identical_features():
    # two exactly coincident points see identical neighborhoods, so if both
    # are sampled as centroids their group outputs match (before psi_post
    # mixes seeds; with use_fn the shared sigma is also identical)
    rng = np.random.default_rng(9)
    coords = rng.uniform(0, 1, (16, 3))
    coords[7] = coords[3]
    colors = rng.uniform(0, 1, (16, 3))
    colors[7] = colors[3]
    cloud = normalize_cloud(coords, colors)
    cfg = _level(m=16, radius=0.3, k=4, use_psi_post=False)
    params = init_level(rng, 9, cfg)
    geom = build_level_geometry(cloud.coords, cfg, radius_scale=cloud.extent)
    out = pct_block(cloud.coords, Tensor(cloud.features9()), cfg, params, geom)
    rows = {int(np.flatnonzero(geom.centroid_idx == i)[0]) for i in (3, 7)}
    a, b = sorted(rows)
    assert np.allclose(out.features.data[a], out.features.data[b],
                       atol=1e-12, rtol=0)


def test_radius_scaling_matches_raw_coordinates():
    # grouping in a cloud measured in millimeters must pick the same
    # neighbors as the same cloud in meters
    rng = np.random.default_rng(10)
    coords = rng.uniform(0, 1, (20, 3))
    cfg = _level(m=4, radius=0.25, k=5)
    g1 = build_level_geometry(coords, cfg, radius_scale=1.0)
    g2 = build_level_geometry(coords * 1000.0, cfg, radius_scale=1000.0)
    assert np.array_equal(g1.centroid_idx, g2.centroid_idx)
    assert np.array_equal(g1.neighbor_idx, g2.neighbor_idx)
    assert np.array_equal(g1.valid_counts, g2.valid_counts)


def test_trace_exposes_stage_outputs():
    rng = np.random.default_rng(11)
    cloud = _cloud(rng)
    cfg = _level(m=4)
    trace = {}
    _block(cloud, cfg, init_level(rng, 9, cfg), trace=trace)
    assert set(trace) == {"grouped", "lifted", "normed", "member_feats",
                          "pooled", "seeds"}
    assert trace["grouped"].neighbor_features.shape[-1] == 12  # 9 + 3 offsets


def test_single_level_grad_check():
    rng = np.random.default_rng(12)
    cloud = _cloud(rng, n=12)
    cfg = _level(m=3, radius=0.6, k=3, d_out=4)
    params = init_level(rng, 9, cfg)
    geom = build_level_geometry(cloud.coords, cfg, radius_scale=cloud.extent)
    feats = cloud.features9()

    def objective():
        out = pct_block(cloud.coords, Tensor(feats), cfg, params, geom)
        return (out.features * out.features).mean()

    report = grad_check(objective, params.named("enc"))
    assert report.passed, {k: v for k, v in report.per_param.items() if v > 1e-4}
