"""Encoder levels: shapes, composition, locality, pooling semantics."""

from dataclasses import replace

import numpy as np
import pytest

from psformer import encoder
from psformer.autodiff import ContractError, Tensor, backward, grad_check
from psformer.config import LevelSpec
from psformer.encoder import build_level_geometry, encode_features, init_level, pct_block
from psformer.featurenorm import EPS, fn_apply
from psformer.pointcloud import normalize_cloud
from unfused_ops import tmean


def _level(m, radius=0.5, k=4, d_out=6):
    return LevelSpec(m=m, radius=radius, k=k, d_out=d_out)


def _params(rng, d_in, spec, **flags):
    return init_level(rng, d_in, spec.d_out, **flags)


def _cloud(rng, n=24):
    return normalize_cloud(rng.uniform(0, 1, (n, 3)), rng.uniform(0, 1, (n, 3)))


def _block(cloud, spec, params):
    """One level on a cloud's 9 input channels, radii unscaled."""
    return pct_block(cloud.coords, Tensor(cloud.features9()),
                     build_level_geometry(cloud.coords, spec), params)


def _chain_geometry(coords, specs, radius_scale=1.0):
    """Per-level geometry of a level chain, as PSFormer.build_geometry makes it."""
    geoms = []
    for spec in specs:
        geoms.append(build_level_geometry(coords, spec, radius_scale))
        coords = coords[geoms[-1].centroid_idx]
    return geoms


def _lifted_members(cloud, geom, params):
    """Numpy oracle of the lift and FN: member features with their offsets
    from the centroid appended, times lift_w, plus lift_b when present; with
    FN parameters, normalized against the lifted centroid (offset zero)."""
    f9 = cloud.features9()
    rel = cloud.coords[geom.neighbor_idx] - cloud.coords[geom.centroid_idx][:, None, :]
    out = np.concatenate([f9[geom.neighbor_idx], rel], axis=-1) @ params.lift_w.data
    if params.lift_b is not None:
        out = out + params.lift_b.data
    if params.fn is not None:
        ctr = np.concatenate([f9[geom.centroid_idx], np.zeros((len(rel), 3))],
                             axis=-1) @ params.lift_w.data
        out = fn_apply(Tensor(out), Tensor(ctr), params.fn).data
    return out


def test_level_output_shapes():
    rng = np.random.default_rng(0)
    spec = _level(m=5, d_out=7)
    params = _params(rng, 9, spec)
    cloud = _cloud(rng)
    out = _block(cloud, spec, params)
    assert out.shape == (5, 7)


def test_chain_matches_manual_composition():
    rng = np.random.default_rng(1)
    specs = [_level(m=8, radius=0.4, d_out=5), _level(m=3, radius=0.9, d_out=6)]
    params = [_params(rng, 9, specs[0]), _params(rng, 5, specs[1])]
    cloud = _cloud(rng)

    geoms = _chain_geometry(cloud.coords, specs, cloud.extent)
    levels = encode_features(cloud.coords, Tensor(cloud.features9()), params, geoms)
    assert [lv.shape for lv in levels] == [(8, 5), (3, 6)]

    scale = cloud.extent
    g1 = build_level_geometry(cloud.coords, specs[0], scale)
    first = pct_block(cloud.coords, Tensor(cloud.features9()), g1, params[0])
    seeds = cloud.coords[g1.centroid_idx]
    second = pct_block(seeds, first, build_level_geometry(seeds, specs[1], scale),
                       params[1])
    assert np.array_equal(levels[0].data, first.data)
    assert np.array_equal(levels[1].data, second.data)


def test_seed_coords_subset_of_input():
    rng = np.random.default_rng(2)
    cloud = _cloud(rng, n=30)
    geom = build_level_geometry(cloud.coords, _level(m=6))
    assert len(set(geom.centroid_idx.tolist())) == 6
    assert np.all((geom.centroid_idx >= 0) & (geom.centroid_idx < 30))
    in_set = set(map(tuple, cloud.coords))
    assert all(tuple(c) in in_set for c in cloud.coords[geom.centroid_idx])


def test_too_few_points_contract_error():
    rng = np.random.default_rng(3)
    cloud = _cloud(rng, n=4)
    with pytest.raises(ContractError):
        build_level_geometry(cloud.coords, _level(m=5))


def test_lift_bias_only_without_fn():
    rng = np.random.default_rng(4)
    with_fn = init_level(rng, 9, 6, use_fn=True)
    without_fn = init_level(rng, 9, 6, use_fn=False)
    # normalization subtracts the centroid feature from each member, so a
    # per-channel shift before it cancels exactly; the bias would be dead
    assert with_fn.lift_b is None
    assert without_fn.lift_b is not None
    names_fn = set(init_level(np.random.default_rng(0), 9, 6, use_fn=True).named("e"))
    assert "e.lift.b" not in names_fn
    assert "e.lift.b" in set(without_fn.named("e"))


def test_ablation_flags_drop_parameters():
    rng = np.random.default_rng(5)
    full = init_level(rng, 9, 6)
    bare = init_level(rng, 9, 6, use_fn=False, use_psi_pre=False, use_psi_post=False)
    full_names = set(full.named("e"))
    bare_names = set(bare.named("e"))
    assert any(n.startswith("e.fn.") for n in full_names)
    assert any(n.startswith("e.pre.") for n in full_names)
    assert any(n.startswith("e.post.") for n in full_names)
    assert not any(n.startswith(("e.fn.", "e.pre.", "e.post.")) for n in bare_names)


def test_pooled_is_max_over_valid_members():
    rng = np.random.default_rng(6)
    cloud = _cloud(rng)
    spec = _level(m=5)
    params = _params(rng, 9, spec, use_psi_pre=False, use_psi_post=False)
    geom = build_level_geometry(cloud.coords, spec)
    out = pct_block(cloud.coords, Tensor(cloud.features9()), geom, params)
    member = _lifted_members(cloud, geom, params)
    counts = geom.valid_counts
    assert np.any(counts < spec.k), "expected some padded groups"
    for i in range(5):
        want = member[i, :counts[i]].max(axis=0)
        assert np.array_equal(out.data[i], want)


def test_padding_choice_never_changes_pooled_output():
    # padding repeats an existing member and the pooled max masks it out, so
    # pointing the pad rows at a different valid member changes nothing.
    # FN and psi_pre stay off: sigma and in-group attention see all k rows
    # by design, masking applies at the pool
    rng = np.random.default_rng(7)
    coords = np.vstack([rng.uniform(0, 0.1, (6, 3)), rng.uniform(5, 5.1, (6, 3))])
    cloud = normalize_cloud(coords, rng.uniform(0, 1, (12, 3)))
    spec = _level(m=4, radius=0.05, k=8)
    params = _params(rng, 9, spec, use_fn=False, use_psi_pre=False)
    geom = build_level_geometry(cloud.coords, spec, radius_scale=cloud.extent)
    assert np.any(geom.valid_counts < spec.k), "expected some padded groups"

    out = pct_block(cloud.coords, Tensor(cloud.features9()), geom, params)
    idx2 = geom.neighbor_idx.copy()
    for i, c in enumerate(geom.valid_counts):
        idx2[i, c:] = idx2[i, c - 1]       # pad with the farthest valid member
    geom2 = replace(geom, neighbor_idx=idx2)
    out2 = pct_block(cloud.coords, Tensor(cloud.features9()), geom2, params)
    assert np.array_equal(out.data, out2.data)


def test_member_shuffle_invariance_on_full_groups():
    # with every group full, reordering members inside a group only permutes
    # rows through the equivariant stages; the pooled max forgets the order
    rng = np.random.default_rng(13)
    cloud = _cloud(rng, n=20)
    spec = _level(m=5, radius=2.0, k=6)     # huge radius: every group full
    params = _params(rng, 9, spec)
    geom = build_level_geometry(cloud.coords, spec, radius_scale=cloud.extent)
    assert np.all(geom.valid_counts == spec.k)

    base = pct_block(cloud.coords, Tensor(cloud.features9()), geom, params)
    idx2 = geom.neighbor_idx.copy()
    for i in range(spec.m):
        idx2[i] = idx2[i][rng.permutation(spec.k)]
    out2 = pct_block(cloud.coords, Tensor(cloud.features9()),
                     replace(geom, neighbor_idx=idx2), params)
    assert np.max(np.abs(base.data - out2.data)) <= 1e-10


def test_uniform_coincident_cloud_gives_uniform_outputs():
    # all features equal and all points mutually in-radius: every stage
    # preserves the symmetry, so every output feature row is identical
    rng = np.random.default_rng(14)
    coords = np.tile(rng.uniform(0, 1, 3), (10, 1))
    colors = np.tile(rng.uniform(0, 1, 3), (10, 1))
    cloud = normalize_cloud(coords, colors)
    assert cloud.extent == 0.0
    spec = _level(m=4, radius=0.5, k=5)
    params = _params(rng, 9, spec)
    out = _block(cloud, spec, params)
    assert np.max(np.abs(out.data - out.data[0])) <= 1e-12


def test_zero_features_zero_params_propagate_zeros():
    rng = np.random.default_rng(15)
    coords = rng.uniform(0, 1, (18, 3))
    specs = [_level(m=6, d_out=5), _level(m=3, radius=0.9, d_out=5)]
    params = [_params(rng, 4, specs[0]), _params(rng, 5, specs[1])]
    for p in params:
        for t in p.named("x").values():
            t.data[:] = 0.0
    levels = encode_features(coords, Tensor(np.zeros((18, 4))), params,
                             _chain_geometry(coords, specs))
    for lv in levels:
        assert np.all(lv.data == 0.0)


def test_fn_disabled_is_identity_passthrough():
    # without FN parameters the lifted members go to the pool unchanged
    rng = np.random.default_rng(16)
    cloud = _cloud(rng)
    spec = _level(m=4)
    params = _params(rng, 9, spec, use_fn=False, use_psi_pre=False,
                     use_psi_post=False)
    geom = build_level_geometry(cloud.coords, spec)
    out = pct_block(cloud.coords, Tensor(cloud.features9()), geom, params)
    member = _lifted_members(cloud, geom, params)
    want = np.stack([member[i, :c].max(axis=0)
                     for i, c in enumerate(geom.valid_counts)])
    assert np.array_equal(out.data, want)


@pytest.mark.parametrize("stage", ["fn", "psi_pre", "psi_post"])
def test_stage_runs_only_when_its_parameters_exist(monkeypatch, stage):
    rng = np.random.default_rng(18)
    cloud = _cloud(rng)
    spec = _level(m=4)
    flags = {"use_fn": False, "use_psi_pre": False, "use_psi_post": False,
             f"use_{stage}": True}
    params = _params(rng, 9, spec, **flags)
    stages = {id(params.psi_pre): "psi_pre", id(params.psi_post): "psi_post"}
    calls = []
    real_fn, real_trans = encoder.fn_apply, encoder.trans_block

    def spy_fn(*args):
        calls.append("fn")
        return real_fn(*args)

    def spy_trans(x, p):
        calls.append(stages[id(p)])
        return real_trans(x, p)

    monkeypatch.setattr(encoder, "fn_apply", spy_fn)
    monkeypatch.setattr(encoder, "trans_block", spy_trans)
    _block(cloud, spec, params)
    assert calls == [stage]


def test_lift_sees_member_offsets_and_zero_centroid_offset():
    # a lift that keeps only the three offset columns: members become their
    # offsets from the centroid and the centroid its own zero offset, so FN
    # (alpha 1, beta 0) divides the raw offsets by their RMS
    rng = np.random.default_rng(19)
    cloud = _cloud(rng)
    spec = _level(m=4, radius=0.6, k=5, d_out=3)
    params = _params(rng, 9, spec, use_psi_pre=False, use_psi_post=False)
    params.lift_w.data[:] = 0.0
    params.lift_w.data[9:] = np.eye(3)
    geom = build_level_geometry(cloud.coords, spec)
    out = pct_block(cloud.coords, Tensor(cloud.features9()), geom, params)
    rel = cloud.coords[geom.neighbor_idx] - cloud.coords[geom.centroid_idx][:, None, :]
    scaled = rel / (np.sqrt((rel * rel).mean()) + EPS)
    want = np.stack([scaled[i, :c].max(axis=0)
                     for i, c in enumerate(geom.valid_counts)])
    assert np.allclose(out.data, want, rtol=0, atol=1e-12)


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
    specs = [_level(m=4, radius=0.9, k=3, d_out=4),
             _level(m=2, radius=2.0, k=3, d_out=5)]
    params = [_params(rng, 9, specs[0]), _params(rng, 4, specs[1])]
    tracked = {}
    for i, p in enumerate(params):
        tracked.update(p.named(f"enc{i + 1}"))
    feats = cloud.features9()
    geoms = _chain_geometry(cloud.coords, specs, cloud.extent)

    def objective():
        levels = encode_features(cloud.coords, Tensor(feats), params, geoms)
        total = tmean(levels[0] * levels[0])
        for lv in levels[1:]:
            total = total + tmean(lv * lv)
        return total

    report = grad_check(objective, tracked)
    assert report.passed, {k: v for k, v in report.per_param.items() if v > 1e-4}


def test_degenerate_level_keeps_gradients_finite():
    # every level-2 group is a lone seed padded with itself, so the level
    # deviation is exactly zero; FN's backward must not emit 0/0 NaNs
    # through sigma's infinite slope (they would silently poison every
    # upstream gradient)
    rng = np.random.default_rng(17)
    cloud = _cloud(rng, n=10)
    specs = [_level(m=4, radius=0.5, k=3, d_out=4),
             _level(m=2, radius=1.0, k=3, d_out=5)]
    params = [_params(rng, 9, specs[0]), _params(rng, 4, specs[1])]

    levels = encode_features(cloud.coords, Tensor(cloud.features9()), params,
                             _chain_geometry(cloud.coords, specs, cloud.extent))
    loss = tmean(levels[-1] * levels[-1])
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
    spec = _level(m=5, radius=0.2, k=4)
    params = _params(rng, 9, spec, use_fn=False, use_psi_post=False)

    cloud = normalize_cloud(coords, colors)
    geom = build_level_geometry(cloud.coords, spec, radius_scale=cloud.extent)
    base = pct_block(cloud.coords, Tensor(cloud.features9()), geom, params)

    # perturb the color of one point that is in no group
    used = set(geom.neighbor_idx.reshape(-1).tolist()) | set(geom.centroid_idx.tolist())
    free = [i for i in range(30) if i not in used]
    assert free, "pick a sparser layout"
    colors2 = colors.copy()
    colors2[free[0]] = rng.uniform(0, 1, 3)
    cloud2 = normalize_cloud(coords, colors2)
    out2 = pct_block(cloud2.coords, Tensor(cloud2.features9()), geom, params)
    assert np.array_equal(base.data, out2.data)


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
    spec = _level(m=16, radius=0.3, k=4)
    params = _params(rng, 9, spec, use_psi_post=False)
    geom = build_level_geometry(cloud.coords, spec, radius_scale=cloud.extent)
    out = pct_block(cloud.coords, Tensor(cloud.features9()), geom, params)
    rows = {int(np.flatnonzero(geom.centroid_idx == i)[0]) for i in (3, 7)}
    a, b = sorted(rows)
    assert np.allclose(out.data[a], out.data[b], atol=1e-12, rtol=0)


def test_radius_scaling_matches_raw_coordinates():
    # grouping in a cloud measured in millimeters must pick the same
    # neighbors as the same cloud in meters
    rng = np.random.default_rng(10)
    coords = rng.uniform(0, 1, (20, 3))
    spec = _level(m=4, radius=0.25, k=5)
    g1 = build_level_geometry(coords, spec, radius_scale=1.0)
    g2 = build_level_geometry(coords * 1000.0, spec, radius_scale=1000.0)
    assert np.array_equal(g1.centroid_idx, g2.centroid_idx)
    assert np.array_equal(g1.neighbor_idx, g2.neighbor_idx)
    assert np.array_equal(g1.valid_counts, g2.valid_counts)


def test_single_level_grad_check():
    rng = np.random.default_rng(12)
    cloud = _cloud(rng, n=12)
    spec = _level(m=3, radius=0.6, k=3, d_out=4)
    params = _params(rng, 9, spec)
    geom = build_level_geometry(cloud.coords, spec, radius_scale=cloud.extent)
    feats = cloud.features9()

    def objective():
        out = pct_block(cloud.coords, Tensor(feats), geom, params)
        return tmean(out * out)

    report = grad_check(objective, params.named("enc"))
    assert report.passed, {k: v for k, v in report.per_param.items() if v > 1e-4}
