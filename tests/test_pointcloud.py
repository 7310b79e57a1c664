"""PointCloud construction, and the grouping and interpolation properties
of the geometry kernels the layers gather with."""

import numpy as np
import pytest

from psformer._kernels import ball_query, fps_indices, three_nn
from psformer.autodiff import ContractError, Tensor, backward, gather_rows, interp_apply
from psformer.pointcloud import normalize_cloud
from unfused_ops import tsum


def _interpolate(src, feats, dst):
    idx, w = three_nn(dst, src)
    return interp_apply(Tensor(feats), idx, w).data


def test_normalize_unit_cube_bounds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        coords = rng.uniform(-50, 50, (int(rng.integers(2, 40)), 3))
        cloud = normalize_cloud(coords)
        assert cloud.norm_coords.min() >= 0.0
        assert cloud.norm_coords.max() <= 1.0 + 1e-15
        # one shared extent: aspect ratio is preserved, so the largest axis
        # spans exactly [0, 1]
        spans = cloud.norm_coords.max(axis=0) - cloud.norm_coords.min(axis=0)
        assert abs(spans.max() - 1.0) <= 1e-12
        assert cloud.extent > 0


def test_normalize_preserves_shape_ratios():
    coords = np.array([[0.0, 0, 0], [4.0, 0, 0], [0.0, 2, 0]])
    cloud = normalize_cloud(coords)
    assert np.allclose(cloud.norm_coords[1], [1.0, 0, 0])
    assert np.allclose(cloud.norm_coords[2], [0.0, 0.5, 0])
    assert cloud.extent == 4.0


def test_normalize_degenerate_cloud_flagged():
    cloud = normalize_cloud(np.ones((5, 3)) * 7.0)
    assert cloud.extent == 0.0
    assert np.all(cloud.norm_coords == 0.5)


def test_normalize_contract_errors():
    with pytest.raises(ContractError):
        normalize_cloud(np.zeros((0, 3)))
    with pytest.raises(ContractError):
        normalize_cloud(np.zeros((4, 2)))
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ContractError):
        normalize_cloud(bad)
    coords = np.zeros((4, 3))
    for colors in (np.zeros((4, 2)), np.zeros((3, 3)), np.zeros(12)):
        with pytest.raises(ContractError, match="colors"):
            normalize_cloud(coords, colors)
    for labels in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(ContractError, match="labels"):
            normalize_cloud(coords, labels=labels)


def test_normalize_rejects_non_finite_colors():
    coords = np.random.default_rng(2).uniform(0, 1, (4, 3))
    for value in (np.nan, np.inf, -np.inf):
        colors = np.full((4, 3), 0.5)
        colors[2, 1] = value
        with pytest.raises(ContractError, match="colors contain non-finite"):
            normalize_cloud(coords, colors)


def test_normalize_rejects_colors_outside_unit_range():
    coords = np.random.default_rng(3).uniform(0, 1, (4, 3))
    for value in (-1e-9, 1.0 + 1e-9, 255.0):
        colors = np.full((4, 3), 0.5)
        colors[0, 2] = value
        with pytest.raises(ContractError, match=r"colors must lie in \[0, 1\]"):
            normalize_cloud(coords, colors)
    edges = np.array([[0.0, 1.0, 0.5]] * 4)
    assert np.array_equal(normalize_cloud(coords, edges).colors, edges)


def test_default_colors_and_labels():
    cloud = normalize_cloud(np.random.default_rng(1).uniform(0, 1, (6, 3)))
    assert np.all(cloud.colors == 0.5)
    assert cloud.labels is None
    labeled = normalize_cloud(cloud.coords, labels=np.array([0, 1, 1, 0, 0, 1]))
    assert labeled.labels.dtype == bool and labeled.labels.sum() == 3


def test_features9_layout():
    rng = np.random.default_rng(2)
    coords = rng.uniform(-3, 3, (8, 3))
    colors = rng.uniform(0, 1, (8, 3))
    cloud = normalize_cloud(coords, colors)
    f = cloud.features9()
    assert f.shape == (8, 9)
    assert np.array_equal(f[:, :3], coords)
    assert np.array_equal(f[:, 3:6], colors)
    assert np.array_equal(f[:, 6:], cloud.norm_coords)


def test_farthest_point_sample_contracts():
    # m < 1 is refused by config validation (test_validation_positive_fields)
    coords = np.random.default_rng(4).uniform(0, 1, (9, 3))
    assert len(fps_indices(coords, 4)) == 4
    with pytest.raises(ValueError, match="cannot sample 10 of 9"):
        fps_indices(coords, 10)


def test_ball_group_structure():
    rng = np.random.default_rng(5)
    coords = rng.uniform(0, 1, (30, 3))
    feats = rng.standard_normal((30, 5))
    centroid_idx = fps_indices(coords, 6)
    idx, counts = ball_query(coords, centroid_idx, radius=0.5, k=4)
    assert idx.shape == (6, 4) and counts.shape == (6,)
    assert np.all(counts >= 1)
    assert np.all(counts <= 4)
    # valid members lie inside the ball; padding repeats a valid member
    rel = coords[idx] - coords[centroid_idx][:, None, :]
    norms = np.sqrt((rel ** 2).sum(-1))
    for i in range(6):
        assert np.all(norms[i, :counts[i]] <= 0.5 + 1e-12)
        assert set(idx[i, counts[i]:]) <= set(idx[i, :counts[i]])


def test_gather_groups_routes_gradients():
    rng = np.random.default_rng(6)
    coords = rng.uniform(0, 1, (12, 3))
    feats = Tensor(rng.standard_normal((12, 4)), requires_grad=True)
    centroid_idx = fps_indices(coords, 3)
    idx, _ = ball_query(coords, centroid_idx, 0.8, 5)
    backward(tsum(gather_rows(feats, idx)))
    # every point gathered q times accumulates gradient q
    expected = np.zeros(12)
    for row in idx.reshape(-1):
        expected[row] += 1.0
    assert np.array_equal(feats.grad[:, 0], expected)


def test_interpolate_constant_field_exact():
    rng = np.random.default_rng(8)
    src = rng.uniform(0, 1, (9, 3))
    dst = rng.uniform(0, 1, (20, 3))
    feats = np.tile([2.5, -1.0], (9, 1))
    out = _interpolate(src, feats, dst)
    assert np.allclose(out, np.tile([2.5, -1.0], (20, 1)), atol=1e-12, rtol=0)


def test_interpolate_coincident_destination_copies_source():
    rng = np.random.default_rng(9)
    src = rng.uniform(0, 1, (7, 3))
    feats = rng.standard_normal((7, 3))
    out = _interpolate(src, feats, src)
    assert np.array_equal(out, feats)


def test_interpolate_weight_locality():
    # a destination near one source is dominated by it
    src = np.array([[0.0, 0, 0], [10.0, 0, 0], [0.0, 10, 0]])
    dst = np.array([[0.01, 0.0, 0.0]])
    idx, w = three_nn(dst, src)
    assert idx[0, 0] == 0
    assert w[0, 0] > 0.999
