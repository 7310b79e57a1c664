"""Point cloud container and the coordinate-only primitives of the model's
geometry.

Clouds carry raw coordinates, RGB colors in [0, 1], and coordinates
normalized to the unit cube by a single per-cloud extent. Sampling, ball
query and 3-NN interpolation weights depend on coordinates alone, so
`PSFormer.build_geometry` computes them once per cloud and the layers only
gather features with them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .autodiff import ContractError


@dataclass
class PointCloud:
    coords: np.ndarray            # (N, 3) float64
    colors: np.ndarray            # (N, 3) float64 in [0, 1]
    norm_coords: np.ndarray       # (N, 3) float64 in [0, 1]
    labels: np.ndarray | None = None   # (N,) bool, salient or not
    extent: float = 1.0           # max axis extent of coords; 0 if degenerate
    degenerate: bool = False      # all points coincide

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def features9(self) -> np.ndarray:
        """The 9 per-point input channels: xyz, rgb, normalized xyz."""
        return np.concatenate([self.coords, self.colors, self.norm_coords], axis=1)

    def permuted(self, perm: np.ndarray) -> "PointCloud":
        return replace(
            self,
            coords=self.coords[perm],
            colors=self.colors[perm],
            norm_coords=self.norm_coords[perm],
            labels=None if self.labels is None else self.labels[perm],
        )


def normalize_cloud(coords: np.ndarray, colors: np.ndarray | None = None,
                    labels: np.ndarray | None = None) -> PointCloud:
    """Build a PointCloud, filling norm_coords = (coords - min) / max_extent.

    A degenerate cloud (zero extent) gets norm_coords of 0.5 and is flagged.
    Colors must be finite and in [0, 1]; missing colors default to mid-gray 0.5.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
        raise ContractError(f"normalize_cloud: need (N, 3) coords, got {coords.shape}")
    if not np.isfinite(coords).all():
        raise ContractError("normalize_cloud: coords contain non-finite values")
    n = coords.shape[0]
    if colors is None:
        colors = np.full_like(coords, 0.5)
    else:
        colors = np.asarray(colors, dtype=np.float64)
        if colors.shape != (n, 3):
            raise ContractError(
                f"normalize_cloud: need ({n}, 3) colors, got {colors.shape}")
        if not np.isfinite(colors).all():
            raise ContractError("normalize_cloud: colors contain non-finite values")
        if colors.min() < 0.0 or colors.max() > 1.0:
            raise ContractError(
                f"normalize_cloud: colors must lie in [0, 1], got "
                f"[{colors.min()}, {colors.max()}]")
    if labels is not None:
        labels = np.asarray(labels, dtype=bool)
        if labels.shape != (n,):
            raise ContractError(
                f"normalize_cloud: need ({n},) labels, got {labels.shape}")

    lo = coords.min(axis=0)
    extent = float((coords.max(axis=0) - lo).max())
    if extent <= 0.0:
        norm = np.full_like(coords, 0.5)
        return PointCloud(coords, colors, norm, labels, extent=0.0, degenerate=True)
    norm = (coords - lo) / extent
    return PointCloud(coords, colors, norm, labels, extent=extent)


def farthest_point_sample(coords: np.ndarray, m: int) -> np.ndarray:
    """Indices of m greedily max-min sampled points (see _kernels.fps_indices)."""
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if not 1 <= m <= n:
        raise ContractError(f"farthest_point_sample: m={m} out of range [1, {n}]")
    return _kernels.fps_indices(coords, m)


def group_indices(coords: np.ndarray, centroid_idx: np.ndarray, radius: float, k: int):
    """(M, k) indices of up to k in-radius nearest neighbors of each centroid,
    and the (M,) true counts. Rows with fewer than k in-radius points are
    padded by repeating the nearest qualifying entry."""
    if radius <= 0:
        raise ContractError(f"ball query radius must be positive, got {radius}")
    if k < 1:
        raise ContractError(f"ball query k must be >= 1, got {k}")
    return _kernels.ball_query(coords, centroid_idx, radius, k)


def interp_weights(src_coords: np.ndarray, dst_coords: np.ndarray):
    """Indices and weights of the 3-NN interpolation from src onto dst (see
    _kernels.three_nn), for autodiff.interp_apply; a destination coincident
    with a source copies it exactly."""
    if src_coords.shape[0] < 1:
        raise ContractError("interp_weights: need at least one source point")
    return _kernels.three_nn(dst_coords, src_coords)
