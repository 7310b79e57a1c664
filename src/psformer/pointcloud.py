"""Point cloud container and its normalization.

Clouds carry raw coordinates, RGB colors in [0, 1], and coordinates
normalized to the unit cube by a single per-cloud extent. The coordinate-only
geometry the layers gather with (sampling, ball query, 3-NN weights) is
built from `coords` by `PSFormer.build_geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError


@dataclass
class PointCloud:
    coords: np.ndarray            # (N, 3) float64
    colors: np.ndarray            # (N, 3) float64 in [0, 1]
    norm_coords: np.ndarray       # (N, 3) float64 in [0, 1]
    labels: np.ndarray | None = None   # (N,) bool, salient or not
    extent: float = 1.0           # max axis extent of coords; 0 if all coincide

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def features9(self) -> np.ndarray:
        """The 9 per-point input channels: xyz, rgb, normalized xyz."""
        return np.concatenate([self.coords, self.colors, self.norm_coords], axis=1)


def normalize_cloud(coords: np.ndarray, colors: np.ndarray | None = None,
                    labels: np.ndarray | None = None) -> PointCloud:
    """Build a PointCloud, filling norm_coords = (coords - min) / max_extent.

    A cloud whose points all coincide gets extent 0 and norm_coords 0.5.
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
        return PointCloud(coords, colors, norm, labels, extent=0.0)
    norm = (coords - lo) / extent
    return PointCloud(coords, colors, norm, labels, extent=extent)

