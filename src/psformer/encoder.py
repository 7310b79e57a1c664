"""Hierarchical point-context encoder.

Each level: farthest point sampling -> ball grouping with relative
coordinates appended -> linear lift -> feature normalization -> local
attention within each group (psi_pre) -> channelwise max-pool over valid
members -> global attention over the sampled seeds (psi_post). Five levels
are chained, each passing on a plain (M, d_out) feature Tensor. A level runs
FN, psi_pre and psi_post only when it holds that stage's parameters, so an
ablated model skips the stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .attention import TransParams, glorot, init_trans, trans_block
from .autodiff import ContractError, Tensor, concat, gather_rows, group_max_pool
from .config import LevelSpec
from .featurenorm import FNParams, fn_apply, init_fn


@dataclass
class PCTLevelParams:
    lift_w: Tensor                   # (d_in + 3, d_out)
    lift_b: Tensor | None            # absent under FN (see init_level)
    fn: FNParams | None = None       # None skips FN (ablation)
    psi_pre: TransParams | None = None
    psi_post: TransParams | None = None

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.lift.w": self.lift_w}
        if self.lift_b is not None:
            out[f"{prefix}.lift.b"] = self.lift_b
        if self.fn is not None:
            out.update(self.fn.named(f"{prefix}.fn"))
        if self.psi_pre is not None:
            out.update(self.psi_pre.named(f"{prefix}.pre"))
        if self.psi_post is not None:
            out.update(self.psi_post.named(f"{prefix}.post"))
        return out


def init_level(rng: np.random.Generator, d_in: int, d_out: int, *,
               use_fn: bool = True, use_psi_pre: bool = True,
               use_psi_post: bool = True) -> PCTLevelParams:
    """A lift bias is created only when FN is off: FN subtracts the centroid
    feature from each member, so a per-channel shift cancels exactly and the
    bias would be an untrainable dead parameter; FN's beta plays its role."""
    return PCTLevelParams(
        lift_w=glorot(rng, d_in + 3, d_out),
        lift_b=None if use_fn else Tensor(np.zeros(d_out), requires_grad=True),
        fn=init_fn(d_out) if use_fn else None,
        psi_pre=init_trans(rng, d_out) if use_psi_pre else None,
        psi_post=init_trans(rng, d_out) if use_psi_post else None,
    )


@dataclass
class LevelGeometry:
    """Coordinate-only byproducts of one level, reusable across parameter
    updates on the same cloud."""

    centroid_idx: np.ndarray
    neighbor_idx: np.ndarray
    valid_counts: np.ndarray


def build_level_geometry(coords: np.ndarray, spec: LevelSpec,
                         radius_scale: float = 1.0) -> LevelGeometry:
    """FPS seeds and ball-query groups of one level. The one check that the
    cloud holds enough points; m, k and radius were validated with the config."""
    if coords.shape[0] < spec.m:
        raise ContractError(
            f"pct level needs at least {spec.m} points, got {coords.shape[0]}")
    centroid_idx = _kernels.fps_indices(coords, spec.m)
    neighbor_idx, counts = _kernels.ball_query(
        coords, centroid_idx, spec.radius * radius_scale, spec.k)
    return LevelGeometry(centroid_idx, neighbor_idx, counts)


def pct_block(coords: np.ndarray, features: Tensor, geometry: LevelGeometry,
              params: PCTLevelParams) -> Tensor:
    """One level on (N, d_in) features at coords: the (M, d_out) features of
    its seeds, geometry.centroid_idx. Each member's offset from its centroid
    is appended before the lift; FN centers members on the lifted centroid
    feature, whose own offset is zero."""
    ctr_idx, nb_idx = geometry.centroid_idx, geometry.neighbor_idx

    def lift(x: Tensor, offsets: np.ndarray) -> Tensor:
        y = concat([x, Tensor(offsets)]) @ params.lift_w
        return y if params.lift_b is None else y + params.lift_b

    members = lift(gather_rows(features, nb_idx),
                   coords[nb_idx] - coords[ctr_idx][:, None, :])
    if params.fn is not None:
        centroids = lift(gather_rows(features, ctr_idx), np.zeros((len(ctr_idx), 3)))
        members = fn_apply(members, centroids, params.fn)
    if params.psi_pre is not None:
        members = trans_block(members, params.psi_pre)
    seeds = group_max_pool(members, geometry.valid_counts)
    if params.psi_post is not None:
        seeds = trans_block(seeds, params.psi_post)
    return seeds


def encode_features(coords: np.ndarray, features: Tensor, params, geometry) -> list:
    """Chain pct_block over each level's parameters and geometry. Level l
    consumes level l-1's seeds; returns every level's feature Tensor."""
    levels = []
    for p, geom in zip(params, geometry):
        features = pct_block(coords, features, geom, p)
        levels.append(features)
        coords = coords[geom.centroid_idx]
    return levels
