"""Hierarchical point-context encoder.

Each level: farthest point sampling -> ball grouping with relative
coordinates appended -> linear lift -> feature normalization -> local
attention within each group (psi_pre) -> channelwise max-pool over valid
members -> global attention over the sampled seeds (psi_post). Five levels
are chained; stage flags turn FN / psi_pre / psi_post into identity
pass-throughs for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import TransParams, init_trans, trans_block
from .autodiff import ContractError, Tensor, as_tensor, group_max_pool
from .featurenorm import FNParams, fn_apply, init_fn
from .pointcloud import append_rel_coords, farthest_point_sample, gather_groups, group_indices


@dataclass
class PCTLevelConfig:
    m: int            # seeds sampled at this level
    radius: float     # grouping radius, in normalized units of the input cloud
    k: int            # max group size
    d_out: int
    use_fn: bool = True
    use_psi_pre: bool = True
    use_psi_post: bool = True


@dataclass
class EncoderLevelOutput:
    coords: np.ndarray   # (M, 3), a subset of the input cloud's coords
    features: Tensor     # (M, d_out)

    @property
    def m(self) -> int:
        return self.coords.shape[0]


@dataclass
class PCTLevelParams:
    lift_w: Tensor                   # (d_in + 3, d_out)
    lift_b: Tensor | None            # absent under FN (see init_level)
    fn: FNParams | None = None       # present iff use_fn
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


def init_level(rng: np.random.Generator, d_in: int, cfg: PCTLevelConfig,
               fn_eps: float = 1e-5) -> PCTLevelParams:
    """A lift bias is created only when FN is off: FN subtracts the centroid
    feature from each member, so a per-channel shift cancels exactly and the
    bias would be an untrainable dead parameter; FN's beta plays its role."""
    from .attention import glorot
    return PCTLevelParams(
        lift_w=glorot(rng, d_in + 3, cfg.d_out),
        lift_b=None if cfg.use_fn else Tensor(np.zeros(cfg.d_out), requires_grad=True),
        fn=init_fn(cfg.d_out, fn_eps) if cfg.use_fn else None,
        psi_pre=init_trans(rng, cfg.d_out) if cfg.use_psi_pre else None,
        psi_post=init_trans(rng, cfg.d_out) if cfg.use_psi_post else None,
    )


@dataclass
class LevelGeometry:
    """Coordinate-only byproducts of one level, reusable across parameter
    updates on the same cloud."""

    centroid_idx: np.ndarray
    neighbor_idx: np.ndarray
    valid_counts: np.ndarray


def build_level_geometry(coords: np.ndarray, cfg: PCTLevelConfig,
                         radius_scale: float = 1.0) -> LevelGeometry:
    if coords.shape[0] < cfg.m:
        raise ContractError(
            f"pct level needs at least {cfg.m} points, got {coords.shape[0]}")
    centroid_idx = farthest_point_sample(coords, cfg.m)
    neighbor_idx, counts = group_indices(
        coords, centroid_idx, cfg.radius * radius_scale, cfg.k)
    return LevelGeometry(centroid_idx, neighbor_idx, counts)


def pct_block(coords: np.ndarray, features, cfg: PCTLevelConfig,
              params: PCTLevelParams, geometry: LevelGeometry,
              trace: dict | None = None) -> EncoderLevelOutput:
    features = as_tensor(features)
    groups = gather_groups(coords, features, geometry.centroid_idx,
                           geometry.neighbor_idx, geometry.valid_counts)
    groups = append_rel_coords(groups)
    nb = groups.neighbor_features @ params.lift_w
    ctr = groups.centroid_features @ params.lift_w
    if params.lift_b is not None:
        nb = nb + params.lift_b
        ctr = ctr + params.lift_b
    lifted = replace(groups, neighbor_features=nb, centroid_features=ctr)
    if trace is not None:
        trace["grouped"] = groups
        trace["lifted"] = lifted

    normed = fn_apply(lifted, params.fn) if cfg.use_fn else lifted
    member_feats = normed.neighbor_features
    if cfg.use_psi_pre:
        member_feats = trans_block(member_feats, params.psi_pre)
    pooled = group_max_pool(member_feats, geometry.valid_counts)
    if cfg.use_psi_post:
        seeds = trans_block(pooled, params.psi_post)
    else:
        seeds = pooled
    if trace is not None:
        trace["normed"] = normed
        trace["member_feats"] = member_feats
        trace["pooled"] = pooled
        trace["seeds"] = seeds

    return EncoderLevelOutput(coords=coords[geometry.centroid_idx], features=seeds)


def encode_features(coords: np.ndarray, features, cfgs, params, geometry):
    """Chain pct_block over each level config with that level's geometry.
    Level l consumes level l-1's coords and features; returns one
    EncoderLevelOutput per level."""
    levels = []
    feats = as_tensor(features)
    for cfg, p, geom in zip(cfgs, params, geometry):
        out = pct_block(coords, feats, cfg, p, geom)
        levels.append(out)
        coords, feats = out.coords, out.features
    return levels
