"""Full encoder-decoder model: parameter construction, geometry caching, and
the forward pass from a point cloud and its geometry to per-point logits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .attention import glorot
from .autodiff import ContractError, Tensor
from .config import ModelConfig
from .decoder import (
    DecoderParams,
    decode,
    init_head,
    init_mca,
    init_ut,
    mca,
    predict_head,
)
from .encoder import build_level_geometry, encode_features, init_level
from .pointcloud import PointCloud


@dataclass
class ModelGeometry:
    """Every coordinate-only byproduct of one cloud: FPS/grouping per level
    and the interpolation targets of each UT step. Depends on coords alone,
    so it is reused across parameter updates and finite-difference evals."""

    levels: list            # N_LEVELS LevelGeometry
    interp: list            # N_LEVELS (indices, weights) pairs, coarsest first


class _NoDraw:
    """The generator's stand-in when weights are given: shapes, no draws, no memory."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(np.float64(0.0), size)


class PSFormer:
    """Parameter container plus forward pass. Parameters exist only for
    enabled stages, so ablated variants have genuinely smaller models.
    Weights are drawn from `seed` (default: the config's), or adopted, not
    copied, from `weights`, a name -> array map as `parameters()` names them."""

    def __init__(self, config: ModelConfig, seed: int | None = None,
                 weights: dict | None = None):
        config.validate()
        self.config = config
        m = config.model
        if weights is not None and seed is not None:
            raise ContractError("PSFormer takes a seed or weights, not both")
        rng = (np.random.default_rng(m.seed if seed is None else seed)
               if weights is None else _NoDraw())

        widths = config.level_widths
        d_in = 9
        self.level_params = []
        for d_out in widths:
            self.level_params.append(init_level(
                rng, d_in, d_out, use_fn=m.use_fn, use_psi_pre=m.use_psi_pre,
                use_psi_post=m.use_psi_post))
            d_in = d_out

        d_dec = widths[0]
        stem_w = glorot(rng, 9, d_dec)
        stem_b = Tensor(np.zeros(d_dec), requires_grad=True)
        uppers = widths[::-1]                    # 5, 4, 3, 2, 1
        skips = widths[-2::-1] + [d_dec]         # 4, 3, 2, 1, stem
        uts = [init_ut(rng, du, ds, use_trans=m.use_ut)
               for du, ds in zip(uppers, skips)]
        self.dec_params = DecoderParams(stem_w=stem_w, stem_b=stem_b, uts=uts)

        self.mca_params = init_mca(rng, widths, m.compress_dim) if m.use_mca else None
        head_in = d_dec + (config.context_width if m.use_mca else 0)
        self.head_params = init_head(rng, head_in, d_dec)
        if weights is None:
            return
        params = self.parameters()
        missing = sorted(set(params) - set(weights))
        extra = sorted(set(weights) - set(params))
        if missing or extra:
            raise ContractError(
                f"parameter set mismatch: missing {missing}, unexpected {extra}")
        for name, p in params.items():
            arr = np.require(weights[name], np.float64, "W")
            if arr.shape != p.data.shape:
                raise ContractError(
                    f"parameter {name}: shape {arr.shape} != expected {p.data.shape}")
            p.data = arr

    # parameters ---------------------------------------------------------

    def parameters(self) -> dict:
        """Stable name -> Tensor mapping over every trainable parameter."""
        out = {}
        for i, p in enumerate(self.level_params, start=1):
            out.update(p.named(f"enc{i}"))
        out.update(self.dec_params.named())
        if self.mca_params is not None:
            out.update(self.mca_params.named())
        out.update(self.head_params.named())
        return out

    # geometry -----------------------------------------------------------

    def build_geometry(self, cloud: PointCloud) -> ModelGeometry:
        scale = cloud.extent if cloud.extent > 0 else 1.0
        geoms, coords_chain = [], []
        coords = cloud.coords
        for spec in self.config.levels:
            g = build_level_geometry(coords, spec, radius_scale=scale)
            geoms.append(g)
            coords = coords[g.centroid_idx]
            coords_chain.append(coords)
        dsts = coords_chain[-2::-1] + [cloud.coords]
        srcs = coords_chain[::-1]
        interp = [_kernels.three_nn(d, s) for s, d in zip(srcs, dsts)]
        return ModelGeometry(levels=geoms, interp=interp)

    # forward ------------------------------------------------------------

    def forward(self, cloud: PointCloud, geometry: ModelGeometry) -> Tensor:
        """(N,) saliency logits of cloud; geometry is build_geometry(cloud)."""
        features9 = Tensor(cloud.features9())
        levels = encode_features(cloud.coords, features9,
                                 self.level_params, geometry.levels)
        feats = decode(levels, features9, self.dec_params, geometry.interp)
        ctx = mca(levels, self.mca_params) if self.mca_params is not None else None
        return predict_head(feats, ctx, self.head_params)
