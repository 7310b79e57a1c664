"""Scene-context decoder: upsample-and-attend blocks back to full resolution,
max-pooled multi-level scene context, and the per-point saliency head.

Each UT step interpolates coarser features onto the finer level's coords,
concatenates with that level's features, fuses linearly to the finer width,
and runs a transformer over all points at that resolution. The MCA context
compresses every encoder level to a shared width, max-pools each over its
points, and concatenates the five vectors. The head broadcasts the context
onto every point and applies a two-layer MLP to one logit per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import TransParams, glorot, init_trans, trans_block
from .autodiff import (
    ContractError,
    Tensor,
    concat,
    gather_rows,
    group_max_pool,
    interp_apply,
    relu,
)


@dataclass
class UTParams:
    fuse_w: Tensor                 # (d_up + d_skip, d_skip)
    fuse_b: Tensor                 # (d_skip,)
    trans: TransParams | None = None   # None disables the transformer (ablation)

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.fuse.w": self.fuse_w, f"{prefix}.fuse.b": self.fuse_b}
        if self.trans is not None:
            out.update(self.trans.named(f"{prefix}.trans"))
        return out


@dataclass
class DecoderParams:
    stem_w: Tensor        # (9, d_dec), lifts the raw input channels
    stem_b: Tensor        # (d_dec,)
    uts: list             # 5 UTParams, coarsest-to-finest order

    def named(self) -> dict:
        out = {"stem.w": self.stem_w, "stem.b": self.stem_b}
        for i, ut in enumerate(self.uts, start=1):
            out.update(ut.named(f"ut{i}"))
        return out


@dataclass
class MCAParams:
    w: list   # per level, (d_level, compress_dim)
    b: list   # per level, (compress_dim,)

    def named(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.w, self.b), start=1):
            out[f"mca{i}.w"] = w
            out[f"mca{i}.b"] = b
        return out


@dataclass
class HeadParams:
    w1: Tensor   # (d_point [+ context width], d_hidden)
    b1: Tensor
    w2: Tensor   # (d_hidden, 1)
    b2: Tensor

    def named(self) -> dict:
        return {"head.w1": self.w1, "head.b1": self.b1,
                "head.w2": self.w2, "head.b2": self.b2}


def init_ut(rng: np.random.Generator, d_up: int, d_skip: int,
            use_trans: bool = True) -> UTParams:
    return UTParams(
        fuse_w=glorot(rng, d_up + d_skip, d_skip),
        fuse_b=Tensor(np.zeros(d_skip), requires_grad=True),
        trans=init_trans(rng, d_skip) if use_trans else None,
    )


def init_mca(rng: np.random.Generator, level_widths, compress_dim: int) -> MCAParams:
    return MCAParams(
        w=[glorot(rng, d, compress_dim) for d in level_widths],
        b=[Tensor(np.zeros(compress_dim), requires_grad=True) for _ in level_widths],
    )


def init_head(rng: np.random.Generator, d_in: int, d_hidden: int) -> HeadParams:
    return HeadParams(
        w1=glorot(rng, d_in, d_hidden),
        b1=Tensor(np.zeros(d_hidden), requires_grad=True),
        w2=glorot(rng, d_hidden, 1),
        b2=Tensor(np.zeros(1), requires_grad=True),
    )


def ut_block(upper: Tensor, skip: Tensor, params: UTParams, interp: tuple) -> Tensor:
    """Trans(C(U(upper), skip)) at the skip resolution. interp is the
    (indices, weights) pair of the upsampling step from upper's points onto
    skip's points (_kernels.three_nn, as PSFormer.build_geometry makes it)."""
    idx, w = interp
    up = interp_apply(upper, idx, w)
    fused = concat([up, skip]) @ params.fuse_w + params.fuse_b
    if params.trans is not None:
        fused = trans_block(fused, params.trans)
    return fused


def decode(levels, features9: Tensor, params: DecoderParams,
           interp_chain) -> Tensor:
    """Chain ut_block from the coarsest level down through level 1, then one
    more step onto the original points with the lifted (N, 9) input
    features9 as the final skip; interp_chain holds each step's
    (indices, weights), coarsest first. Returns (N, d_dec) per-point
    features."""
    if not len(levels) == len(params.uts) == len(interp_chain):
        raise ContractError(
            f"decode: {len(levels)} levels, {len(params.uts)} UT blocks and "
            f"{len(interp_chain)} interpolation steps")
    stem = features9 @ params.stem_w + params.stem_b
    skips = list(levels[:-1])[::-1] + [stem]
    current = levels[-1]
    for skip, ut, interp in zip(skips, params.uts, interp_chain):
        current = ut_block(current, skip, ut, interp)
    return current


def mca(levels, params: MCAParams) -> Tensor:
    """Per level: one linear + ReLU to the shared compress width, channelwise
    max over that level's points, pooled as one group of all of them;
    concatenate the five rows in level order into the (1, 5 * compress_dim)
    scene context."""
    if len(levels) != len(params.w):
        raise ContractError(f"mca: {len(levels)} levels but {len(params.w)} MLPs")
    pieces = []
    for level, w, b in zip(levels, params.w, params.b):
        h = relu(level @ w + b)
        pieces.append(group_max_pool(h.reshape(1, *h.shape), [h.shape[0]]))
    return concat(pieces)


def predict_head(point_features: Tensor, context: Tensor | None,
                 params: HeadParams) -> Tensor:
    """Broadcast-concat the (1, c) scene context onto every point row, then a
    two-layer MLP to the (N,) logits, one per point. context=None drops the
    context columns (the no-context ablation); parameter widths must agree."""
    f = point_features
    if context is not None:
        f = concat([f, gather_rows(context, np.zeros(f.shape[0], dtype=np.int64))])
    h = relu(f @ params.w1 + params.b1)
    return (h @ params.w2 + params.b2).reshape(-1)
