"""Feature normalization: centroid-relative standardization of grouped
features with learnable per-channel affine parameters.

One scalar standard deviation per level per cloud, taken over every group,
member, and channel against each group's centroid feature. This is per-cloud
normalization, not batch normalization; no running statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Tensor, _accum, _make, _save

EPS = 1e-5   # keeps the denominator positive on a level of zero deviation


@dataclass
class FNParams:
    alpha: Tensor   # (d,), starts at 1
    beta: Tensor    # (d,), starts at 0

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.alpha": self.alpha, f"{prefix}.beta": self.beta}


def init_fn(d: int) -> FNParams:
    return FNParams(
        alpha=Tensor(np.ones(d), requires_grad=True),
        beta=Tensor(np.zeros(d), requires_grad=True),
    )


def group_std(diff: np.ndarray) -> float:
    """sigma: the RMS of the (M, K, d) deviations of members from their group's
    centroid feature. Padded members count, as in the fixed k-member sum."""
    if diff.size == 0:
        raise ContractError(f"group_std: empty grouped set {diff.shape}")
    return np.sqrt((diff * diff).sum() * (1.0 / float(diff.size)))


def fn_apply(members: Tensor, centroids: Tensor, params: FNParams) -> Tensor:
    """alpha * (f_ij - f_i) / (sigma + EPS) + beta for (M, K, d) members f_ij
    around centroid features f_i, as one node saving D = f_ij - f_i. Backward
    repeats the composed graph's ops (tests/unfused_ops.py), so gradients keep
    its bits; sigma's term, zero at sigma = 0, goes straight to f_ij and f_i."""
    m, _, d = members.shape
    diff = members - centroids.reshape(m, 1, d)
    dv = _save(diff)
    sigma = group_std(dv)
    den = sigma + EPS
    parents = (diff, members, centroids, params.alpha, params.beta)
    dn, mn, cn, an, bn = (t._node for t in parents)
    av = _save(params.alpha)

    def backward_fn(g):
        # In-place ops and negated sums give the same bits with fewer arrays.
        _accum(bn, g)
        gx = g * av
        gden = -(gx * dv / (den * den)).sum(axis=(0, 1, 2))
        _accum(dn, np.divide(gx, den, out=gx))
        _accum(an, dv / den * g)
        gsig = (gden * 0.5 / sigma if sigma > 0.0 else 0.0) * (1.0 / float(dv.size)) * dv
        _accum(mn, np.add(gsig, gsig, out=gsig))
        _accum(cn, -gsig.sum(axis=1))

    return _make(av * (dv / den) + params.beta.data, parents, backward_fn, "fn")
