"""Feature normalization: centroid-relative standardization of grouped
features with learnable per-channel affine parameters.

One scalar standard deviation per level per cloud, taken over every group,
member, and channel against each group's centroid feature. This is per-cloud
normalization, not batch normalization; no running statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Tensor, sqrt


@dataclass
class FNParams:
    alpha: Tensor   # (d,), starts at 1
    beta: Tensor    # (d,), starts at 0
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ContractError(f"FN epsilon must be positive, got {self.epsilon}")

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.alpha": self.alpha, f"{prefix}.beta": self.beta}


def init_fn(d: int, epsilon: float = 1e-5) -> FNParams:
    return FNParams(
        alpha=Tensor(np.ones(d), requires_grad=True),
        beta=Tensor(np.zeros(d), requires_grad=True),
        epsilon=epsilon,
    )


def group_std(members: Tensor, centroids: Tensor) -> Tensor:
    """sigma = sqrt(mean over all (group, member, channel) of (f_ij - f_i)^2),
    deviations of the (M, K, d) members against each group's (M, d) centroid
    feature. Padded members count, consistent with the fixed k-member sum."""
    m, k, d = members.shape
    if m < 1 or k < 1 or d < 1:
        raise ContractError(f"group_std: empty grouped set {(m, k, d)}")
    diff = members - centroids.reshape(m, 1, d)
    return sqrt((diff * diff).mean())


def fn_apply(members: Tensor, centroids: Tensor, params: FNParams) -> Tensor:
    """alpha * (f_ij - f_i) / (sigma + eps) + beta for every (M, K, d) member
    f_ij of the group around centroid feature f_i."""
    m, _, d = members.shape
    sigma = group_std(members, centroids)
    diff = members - centroids.reshape(m, 1, d)
    return params.alpha * (diff / (sigma + params.epsilon)) + params.beta
