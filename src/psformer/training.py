"""Training loop, Adam optimizer, synthetic scene generation, evaluation
helpers, and the ablation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _pool
from .autodiff import ContractError, Tensor, backward, bce_with_logits, no_grad, sigmoid_data
from .config import ABLATION_FLAGS, DataSection, ModelConfig
from .metrics import MetricsReport, average_reports, score
from .model import PSFormer
from .pointcloud import PointCloud, normalize_cloud


class Adam(object):
    """Standard bias-corrected Adam over a name -> Tensor parameter dict."""

    def __init__(self, params: dict, lr: float = 5e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ContractError(f"Adam lr must be >= 0, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update of every parameter, after checking every gradient's
        shape. The moments are updated in place; each parameter gets a new
        array. A large model's parameters are updated in two groups of about
        equal size, one per thread (_pool), with every array a group writes
        allocated here, on the calling thread. Each parameter's arithmetic
        is the textbook expression's, op for op."""
        items = list(self.params.items())
        for k, p in items:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ContractError(
                    f"Adam: gradient shape {p.grad.shape} != parameter shape "
                    f"{p.data.shape} for {k}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        # the first group ends where the running size reaches half the total
        sizes = np.cumsum([0] + [p.data.size for _, p in items])
        groups = _pool.parts(len(items), int(sizes[-1]),
                             at=int(np.searchsorted(sizes, sizes[-1] / 2)))
        jobs = [([(k, p, np.empty_like(p.data)) for k, p in items[group]],
                 np.empty(max((p.data.size for _, p in items[group]), default=0)))
                for group in groups]

        def update(job):
            params, scratch = job
            for k, p, new in params:
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                m, v = self.m[k], self.v[k]
                s = scratch[:new.size].reshape(new.shape)
                # m = beta1 * m + (1 - beta1) * g
                np.multiply(g, 1.0 - self.beta1, out=new)
                np.multiply(m, self.beta1, out=m)
                np.add(m, new, out=m)
                # v = beta2 * v + (1 - beta2) * (g * g)
                np.multiply(g, g, out=new)
                np.multiply(new, 1.0 - self.beta2, out=new)
                np.multiply(v, self.beta2, out=v)
                np.add(v, new, out=v)
                # p - lr * (m / b1t) / (sqrt(v / b2t) + eps)
                np.divide(m, b1t, out=new)
                np.multiply(new, self.lr, out=new)
                np.divide(v, b2t, out=s)
                np.sqrt(s, out=s)
                np.add(s, self.eps, out=s)
                np.divide(new, s, out=new)
                np.subtract(p.data, new, out=new)
                p.data = new

        _pool.run(update, jobs)

    def load_state(self, state: dict) -> None:
        if set(state["m"]) != set(self.m) or set(state["v"]) != set(self.v):
            raise ContractError("Adam state does not match the parameter set")
        self.t = int(state["t"])
        for k in self.m:
            for moment in ("m", "v"):
                got = np.shape(state[moment][k])
                if got != self.m[k].shape:
                    raise ContractError(f"Adam state shape mismatch for {k}: "
                                        f"{moment} {got} != {self.m[k].shape}")
            self.m[k] = np.array(state["m"][k], dtype=np.float64)
            self.v[k] = np.array(state["v"][k], dtype=np.float64)


# synthetic scenes --------------------------------------------------------

_PALETTE = np.array([
    [0.9, 0.1, 0.1],
    [0.1, 0.1, 0.9],
    [0.1, 0.8, 0.1],
    [0.9, 0.8, 0.1],
    [0.8, 0.1, 0.8],
    [0.1, 0.8, 0.8],
])


def _quantize_colors(colors: np.ndarray) -> np.ndarray:
    """Snap to the uint8 grid so PLY round-trips reproduce colors exactly."""
    return np.round(np.clip(colors, 0.0, 1.0) * 255.0) / 255.0


def _object_points(rng: np.random.Generator, kind: str, count: int) -> np.ndarray:
    # Objects sit low, partially embedded in the plane, so height alone does
    # not separate them; color-against-context carries most of the signal.
    center = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                       rng.uniform(0.03, 0.12)])
    if kind == "sphere":
        r = rng.uniform(0.05, 0.11)
        dirs = rng.normal(size=(count, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = r * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / 3.0)
        return center + dirs * radii
    if kind == "box":
        half = rng.uniform(0.04, 0.1, size=3)
        return center + rng.uniform(-1.0, 1.0, size=(count, 3)) * half
    # blob: anisotropic gaussian cluster
    scales = rng.uniform(0.02, 0.06, size=3)
    return center + rng.normal(size=(count, 3)) * scales


def gen_synthetic_scene(seed: int, cfg: DataSection) -> PointCloud:
    """Deterministic labeled scene: a noisy ground plane in a muted per-scene
    tone plus 1-3 raised objects in saturated colors; object points are
    salient. The background tone varies scene to scene, so saliency cannot be
    read off a point's color alone. Regimes: default (one or two mid-size
    objects), small (single object, at most 3% of points), multi (two or
    three objects)."""
    n = cfg.scene_points
    if n < 64:
        raise ContractError(f"scenes need at least 64 points, got {n}")
    rng = np.random.default_rng(seed)

    if cfg.regime == "small":
        counts = [max(1, int(n * 0.03 * rng.uniform(0.5, 1.0)))]
    elif cfg.regime == "multi":
        k = int(rng.integers(2, 4))
        counts = [int(n * rng.uniform(0.05, 0.12)) for _ in range(k)]
    else:
        k = int(rng.integers(1, 3))
        counts = [int(n * rng.uniform(0.08, 0.2)) for _ in range(k)]

    n_obj = sum(counts)
    n_bg = n - n_obj
    bg = np.empty((n_bg, 3))
    bg[:, 0] = rng.uniform(0.0, 1.0, size=n_bg)
    bg[:, 1] = rng.uniform(0.0, 1.0, size=n_bg)
    bg[:, 2] = rng.normal(0.0, 0.012, size=n_bg)
    # The tone ranges over most of color space, so some scenes have
    # palette-like backgrounds and no fixed color is salient everywhere.
    bg_tone = rng.uniform(0.05, 0.95, size=3)
    bg_col = bg_tone + rng.uniform(-0.05, 0.05, size=(n_bg, 3))

    kinds = ["sphere", "box", "blob"]
    parts, cols = [bg], [bg_col]
    # Objects wear whichever palette entries contrast most with this scene's
    # background tone, drawn without replacement.
    contrast = np.abs(_PALETTE - bg_tone).sum(axis=1)
    color_order = np.argsort(-contrast)
    for i, count in enumerate(counts):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        pts = _object_points(rng, kind, count)
        color = _PALETTE[color_order[i % len(_PALETTE)]]
        parts.append(pts)
        cols.append(np.tile(color, (count, 1)) + rng.uniform(-0.03, 0.03, size=(count, 3)))

    coords = np.concatenate(parts, axis=0)
    colors = _quantize_colors(np.concatenate(cols, axis=0))
    labels = np.concatenate([np.zeros(n_bg, dtype=bool), np.ones(n_obj, dtype=bool)])
    perm = rng.permutation(n)
    return normalize_cloud(coords[perm], colors[perm], labels[perm])


def make_scenes(cfg: DataSection, count: int, seed0: int):
    return [gen_synthetic_scene(seed0 + i, cfg) for i in range(count)]


# training / evaluation ----------------------------------------------------

@dataclass
class TrainResult:
    losses: list = field(default_factory=list)      # one mean loss per epoch
    train_metrics: MetricsReport | None = None
    stopped_early: bool = False


def _scene_loss(model: PSFormer, cloud: PointCloud, geometry) -> Tensor:
    return bce_with_logits(model.forward(cloud, geometry=geometry),
                           cloud.labels.astype(np.float64))


def eval_model(model: PSFormer, scenes, geometries, name: str = "eval") -> MetricsReport:
    """metrics.score of one forward per scene; geometries[i] is
    model.build_geometry(scenes[i])."""
    with no_grad():
        views = [(sigmoid_data(model.forward(cloud, geom).data), cloud.labels)
                 for cloud, geom in zip(scenes, geometries, strict=True)]
    return score(views, model.config.model, name=name)


def train_model(model: PSFormer, scenes, optimizer: Adam | None = None,
                epochs: int | None = None, log_fn=None,
                shuffle_seed: int = 0) -> TrainResult:
    """Minimize mean BCE over the scenes for `epochs` more epochs. Scene
    geometry is computed once and reused every epoch (it depends only on
    coordinates). Early stop when the configured IoU/MAE targets are both
    met at an eval probe. A non-finite batch loss raises ContractError
    before it reaches the gradients, the optimizer state or the parameters.

    An optimizer that has already stepped resumes the run: the epochs it
    completed are optimizer.t // ceil(len(scenes) / batch size), their
    shuffles are drawn and discarded, and epochs are numbered from there for
    log_fn, the eval probes and errors. So a run resumed from a checkpoint
    repeats the uninterrupted run's epochs."""
    if not scenes:
        raise ContractError("train_model needs at least one scene")
    for i, cloud in enumerate(scenes):
        if cloud.labels is None:
            raise ContractError(f"training scene {i} has no labels")
    cfg = model.config
    if optimizer is None:
        optimizer = Adam(model.parameters(), lr=cfg.optim.lr, beta1=cfg.optim.beta1,
                         beta2=cfg.optim.beta2, eps=cfg.optim.eps)
    epochs = cfg.train.epochs if epochs is None else epochs
    batch = max(1, cfg.optim.batch_size)
    geoms = [model.build_geometry(c) for c in scenes]
    order_rng = np.random.default_rng(shuffle_seed)
    first = optimizer.t // math.ceil(len(scenes) / batch)
    for _ in range(first):
        order_rng.permutation(len(scenes))

    result = TrainResult()
    target_iou = cfg.train.target_iou
    last = first + epochs - 1
    for epoch in range(first, first + epochs):
        order = order_rng.permutation(len(scenes))
        epoch_loss = 0.0
        for lo in range(0, len(order), batch):
            idx = order[lo:lo + batch]
            optimizer.zero_grad()
            loss = None
            for i in idx:
                li = _scene_loss(model, scenes[i], geoms[i])
                loss = li if loss is None else loss + li
            loss = loss * Tensor(1.0 / len(idx))
            value = loss.item()
            if not np.isfinite(value):
                raise ContractError(
                    f"train_model: non-finite loss {value} at epoch {epoch + 1}")
            backward(loss)
            optimizer.step()
            epoch_loss += value * len(idx)
        epoch_loss /= len(scenes)
        result.losses.append(epoch_loss)

        probe = (cfg.train.eval_every > 0 and (epoch + 1) % cfg.train.eval_every == 0)
        if probe or epoch == last:
            report = eval_model(model, scenes, geoms, name="train")
            result.train_metrics = report
            if log_fn:
                log_fn(epoch + 1, epoch_loss, report)
            if (target_iou > 0 and report.iou >= target_iou
                    and report.mae <= cfg.train.target_mae):
                result.stopped_early = True
                break
        elif log_fn:
            log_fn(epoch + 1, epoch_loss, None)
    return result


# ablation harness ---------------------------------------------------------

@dataclass
class AblationRow:
    name: str
    report: MetricsReport            # averaged over seeds
    per_seed_iou: list = field(default_factory=list)
    inverted: bool = False           # set on variants that beat the full model


def run_ablation(base_cfg: ModelConfig, flags, seeds=(0, 1, 2),
                 log_fn=None):
    """Train the full model and each single-stage-removed variant on
    identical synthetic data and seeds; average metrics per variant.

    Returns rows in canonical order (ablated variants first, full model
    last), with inversions flagged rather than suppressed.
    """
    flags = list(flags)
    for f in flags:
        if f not in ABLATION_FLAGS:
            raise ContractError(
                f"unknown ablation flag {f!r}; valid: {', '.join(ABLATION_FLAGS)}")
    variants = [(f"no_{f}", base_cfg.ablated([f])) for f in ABLATION_FLAGS if f in flags]
    variants.append(("full", base_cfg))

    train_scenes = make_scenes(base_cfg.data, base_cfg.data.train_scenes,
                               base_cfg.data.seed)
    test_scenes = make_scenes(base_cfg.data, base_cfg.data.test_scenes,
                              base_cfg.data.seed + 10_000)

    rows = []
    for name, cfg in variants:
        reports, ious = [], []
        for seed in seeds:
            model = PSFormer(cfg, seed=seed)
            train_model(model, train_scenes, shuffle_seed=seed)
            report = eval_model(model, test_scenes,
                                [model.build_geometry(c) for c in test_scenes], name=name)
            reports.append(report)
            ious.append(report.iou)
            if log_fn:
                log_fn(name, seed, report)
        rows.append(AblationRow(name=name, report=average_reports(reports, name),
                                per_seed_iou=ious))
    full_iou = rows[-1].report.iou
    for row in rows[:-1]:
        row.inverted = row.report.iou > full_iou
    return rows
