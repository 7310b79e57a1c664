"""The benchmark's workloads: inputs made from a seed, a set-up the runner
times, and one op with its output checks.

An op calls the library through module attributes (``autodiff.backward``,
``cli.predict_cloud``, ``plyio.parse_ply``...) so the tracer's wrappers see
it. The checks run after the op's clock stops and use functions bound at
import, before any wrapper exists, so they add neither time nor spans.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from psformer import autodiff, checkpoint, cli, plyio, training
from psformer.autodiff import Tensor
from psformer.checkpoint import save_checkpoint
from psformer.config import ModelConfig
from psformer.model import PSFormer
from psformer.plyio import parse_ply as parse_ply_untraced
from psformer.plyio import write_ply as write_ply_untraced
from psformer.pointcloud import normalize_cloud
from psformer.training import Adam, gen_synthetic_scene


class OpFailed(Exception):
    """An op's output failed a check."""


@dataclass
class OpResult:
    seconds: float
    output: bytes               # the op's result, for the run's digest
    graph: tuple = (0, 0)       # (nodes, bytes) reachable from the loss


def graph_size(root: Tensor) -> tuple:
    """Exact count and summed data bytes of the nodes reachable from root."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


def _scene_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


class TrainWorkload:
    """Adam steps over synthetic labeled scenes, as ``train_model`` runs them:
    geometry built once at set-up, batches drawn from a seeded shuffle."""

    # Training takes hundreds of steps per process, and the first few steps
    # grow the heap (page faults fall from ~190k to ~7k a step on
    # train_default), so two steps run before timing.
    warm_up_ops = 2
    digest_name = "loss_digest"     # of the first op's loss and updated parameters

    def __init__(self, preset: str, scenes: int, batch: int, seed: int,
                 setup_repeats: int):
        self.setup_repeats = setup_repeats     # setup_s is their median
        self.cfg = getattr(ModelConfig, preset)()
        self.cfg.optim.batch_size = batch
        self.seed = seed
        self.scenes = [gen_synthetic_scene(_scene_seed(seed, i), self.cfg.data)
                       for i in range(scenes)]
        self.scenes_per_op = batch
        self.points_per_op = batch * self.cfg.data.scene_points

    def setup(self) -> PSFormer:
        o = self.cfg.optim
        self.model = PSFormer(self.cfg, seed=self.seed)
        self.optimizer = Adam(self.model.parameters(), lr=o.lr, beta1=o.beta1,
                              beta2=o.beta2, eps=o.eps)
        self.geoms = [self.model.build_geometry(c) for c in self.scenes]
        self._order = np.random.default_rng(self.seed)
        self._pending = []
        return self.model

    def _next_batch(self) -> list:
        if not self._pending:
            perm = self._order.permutation(len(self.scenes))
            b = self.cfg.optim.batch_size
            self._pending = [perm[lo:lo + b] for lo in range(0, len(perm), b)]
        return self._pending.pop(0)

    def op(self, measure_graph: bool) -> OpResult:
        idx = self._next_batch()
        params = self.optimizer.params
        before = {k: p.data for k, p in params.items()}
        t0 = time.perf_counter()
        self.optimizer.zero_grad()
        loss = None
        for i in idx:
            li = training._scene_loss(self.model, self.scenes[i], self.geoms[i])
            loss = li if loss is None else loss + li
        loss = loss * Tensor(1.0 / len(idx))
        autodiff.backward(loss)
        self.optimizer.step()
        seconds = time.perf_counter() - t0
        graph = graph_size(loss) if measure_graph else (0, 0)
        value = loss.item()
        del loss, li          # free the graph before the next op

        if not math.isfinite(value):
            raise OpFailed(f"loss is {value}")
        for k, p in params.items():
            if p.grad is None or not np.isfinite(p.grad).all():
                raise OpFailed(f"parameter {k} has no finite gradient")
            if np.any(p.grad != 0.0) and np.array_equal(before[k], p.data):
                raise OpFailed(f"parameter {k} did not change")
        digest = hashlib.sha256(np.float64(value).tobytes())
        for p in params.values():
            digest.update(p.data.tobytes())
        return OpResult(seconds, digest.digest(), graph)


def make_room(seed: int, data):
    """Four synthetic scenes on a 2x2 floor, unlabeled, as a scanned room.
    A tile spans under 1.5 units and the tiles lie 3 units apart, so the
    four farthest-point seeds of ``predict_cloud`` land one in each tile,
    every point joins its own tile's seed, and each chunk is exactly one
    tile of ``scene_points`` points, whatever the seed."""
    coords, colors = [], []
    for i, (dx, dy) in enumerate(((0, 0), (3, 0), (0, 3), (3, 3))):
        tile = gen_synthetic_scene(_scene_seed(seed, i), data)
        coords.append(tile.coords + np.array([dx, dy, 0.0]))
        colors.append(tile.colors)
    return normalize_cloud(np.concatenate(coords), np.concatenate(colors))


def read_saliency(path: str) -> np.ndarray:
    """The saliency column of an ASCII heatmap PLY written by write_ply."""
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"end_header\n")
    props = [ln.split()[-1] for ln in head.decode("ascii").splitlines()
             if ln.startswith("property")]
    return np.loadtxt(io.BytesIO(body), usecols=props.index("saliency"), ndmin=1)


class PredictWorkload:
    """``psformer predict`` in-process on a binary PLY room: parse, predict
    in farthest-point-seeded chunks, write the ASCII heatmap."""

    scenes_per_op = 1
    # Each `psformer predict` is a fresh process that pays its first op.
    warm_up_ops = 0
    # A set-up is one checkpoint load, about 0.3 s; setup_s is the median.
    setup_repeats = 11
    digest_name = "prob_digest"     # of the first op's probabilities

    def __init__(self, seed: int, workdir: str):
        self.cfg = ModelConfig.default()
        self.seed = seed
        room = make_room(seed, self.cfg.data)   # four tiles of one patch each
        self.points_per_op = room.n
        self.in_path = os.path.join(workdir, "room.ply")
        self.out_path = os.path.join(workdir, "heat.ply")
        self.ckpt_path = os.path.join(workdir, "model.ckpt")
        write_ply_untraced(room, self.in_path, binary=True)
        # The checkpoint is an input, as the room is: `psformer predict`
        # only loads it, so only the load is timed.
        save_checkpoint(self.ckpt_path, PSFormer(self.cfg, seed=seed))
        self._first = None

    def setup(self) -> PSFormer:
        self.model, _, _ = checkpoint.model_from_checkpoint(self.ckpt_path)
        return self.model

    def op(self, measure_graph: bool) -> OpResult:
        t0 = time.perf_counter()
        cloud = plyio.parse_ply(self.in_path)
        probs = cli.predict_cloud(self.model, cloud)
        plyio.write_ply(cloud, self.out_path, probabilities=probs)
        seconds = time.perf_counter() - t0

        n = self.points_per_op
        if probs.shape != (n,):
            raise OpFailed(f"{probs.shape} probabilities for {n} points")
        if not (np.isfinite(probs).all() and (probs >= 0).all() and (probs <= 1).all()):
            raise OpFailed("a probability is not finite or lies outside [0, 1]")
        if parse_ply_untraced(self.out_path).n != n:
            raise OpFailed("heatmap re-parses with another vertex count")
        if not np.array_equal(read_saliency(self.out_path), probs):
            raise OpFailed("heatmap saliency differs from the predicted values")
        if self._first is not None and not np.array_equal(self._first, probs):
            raise OpFailed("same input, same model, different probabilities")
        self._first = probs
        return OpResult(seconds, probs.tobytes())


def make(name: str, seed: int, workdir: str):
    if name == "train_desk":
        return TrainWorkload("desk", scenes=8, batch=4, seed=seed, setup_repeats=11)
    if name == "train_default":
        return TrainWorkload("default", scenes=2, batch=1, seed=seed, setup_repeats=5)
    if name == "predict_room":
        return PredictWorkload(seed, workdir)
    raise KeyError(name)

