"""Command-line entry points: train, eval, predict, gradcheck, gen-data.

Verbosity comes from PSF_LOG_LEVEL (error|info|debug, default info); logs go
to stderr, tables and reports to stdout. All commands return an exit code
instead of raising, so main() is safe to call in-process.
"""

from __future__ import annotations

import argparse
import glob
import logging
import math
import os
import sys

import numpy as np

from . import _pool
from ._kernels import ACTIVE_BACKEND, fps_indices, nearest_index
from .autodiff import ContractError, bce_with_logits, grad_check, no_grad, sigmoid_data
from .checkpoint import (CheckpointError, model_from_checkpoint,
                         save_checkpoint)
from .config import ABLATION_FLAGS, ConfigError, ModelConfig, load_config
from .metrics import (adaptive_threshold, average_reports, check_threshold,
                      clamp_threshold, evaluate, format_table, write_report)
from .model import PSFormer
from .plyio import PlyParseError, parse_ply, write_ply
from .pointcloud import PointCloud, normalize_cloud
from .training import Adam, gen_synthetic_scene, make_scenes, run_ablation, train_model

log = logging.getLogger("psformer")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class CLIError(Exception):
    """User-facing command error; message printed, exit code 1."""


def _setup_logging() -> None:
    name = os.environ.get("PSF_LOG_LEVEL", "info").strip().lower()
    if name not in _LOG_LEVELS:
        raise CLIError(
            f"PSF_LOG_LEVEL must be one of error, info, debug; got {name!r}")
    if not log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(handler)
        log.propagate = False
    # The caller may have replaced sys.stderr since the last main(). Plain
    # assignment, not setStream(): that flushes the old stream, which may be
    # closed by now.
    log.handlers[0].stream = sys.stderr
    log.setLevel(_LOG_LEVELS[name])


def _log_environment() -> None:
    """One key=value line on what computes, logged first by every command: the
    kernel backend, numpy, and the worker threads psformer adds (_pool)."""
    log.info("backend=%s numpy=%s workers=%d", ACTIVE_BACKEND, np.__version__,
             _pool.WORKERS)


def _config_from(path: str | None) -> ModelConfig:
    return load_config(path) if path else ModelConfig.default()


def _load_scene_dir(path: str) -> list:
    """All .ply files under path (or a single file), parsed and sorted; each
    must carry labels."""
    if os.path.isfile(path):
        files = [path]
    else:
        if not os.path.isdir(path):
            raise CLIError(f"data path {path!r} does not exist")
        files = sorted(glob.glob(os.path.join(path, "*.ply")))
    if not files:
        raise CLIError(f"no .ply files in {path!r}")
    scenes = []
    for f in files:
        cloud = parse_ply(f)
        if cloud.labels is None:
            raise CLIError(f"{f}: no label property; labeled data required")
        scenes.append(cloud)
    return scenes


# train ---------------------------------------------------------------------

def cmd_train(config_path: str | None, out_dir: str, seed: int | None = None,
              resume: str | None = None, ablate: str | None = None) -> int:
    cfg = _config_from(config_path)
    if seed is not None:
        cfg.model.seed = seed
    os.makedirs(out_dir, exist_ok=True)

    if ablate is not None:
        flags = ABLATION_FLAGS if ablate.strip() == "all" else \
            tuple(f.strip() for f in ablate.split(",") if f.strip())
        rows = run_ablation(cfg, flags,
                            log_fn=lambda name, s, r: log.info(
                                "ablation %s seed=%d iou=%.4f", name, s, r.iou))
        table = format_table([r.report for r in rows])
        inverted = [r.name for r in rows if r.inverted]
        print(table)
        if inverted:
            print("inversions (variant beat full): " + ", ".join(inverted))
        write_report([r.report for r in rows], os.path.join(out_dir, "ablation.txt"))
        log.info("ablation report written to %s", os.path.join(out_dir, "ablation.txt"))
        return 0

    if resume is not None:
        model, optim_state, step = model_from_checkpoint(resume)
        cfg = model.config
        log.info("resumed %s at step %d (checkpoint config takes over)", resume, step)
    else:
        model = PSFormer(cfg)
        optim_state = None
    optimizer = Adam(model.parameters(), lr=cfg.optim.lr, beta1=cfg.optim.beta1,
                     beta2=cfg.optim.beta2, eps=cfg.optim.eps)
    if optim_state is not None:
        optimizer.load_state(optim_state)

    if cfg.data.dir:
        scenes = _load_scene_dir(cfg.data.dir)
        log.info("training on %d labeled patches from %s", len(scenes), cfg.data.dir)
    else:
        scenes = make_scenes(cfg.data, cfg.data.train_scenes, cfg.data.seed)
        log.info("training on %d synthetic scenes (seed %d)", len(scenes),
                 cfg.data.seed)

    log_path = os.path.join(out_dir, "train.log")
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")

    with open(log_path, "a", encoding="utf-8") as log_file:
        def on_epoch(epoch, loss, report):
            line = f"epoch={epoch} loss={loss:.17g}"
            if report is not None:
                line += (f" iou={report.iou:.17g} mae={report.mae:.17g}"
                         f" f_measure={report.f_measure:.17g}")
            log_file.write(line + "\n")
            log_file.flush()
            log.debug("%s", line)
            every = cfg.train.checkpoint_every
            if every > 0 and epoch % every == 0:
                save_checkpoint(os.path.join(out_dir, f"checkpoint_epoch{epoch:04d}.bin"),
                                model, optimizer)

        result = train_model(model, scenes, optimizer=optimizer,
                             shuffle_seed=cfg.data.seed, log_fn=on_epoch)

    save_checkpoint(ckpt_path, model, optimizer)
    summary = f"trained {len(result.losses)} epochs"
    if result.losses:
        summary += f", final loss {result.losses[-1]:.6g}"
    if result.train_metrics is not None:
        summary += (f", train iou {result.train_metrics.iou:.4f}, "
                    f"mae {result.train_metrics.mae:.4f}")
    if result.stopped_early:
        summary += " (early stop: targets met)"
    log.info("%s", summary)
    log.info("checkpoint written to %s", ckpt_path)
    print(summary)
    return 0


# eval ------------------------------------------------------------------------

def cmd_eval(checkpoint_path: str, data_path: str, out: str | None = None,
             threshold: float | None = None) -> int:
    """Scores what `predict` writes, predict_cloud's probabilities, per scene
    at `threshold`, else the model's adaptive or fixed threshold."""
    if threshold is not None:
        check_threshold(threshold)
    model, _, _ = model_from_checkpoint(checkpoint_path)
    adaptive = threshold is None and model.config.model.adaptive_threshold
    fixed = model.config.model.threshold if threshold is None else threshold
    reports = []
    for cloud in _load_scene_dir(data_path):
        probs = predict_cloud(model, cloud)
        thr = clamp_threshold(adaptive_threshold(probs)) if adaptive else fixed
        reports.append(evaluate(probs, cloud.labels, thr))
    report = average_reports(reports, "eval")
    print(report.line())
    if out:
        write_report([report], out)
        log.info("report written to %s", out)
    return 0


# predict ---------------------------------------------------------------------

def predict_cloud(model: PSFormer, cloud: PointCloud) -> np.ndarray:
    """Per-point saliency for a cloud of any size.

    The cloud is split into ceil(n / patch size) chunks seeded by
    farthest-point sampling: every point joins its nearest seed, chunks too
    small for the encoder merge into the largest one, and each chunk is
    normalized and predicted independently. A cloud within the patch size is
    one chunk of all its points. Results reassemble by original index, so
    coincident points (identical chunk assignment and features) always get
    equal saliency. No autodiff graph is built.
    """
    patch = model.config.data.patch_size
    k = math.ceil(cloud.n / patch)
    seeds = cloud.coords[fps_indices(cloud.coords, k)]
    assign = nearest_index(cloud.coords, seeds)
    chunks = [np.flatnonzero(assign == j) for j in range(k)]
    chunks = [c for c in chunks if c.size]

    m_min = model.config.levels[0].m
    while len(chunks) > 1 and min(c.size for c in chunks) < m_min:
        chunks.sort(key=len)
        small = chunks.pop(0)
        chunks[-1] = np.concatenate([chunks[-1], small])

    log.debug("predict: %d points in %d chunks (patch %d)", cloud.n,
              len(chunks), patch)
    out = np.empty(cloud.n, dtype=np.float64)
    with no_grad():
        for idx in chunks:
            sub = normalize_cloud(cloud.coords[idx], cloud.colors[idx])
            out[idx] = sigmoid_data(model.forward(sub, model.build_geometry(sub)).data)
    return out


def cmd_predict(checkpoint_path: str, ply_in: str, ply_out: str) -> int:
    model, _, _ = model_from_checkpoint(checkpoint_path)
    cloud = parse_ply(ply_in)
    probs = predict_cloud(model, cloud)
    write_ply(cloud, ply_out, probabilities=probs)
    log.info("wrote %d-point heatmap to %s", cloud.n, ply_out)
    return 0


# gradcheck --------------------------------------------------------------------

def cmd_gradcheck(config_path: str | None = None, seed: int | None = None,
                  limit: int = 0) -> int:
    """Finite-difference check of every parameter group on a 64-point model.

    Architecture sizes are forced tiny so the full sweep stays fast; ablation
    flags from the config are honored. seed picks the scene (default 7);
    limit > 0 checks only that many elements per parameter (smoke mode).

    The default seeds pick a well-conditioned evaluation point: every relu
    input sits clear of zero (a preactivation within the 1e-5 step makes the
    central difference straddle the kink) and no attention softmax is so
    saturated that its score weights couple to the loss below the roundoff
    floor of the central difference.
    """
    base = _config_from(config_path)
    cfg = ModelConfig.tiny()
    for flag in ABLATION_FLAGS:
        setattr(cfg.model, f"use_{flag}", getattr(base.model, f"use_{flag}"))
    cfg.model.seed = base.model.seed if config_path is not None else 5

    scene = gen_synthetic_scene(7 if seed is None else seed, cfg.data)
    model = PSFormer(cfg)
    geometry = model.build_geometry(scene)
    labels = scene.labels.astype(np.float64)

    def objective():
        return bce_with_logits(model.forward(scene, geometry), labels)

    report = grad_check(objective, model.parameters(), max_elems=limit)
    for line in report.lines():
        print(line)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {verdict}: {len(report.per_param)} parameter groups, "
          f"max_rel_err={report.max_rel_error:.3e} tol={report.tol:g}")
    return 0 if report.passed else 1


# gen-data -----------------------------------------------------------------------

def cmd_gendata(config_path: str | None, out_dir: str, count: int,
                seed: int | None = None, binary: bool = False) -> int:
    cfg = _config_from(config_path)
    if count < 1:
        raise CLIError("gen-data: count must be >= 1")
    seed0 = cfg.data.seed if seed is None else seed
    os.makedirs(out_dir, exist_ok=True)
    for i in range(count):
        cloud = gen_synthetic_scene(seed0 + i, cfg.data)
        write_ply(cloud, os.path.join(out_dir, f"scene_{i:04d}.ply"),
                  binary=binary)
    log.info("wrote %d scenes to %s (seed %d)", count, out_dir, seed0)
    return 0


# entry point ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psformer",
        description="Point-cloud salient object detection: train, evaluate, "
                    "and run inference on PLY scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model (or run the ablation harness)")
    p.add_argument("--config", help="config file; omitted = built-in defaults")
    p.add_argument("--out", default="runs/train", help="output directory")
    p.add_argument("--seed", type=int, help="override model init seed")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--ablate", help="comma-separated stage flags, or 'all'")

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled PLY data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="PLY file or directory")
    p.add_argument("--out", help="write the metrics report here")
    p.add_argument("--threshold", type=float, help="fixed binarization threshold")

    p = sub.add_parser("predict", help="write a saliency heatmap PLY")
    p.add_argument("input", help="input .ply")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output .ply")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--config", help="ablation flags are honored; sizes forced tiny")
    p.add_argument("--seed", type=int, help="scene seed (default 7)")
    p.add_argument("--limit", type=int, default=0,
                   help="elements per parameter to probe; 0 = all")

    p = sub.add_parser("gen-data", help="write synthetic labeled scenes as PLY")
    p.add_argument("--config", help="controls scene size and regime")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, help="base scene seed")
    p.add_argument("--binary", action="store_true", help="binary instead of ASCII")

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
    except CLIError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        _log_environment()
        if args.command == "train":
            return cmd_train(args.config, args.out, seed=args.seed,
                             resume=args.resume, ablate=args.ablate)
        if args.command == "eval":
            return cmd_eval(args.checkpoint, args.data, out=args.out,
                            threshold=args.threshold)
        if args.command == "predict":
            return cmd_predict(args.checkpoint, args.input, args.out)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.config, seed=args.seed, limit=args.limit)
        if args.command == "gen-data":
            return cmd_gendata(args.config, args.out, args.count,
                               seed=args.seed, binary=args.binary)
        raise CLIError(f"unknown command {args.command!r}")
    except (CLIError, ConfigError, ContractError, PlyParseError,
            CheckpointError, OSError) as e:
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
