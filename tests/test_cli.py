"""Command-line surface: every verb end to end in-process, exit codes for
user errors, and the log/report files a run leaves behind."""

import io
import logging
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from psformer import _kernels, _pool
from psformer.autodiff import ContractError, sigmoid_data
from psformer.checkpoint import model_from_checkpoint, save_checkpoint
from psformer.cli import cmd_eval, cmd_gradcheck, main, predict_cloud
from psformer.config import DataSection, ModelConfig
from psformer.metrics import evaluate, parse_report
from psformer.model import PSFormer
from psformer.plyio import parse_ply, write_ply
from psformer.pointcloud import normalize_cloud
from psformer.training import gen_synthetic_scene


@pytest.fixture(autouse=True)
def _quiet_logs(monkeypatch):
    monkeypatch.setenv("PSF_LOG_LEVEL", "error")


def _write_config(tmp_path, extra=""):
    path = tmp_path / "tiny.cfg"
    path.write_text("preset=tiny\ntrain.epochs=3\ntrain.eval_every=0\n" + extra)
    return str(path)


def _tiny_checkpoint(tmp_path, seed=0):
    model = PSFormer(ModelConfig.tiny(), seed=seed)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    return path, model


# ------------------------------------------------------------ exit codes

def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


def test_bad_log_level_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("PSF_LOG_LEVEL", "chatty")
    assert main(["gen-data", "--out", "x"]) == 2
    assert "PSF_LOG_LEVEL" in capsys.readouterr().err


def test_errors_follow_a_replaced_stderr(tmp_path, monkeypatch):
    argv = ["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--data", str(tmp_path)]
    assert main(argv) == 1
    buf = io.StringIO()
    monkeypatch.setattr(sys, "stderr", buf)
    assert main(argv) == 1
    assert "missing.ckpt" in buf.getvalue()
    assert len(logging.getLogger("psformer").handlers) == 1


def test_missing_data_path_exits_1(tmp_path, capsys):
    ckpt, _ = _tiny_checkpoint(tmp_path)
    rc = main(["eval", "--checkpoint", ckpt, "--data", str(tmp_path / "nope")])
    assert rc == 1
    capsys.readouterr()


def test_gendata_count_must_be_positive(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "d"), "--count", "0"])
    assert rc == 1
    capsys.readouterr()


# -------------------------------------------------------------- gen-data

def test_gendata_writes_labeled_scenes(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "scenes"
    rc = main(["gen-data", "--config", cfg, "--out", str(out), "--count", "3",
               "--seed", "9"])
    assert rc == 0
    files = sorted(os.listdir(out))
    assert files == ["scene_0000.ply", "scene_0001.ply", "scene_0002.ply"]
    for f in files:
        cloud = parse_ply(str(out / f))
        assert cloud.n == 64
        assert cloud.labels is not None
    capsys.readouterr()


def test_gendata_binary_matches_ascii(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    a, b = tmp_path / "ascii", tmp_path / "binary"
    assert main(["gen-data", "--config", cfg, "--out", str(a), "--count", "1"]) == 0
    assert main(["gen-data", "--config", cfg, "--out", str(b), "--count", "1",
                 "--binary"]) == 0
    ca = parse_ply(str(a / "scene_0000.ply"))
    cb = parse_ply(str(b / "scene_0000.ply"))
    assert np.array_equal(ca.coords, cb.coords)
    assert np.array_equal(ca.colors, cb.colors)
    assert np.array_equal(ca.labels, cb.labels)
    capsys.readouterr()


# ----------------------------------------------------------------- train

def test_train_writes_log_and_checkpoint(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--config", cfg, "--out", str(out), "--seed", "1"])
    assert rc == 0
    assert "trained 3 epochs" in capsys.readouterr().out

    log_lines = (out / "train.log").read_text().splitlines()
    assert len(log_lines) == 3
    assert log_lines[0].startswith("epoch=1 loss=")
    assert "iou=" in log_lines[-1]          # final epoch always probes
    assert (out / "checkpoint.bin").exists()


def test_train_is_reproducible(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "train.log").read_text() == (b / "train.log").read_text()
    capsys.readouterr()


def test_train_resume_continues_epoch_numbering(tmp_path, capsys):
    # four scenes in batches of two, so a resumed run that replayed epoch 1's
    # shuffle would log different losses than the uninterrupted run
    extra = "data.train_scenes=4\noptim.batch_size=2\ntrain.checkpoint_every=2\n"
    cfg = _write_config(tmp_path, extra=extra)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--resume", str(out / "checkpoint.bin")]) == 0
    straight_cfg = tmp_path / "six.cfg"
    straight_cfg.write_text(Path(cfg).read_text() + "train.epochs=6\n")
    straight = tmp_path / "straight"
    assert main(["train", "--config", str(straight_cfg), "--out", str(straight)]) == 0

    resumed = [line.split()[:2] for line in
               (out / "train.log").read_text().splitlines()]
    assert [e for e, _ in resumed] == [f"epoch={i}" for i in range(1, 7)]
    assert resumed == [line.split()[:2] for line in
                       (straight / "train.log").read_text().splitlines()]
    # the checkpoint cadence counts the run's epochs, not the session's
    assert sorted(p.name for p in out.glob("checkpoint_epoch*.bin")) == [
        "checkpoint_epoch0002.bin", "checkpoint_epoch0004.bin",
        "checkpoint_epoch0006.bin"]
    capsys.readouterr()


def test_train_zero_epochs_prints_a_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, extra="train.epochs=0\n")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "trained 0 epochs"
    assert (out / "checkpoint.bin").exists()
    assert (out / "train.log").read_text() == ""


def test_train_periodic_checkpoints(tmp_path, capsys):
    cfg = _write_config(tmp_path, extra="train.checkpoint_every=2\n")
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "checkpoint_epoch0002.bin").exists()
    assert not (out / "checkpoint_epoch0003.bin").exists()
    capsys.readouterr()


def test_train_on_data_dir(tmp_path, capsys):
    patches = tmp_path / "patches"
    assert main(["gen-data", "--config", _write_config(tmp_path),
                 "--out", str(patches), "--count", "2", "--seed", "11"]) == 0
    # One scene per step, and 5 synthetic scenes if data.dir were ignored, so
    # the step count shows how many patches the run trained on.
    cfg = tmp_path / "dir.cfg"
    cfg.write_text(f"preset=tiny\ndata.dir={patches}\ntrain.epochs=1\n"
                   "train.eval_every=0\noptim.batch_size=1\ndata.train_scenes=5\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert "trained 1 epochs" in capsys.readouterr().out
    model, optim_state, step = model_from_checkpoint(str(out / "checkpoint.bin"))
    assert step == 2 and optim_state["t"] == 2
    assert model.config.data.dir == str(patches)


def test_train_on_unlabeled_data_dir_exits_1(tmp_path, capsys):
    bare = tmp_path / "bare"
    bare.mkdir()
    for i in range(2):
        scene = gen_synthetic_scene(i, DataSection(scene_points=64))
        write_ply(normalize_cloud(scene.coords, scene.colors),
                  str(bare / f"scene_{i}.ply"))
    cfg = tmp_path / "dir.cfg"
    cfg.write_text(f"preset=tiny\ndata.dir={bare}\ntrain.epochs=1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert not (tmp_path / "run" / "checkpoint.bin").exists()
    capsys.readouterr()


def test_train_ablate_prints_table(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, extra="train.epochs=1\ndata.train_scenes=1\ndata.test_scenes=1\n")
    out = tmp_path / "ab"
    rc = main(["train", "--config", cfg, "--out", str(out), "--ablate", "fn"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "no_fn" in stdout and "full" in stdout
    reports = parse_report(str(out / "ablation.txt"))
    assert [r.name for r in reports] == ["no_fn", "full"]


def test_train_ablate_rejects_unknown_flag(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["train", "--config", cfg, "--out", str(tmp_path / "x"),
               "--ablate", "bogus"])
    assert rc == 1
    capsys.readouterr()


# ------------------------------------------------------------------ eval

def test_eval_prints_and_writes_report(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    scenes = tmp_path / "scenes"
    assert main(["gen-data", "--config", cfg, "--out", str(scenes),
                 "--count", "2"]) == 0
    ckpt, _ = _tiny_checkpoint(tmp_path)
    report_path = str(tmp_path / "report.txt")
    rc = main(["eval", "--checkpoint", ckpt, "--data", str(scenes),
               "--out", report_path, "--threshold", "0.3"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("name=eval ")
    assert float(line.split("threshold=")[1].split()[0]) == 0.3
    (report,) = parse_report(report_path)
    assert report.samples == 2
    assert report.threshold == 0.3


@pytest.mark.parametrize("threshold", ["1.5", "0"])
def test_eval_rejects_threshold_outside_open_unit_interval(tmp_path, capsys, threshold):
    # The range is checked before the checkpoint is opened, so the missing
    # file is never reached.
    missing = str(tmp_path / "missing.ckpt")
    assert main(["eval", "--checkpoint", missing, "--data", str(tmp_path),
                 "--threshold", threshold]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "threshold must be in (0,1)" in err and "missing.ckpt" not in err
    ckpt, _ = _tiny_checkpoint(tmp_path)
    data = str(tmp_path / "scene.ply")
    write_ply(gen_synthetic_scene(0, ModelConfig.tiny().data), data)
    with pytest.raises(ContractError, match=r"threshold must be in \(0,1\)"):
        cmd_eval(ckpt, data, threshold=float(threshold))


def test_eval_adaptive_threshold_changes_mask_metrics(tmp_path, capsys):
    data = str(tmp_path / "scene.ply")
    write_ply(gen_synthetic_scene(2, ModelConfig.tiny().data), data)
    reports = {}
    for adaptive in (False, True):
        cfg = ModelConfig.tiny()
        cfg.model.adaptive_threshold = adaptive
        ckpt = str(tmp_path / f"adaptive_{adaptive}.ckpt")
        save_checkpoint(ckpt, PSFormer(cfg, seed=0))
        out = str(tmp_path / f"adaptive_{adaptive}.txt")
        assert cmd_eval(ckpt, data, out=out) == 0
        (reports[adaptive],) = parse_report(out)
    fixed, adaptive = reports[False], reports[True]
    assert fixed.mae == adaptive.mae             # mae ignores the threshold
    assert adaptive.threshold != fixed.threshold == 0.5
    # an explicit threshold overrides the adaptive one
    capsys.readouterr()
    assert cmd_eval(ckpt, data, threshold=0.5) == 0
    assert capsys.readouterr().out.strip() == fixed.line()


def test_eval_scores_the_chunked_probabilities_predict_writes(tmp_path, capsys):
    # 160 points against the tiny 64-point patch: eval scores the per-chunk
    # probabilities predict writes, not one forward over the whole scene
    ckpt, model = _tiny_checkpoint(tmp_path)
    data = str(tmp_path / "big.ply")
    write_ply(gen_synthetic_scene(3, DataSection(scene_points=160)), data)
    cloud = parse_ply(data)
    assert cloud.n > model.config.data.patch_size
    out = str(tmp_path / "report.txt")
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--out", out]) == 0
    capsys.readouterr()
    (report,) = parse_report(out)
    assert report == evaluate(predict_cloud(model, cloud), cloud.labels,
                              model.config.model.threshold)


def test_eval_single_file_works(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    scenes = tmp_path / "scenes"
    assert main(["gen-data", "--config", cfg, "--out", str(scenes),
                 "--count", "1"]) == 0
    ckpt, _ = _tiny_checkpoint(tmp_path)
    rc = main(["eval", "--checkpoint", ckpt,
               "--data", str(scenes / "scene_0000.ply")])
    assert rc == 0
    capsys.readouterr()


def test_eval_requires_labels(tmp_path, capsys):
    scene = gen_synthetic_scene(0, ModelConfig.tiny().data)
    unlabeled = normalize_cloud(scene.coords, scene.colors)
    bare = str(tmp_path / "unlabeled.ply")
    write_ply(unlabeled, bare)
    ckpt, _ = _tiny_checkpoint(tmp_path)
    assert main(["eval", "--checkpoint", ckpt, "--data", bare]) == 1
    capsys.readouterr()


# --------------------------------------------------------------- predict

def test_predict_writes_heatmap(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    scenes = tmp_path / "scenes"
    assert main(["gen-data", "--config", cfg, "--out", str(scenes),
                 "--count", "1"]) == 0
    src = str(scenes / "scene_0000.ply")
    ckpt, model = _tiny_checkpoint(tmp_path, seed=4)
    out = str(tmp_path / "heat.ply")
    assert main(["predict", src, "--checkpoint", ckpt, "--out", out]) == 0
    capsys.readouterr()

    heat = parse_ply(out)
    cloud = parse_ply(src)
    assert heat.n == cloud.n
    assert np.array_equal(heat.coords, cloud.coords)
    probs = predict_cloud(model, cloud)
    # red channel carries round(255 p); green is forced to zero
    assert np.array_equal(np.round(heat.colors[:, 0] * 255),
                          np.round(255 * probs))
    assert np.all(heat.colors[:, 1] == 0)


def _environment_line(err: str) -> dict:
    """The key=value pairs of the first line a command logged."""
    level, *pairs = err.splitlines()[0].split()
    assert level == "INFO"
    return dict(pair.split("=", 1) for pair in pairs)


def _environment() -> dict:
    return {"backend": _kernels.ACTIVE_BACKEND, "numpy": np.__version__,
            "workers": str(_pool.WORKERS)}


def test_train_and_predict_log_the_environment_first(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PSF_LOG_LEVEL", "info")
    want = _environment()
    cfg = _write_config(tmp_path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert _environment_line(capsys.readouterr().err) == want

    scenes = tmp_path / "scenes"
    assert main(["gen-data", "--config", cfg, "--out", str(scenes), "--count", "1"]) == 0
    capsys.readouterr()
    ckpt, _ = _tiny_checkpoint(tmp_path)
    assert main(["predict", str(scenes / "scene_0000.ply"), "--checkpoint", ckpt,
                 "--out", str(tmp_path / "heat.ply")]) == 0
    assert _environment_line(capsys.readouterr().err) == want


def test_eval_logs_the_environment_first(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PSF_LOG_LEVEL", "info")
    data = str(tmp_path / "scene.ply")
    write_ply(gen_synthetic_scene(0, ModelConfig.tiny().data), data)
    ckpt, _ = _tiny_checkpoint(tmp_path)
    assert main(["eval", "--checkpoint", ckpt, "--data", data]) == 0
    assert _environment_line(capsys.readouterr().err) == _environment()


def test_predict_cloud_one_patch_is_forward():
    # a cloud within the patch size is a single chunk of all its points
    model = PSFormer(ModelConfig.tiny(), seed=0)
    scene = gen_synthetic_scene(1, model.config.data)
    assert scene.n <= model.config.data.patch_size
    assert np.array_equal(predict_cloud(model, scene),
                          sigmoid_data(model.forward(scene, model.build_geometry(scene)).data))


def test_predict_cloud_chunks_oversized_input():
    # 160 points against a 64-point patch limit: three FPS-seeded chunks,
    # each normalized and predicted on its own
    model = PSFormer(ModelConfig.tiny(), seed=0)
    data = DataSection(patch_size=160, scene_points=160)
    big = gen_synthetic_scene(3, data)
    probs = predict_cloud(model, big)
    assert probs.shape == (160,)
    assert np.isfinite(probs).all()
    assert np.all((probs > 0) & (probs < 1))


def test_predict_cloud_builds_no_graph(monkeypatch):
    model = PSFormer(ModelConfig.tiny(), seed=0)
    forward = model.forward
    logits = []

    def recording_forward(cloud, geometry):
        logits.append(forward(cloud, geometry))
        return logits[-1]

    monkeypatch.setattr(model, "forward", recording_forward)
    predict_cloud(model, gen_synthetic_scene(1, model.config.data))  # one patch
    predict_cloud(model, gen_synthetic_scene(3, DataSection(scene_points=160)))
    assert len(logits) == 4
    for t in logits:
        assert t._parents == () and not t.requires_grad


def test_predict_rejects_garbage_input(tmp_path, capsys):
    bad = tmp_path / "broken.ply"
    bad.write_text("this is not a ply file\n")
    ckpt, _ = _tiny_checkpoint(tmp_path)
    rc = main(["predict", str(bad), "--checkpoint", ckpt,
               "--out", str(tmp_path / "o.ply")])
    assert rc == 1
    capsys.readouterr()


# ------------------------------------------------------------- gradcheck

def test_gradcheck_smoke(capsys):
    # limit=1 probes one element per parameter group; the full sweep is the
    # acceptance suite's job
    rc = cmd_gradcheck(limit=1)
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradcheck PASS" in out


def test_gradcheck_honors_ablation_flags(tmp_path, capsys):
    path = tmp_path / "ablated.cfg"
    path.write_text("preset=tiny\nmodel.use_mca=false\nmodel.seed=5\n")
    rc = cmd_gradcheck(str(path), limit=1)
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradcheck PASS" in out
    assert "mca" not in out
