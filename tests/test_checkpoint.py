"""Binary checkpoint round-trips: weights and optimizer state must come back
bit-exact, resume must equal an uninterrupted run, and corrupt files must
fail loudly instead of producing a silently wrong model."""

import os
import struct

import numpy as np
import pytest

from psformer.checkpoint import (MAGIC, VERSION, CheckpointError,
                                 load_checkpoint, model_from_checkpoint,
                                 save_checkpoint)
from psformer.config import ModelConfig, serialize_config
from psformer.model import PSFormer
from psformer.training import Adam, make_scenes, train_model


def _tiny_model(seed=0):
    cfg = ModelConfig.tiny()
    cfg.train.eval_every = 0
    return PSFormer(cfg, seed=seed)


# ------------------------------------------------------------ round trips

def test_parameter_round_trip_is_bit_exact(tmp_path):
    model = _tiny_model(seed=3)
    path = str(tmp_path / "weights.ckpt")
    save_checkpoint(path, model)

    config, arrays, optim_state, step = load_checkpoint(path)
    assert optim_state is None
    assert step == 0
    assert config == model.config
    params = model.parameters()
    assert set(arrays) == set(params)
    for name, p in params.items():
        assert arrays[name].dtype == np.float64
        assert np.array_equal(arrays[name], p.data), name


def test_logits_round_trip_bit_exact(tmp_path):
    model = _tiny_model(seed=1)
    scene = make_scenes(model.config.data, 1, seed0=0)[0]
    before = model.forward(scene)

    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    clone, optim_state, step = model_from_checkpoint(path)
    assert optim_state is None and step == 0
    after = clone.forward(scene)

    assert np.array_equal(before.logits.data, after.logits.data)
    assert np.array_equal(before.probabilities, after.probabilities)


def test_optimizer_state_round_trip(tmp_path):
    model = _tiny_model(seed=2)
    scenes = make_scenes(model.config.data, 1, seed0=4)
    opt = Adam(model.parameters(), lr=model.config.optim.lr)
    train_model(model, scenes, optimizer=opt, epochs=2)
    assert opt.t > 0

    path = str(tmp_path / "opt.ckpt")
    save_checkpoint(path, model, optimizer=opt)
    _, _, optim_state, step = load_checkpoint(path)
    assert step == opt.t
    assert optim_state is not None
    assert optim_state["t"] == opt.t
    want = opt.state_dict()
    for name in want["m"]:
        assert np.array_equal(optim_state["m"][name], want["m"][name]), name
        assert np.array_equal(optim_state["v"][name], want["v"][name]), name


def test_resume_matches_uninterrupted_run(tmp_path):
    # one scene, so the per-epoch shuffle is a no-op and the only state that
    # has to survive the restart is weights + adam moments + step count
    cfg = ModelConfig.tiny()
    cfg.train.eval_every = 0
    scenes = make_scenes(cfg.data, 1, seed0=7)

    straight = PSFormer(cfg, seed=5)
    res_a = train_model(straight, scenes, epochs=4)

    interrupted = PSFormer(cfg, seed=5)
    opt = Adam(interrupted.parameters(), lr=cfg.optim.lr, beta1=cfg.optim.beta1,
               beta2=cfg.optim.beta2, eps=cfg.optim.eps)
    res_b = train_model(interrupted, scenes, optimizer=opt, epochs=2)
    path = str(tmp_path / "mid.ckpt")
    save_checkpoint(path, interrupted, optimizer=opt)

    resumed, optim_state, step = model_from_checkpoint(path)
    assert step == opt.t
    opt2 = Adam(resumed.parameters(), lr=cfg.optim.lr, beta1=cfg.optim.beta1,
                beta2=cfg.optim.beta2, eps=cfg.optim.eps)
    opt2.load_state(optim_state)
    res_c = train_model(resumed, scenes, optimizer=opt2, epochs=2)

    assert res_a.losses[:2] == res_b.losses
    assert res_a.losses[2:] == res_c.losses
    for name, p in straight.parameters().items():
        assert np.array_equal(p.data, resumed.parameters()[name].data), name


def test_save_overwrites_atomically(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "same.ckpt")
    save_checkpoint(path, model)
    first = os.path.getsize(path)
    save_checkpoint(path, model)          # overwrite in place
    assert os.path.getsize(path) == first
    assert os.listdir(tmp_path) == ["same.ckpt"]   # no temp droppings
    load_checkpoint(path)


# ----------------------------------------------------------- corrupt files

def _valid_blob(tmp_path) -> bytes:
    path = str(tmp_path / "good.ckpt")
    save_checkpoint(path, _tiny_model())
    with open(path, "rb") as fh:
        return fh.read()


def _expect_error(tmp_path, blob: bytes, match: str):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    blob = _valid_blob(tmp_path)
    _expect_error(tmp_path, b"NOTACKPT" + blob[8:], "bad magic")


def test_unsupported_version(tmp_path):
    blob = _valid_blob(tmp_path)
    bumped = blob[:8] + struct.pack("<I", VERSION + 1) + blob[12:]
    _expect_error(tmp_path, bumped, "unsupported version")


def test_truncated_file(tmp_path):
    blob = _valid_blob(tmp_path)
    _expect_error(tmp_path, blob[:len(blob) // 2], "truncated")
    _expect_error(tmp_path, blob[:6], "truncated")
    _expect_error(tmp_path, blob[:-1], "truncated")


def test_bad_config_text(tmp_path):
    blob = _valid_blob(tmp_path)
    # config text starts right after magic + version + u64 length
    _expect_error(tmp_path, blob[:20] + b"\xff" + blob[21:], "bad config text")


def _header(step=0, nparams=1) -> bytes:
    config_raw = serialize_config(ModelConfig.tiny()).encode("utf-8")
    return (MAGIC + struct.pack("<I", VERSION)
            + struct.pack("<Q", len(config_raw)) + config_raw
            + struct.pack("<Q", step) + struct.pack("<I", nparams))


def test_implausible_ndim(tmp_path):
    blob = (_header(nparams=1)
            + struct.pack("<I", 3) + b"w.x"
            + struct.pack("<I", 9))           # 9-dimensional array, no thanks
    _expect_error(tmp_path, blob, "implausible ndim")


def test_duplicate_parameter_name(tmp_path):
    arr = struct.pack("<I", 1) + struct.pack("<Q", 1) + struct.pack("<d", 0.5)
    entry = struct.pack("<I", 3) + b"w.x" + arr
    blob = _header(nparams=2) + entry + entry + b"\x00"
    _expect_error(tmp_path, blob, "duplicate parameter")


def test_rejects_non_checkpoint_bytes(tmp_path):
    _expect_error(tmp_path, b"", "truncated")
    _expect_error(tmp_path, b"ply\nformat ascii 1.0\n", "bad magic")
