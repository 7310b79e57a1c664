"""Checkpoint round-trips: weights and optimizer state must come back
bit-exact, resume must equal an uninterrupted run, and corrupt files must
fail loudly instead of producing a silently wrong model."""

import io
import os
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from psformer.checkpoint import (CheckpointError, load_checkpoint,
                                 model_from_checkpoint, save_checkpoint)
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
    before = model.forward(scene, model.build_geometry(scene))

    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    clone, optim_state, step = model_from_checkpoint(path)
    assert optim_state is None and step == 0
    after = clone.forward(scene, clone.build_geometry(scene))

    assert np.array_equal(before.data, after.data)


def test_load_draws_no_random_numbers(tmp_path, monkeypatch):
    model = _tiny_model(seed=2)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)

    def no_generator(*args, **kwargs):
        raise AssertionError("a checkpoint load drew random weights")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    clone, _, _ = model_from_checkpoint(path)
    assert set(clone.parameters()) == set(model.parameters())


def test_loaded_parameters_are_bit_exact_and_writable(tmp_path):
    model = _tiny_model(seed=4)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model)
    saved = model.parameters()
    for name, p in model_from_checkpoint(path)[0].parameters().items():
        assert p.data.dtype == np.float64
        assert p.data.tobytes() == saved[name].data.tobytes(), name
        assert p.data.flags.writeable, name


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
    assert set(optim_state["m"]) == set(optim_state["v"]) == set(opt.m)
    for name in opt.m:
        assert np.array_equal(optim_state["m"][name], opt.m[name]), name
        assert np.array_equal(optim_state["v"][name], opt.v[name]), name


def test_resume_matches_uninterrupted_run(tmp_path):
    # four scenes in batches of two, so each epoch's shuffle decides the
    # batches: the resumed run must draw the uninterrupted run's epoch-3 and
    # epoch-4 permutations, not restart at epoch 1's
    cfg = ModelConfig.tiny()
    cfg.train.eval_every = 0
    cfg.optim.batch_size = 2
    scenes = make_scenes(cfg.data, 4, seed0=7)

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

def _valid_path(tmp_path, optimizer=False) -> str:
    path = str(tmp_path / ("good_adam.ckpt" if optimizer else "good.ckpt"))
    model = _tiny_model()
    opt = None
    if optimizer:
        opt = Adam(model.parameters(), lr=model.config.optim.lr)
        train_model(model, make_scenes(model.config.data, 1, seed0=4),
                    optimizer=opt, epochs=1)
    save_checkpoint(path, model, optimizer=opt)
    return path


def _valid_blob(tmp_path) -> bytes:
    with open(_valid_path(tmp_path), "rb") as fh:
        return fh.read()


def _members(tmp_path) -> list:
    """(name, raw .npy bytes) of every member of a valid checkpoint."""
    with zipfile.ZipFile(_valid_path(tmp_path)) as zf:
        return [(n, zf.read(n)) for n in zf.namelist()]


def _replace(members, name: str, raw: bytes) -> list:
    assert name in dict(members)
    return [(n, raw if n == name else r) for n, r in members]


def _zip(members, compression=zipfile.ZIP_STORED) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=compression) as zf:
        for name, raw in members:
            zf.writestr(name, raw)
    return buf.getvalue()


def _npy(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _npy_header(descr: str, shape, fortran_order=False, data=b"") -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return buf.getvalue() + data


def _first_param(members) -> str:
    return next(n for n, _ in members if n.startswith("param/"))


def _expect_error(tmp_path, blob: bytes, match: str):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    members = _members(tmp_path)
    rebuilt = str(tmp_path / "rebuilt.ckpt")
    with open(rebuilt, "wb") as fh:
        fh.write(_zip(members))
    load_checkpoint(rebuilt)     # the helpers' archive loads until it is broken
    marker = _npy(np.frombuffer(b"not a psformer file", np.uint8))
    _expect_error(tmp_path, _zip(_replace(members, "format.npy", marker)),
                  "member 'format' is not")


def test_unsupported_version(tmp_path):
    members = _members(tmp_path)
    marker = _npy(np.frombuffer(b"psformer-checkpoint-3", np.uint8))
    _expect_error(tmp_path, _zip(_replace(members, "format.npy", marker)),
                  "member 'format' is not b'psformer-checkpoint-2'")


def test_v1_checkpoint_is_refused(tmp_path):
    # The layout the earlier hand-rolled format began with: magic, version,
    # config length and text, step, parameter count.
    config_raw = serialize_config(ModelConfig.tiny()).encode("utf-8")
    v1 = (b"PSFCKPT1" + struct.pack("<I", 1)
          + struct.pack("<Q", len(config_raw)) + config_raw
          + struct.pack("<Q", 0) + struct.pack("<I", 0) + b"\x00")
    _expect_error(tmp_path, v1, "v1 checkpoint format is no longer read")


def test_truncated_file(tmp_path):
    blob = _valid_blob(tmp_path)
    for cut in (blob[:len(blob) // 2], blob[:6], blob[:-1]):
        _expect_error(tmp_path, cut, "not a checkpoint archive")


def test_bad_config_text(tmp_path):
    members = _members(tmp_path)
    for text in (b"\xff\xfe", b"model.no_such_key=1\n"):
        config = _npy(np.frombuffer(text, np.uint8))
        _expect_error(tmp_path, _zip(_replace(members, "config.npy", config)),
                      "member 'config': bad config text")


def test_checkpoint_with_a_retired_key_names_the_reason(tmp_path):
    # config text as checkpoints wrote it while FN's epsilon was a key
    members = _members(tmp_path)
    text = serialize_config(ModelConfig.tiny()) + "model.fn_eps=1e-05\n"
    config = _npy(np.frombuffer(text.encode("utf-8"), np.uint8))
    _expect_error(tmp_path, _zip(_replace(members, "config.npy", config)),
                  r"'model.fn_eps' was retired: FN's epsilon is the constant "
                  r"featurenorm\.EPS")


def test_implausible_ndim(tmp_path):
    members = _members(tmp_path)
    name = _first_param(members)
    eight = struct.pack("<d", 0.5)
    for raw in (_npy_header("<f8", (2,) * 9, data=eight),   # 512 values declared
                _npy_header("<f8", (-1, -1), data=eight),
                _npy_header("<f8", (1,), fortran_order=True, data=eight),
                _npy_header("<f4", (2,), data=eight),
                _npy_header("|O", (1,), data=eight),
                b"\x93NUMPY\x03\x00" + eight,
                eight):
        _expect_error(tmp_path, _zip(_replace(members, name, raw)),
                      f"member '{name[:-4]}'")


def test_huge_header_rejected_before_allocating(tmp_path):
    members = _members(tmp_path)
    name = _first_param(members)
    huge = _npy_header("<f8", (10 ** 12,), data=struct.pack("<d", 0.5))
    path = str(tmp_path / "huge.ckpt")
    with open(path, "wb") as fh:
        fh.write(_zip(_replace(members, name, huge)))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="implausible header"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_member_size_past_end_of_file(tmp_path):
    # A central-directory entry claiming 2 GiB of stored data, as its
    # compressed (offset 20) or its uncompressed size (offset 24): zipfile
    # and the member's array would allocate that much before reading, so
    # the loader refuses it first.
    for offset in (20, 24):
        blob = bytearray(_valid_blob(tmp_path))
        entry = blob.find(b"PK\x01\x02")
        blob[entry + offset:entry + offset + 4] = struct.pack("<I", 2 ** 31 - 1)
        path = str(tmp_path / "big.ckpt")
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="larger than the file"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (offset, peak)


def test_duplicate_parameter_name(tmp_path):
    members = _members(tmp_path)
    name = _first_param(members)
    with pytest.warns(UserWarning, match="Duplicate name"):
        blob = _zip(members + [(name, dict(members)[name])])
    _expect_error(tmp_path, blob, "unexpected or repeated members")


def test_missing_or_unexpected_member(tmp_path):
    members = _members(tmp_path)
    step = [(n, r) for n, r in members if n != "step.npy"]
    _expect_error(tmp_path, _zip(step), "member 'step'")
    stray = members + [("params/extra.npy", _npy(np.zeros(2)))]
    _expect_error(tmp_path, _zip(stray), "unexpected or repeated members")


def test_flipped_bit_in_parameter_data(tmp_path):
    path = _valid_path(tmp_path)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    _, arrays, _, _ = load_checkpoint(path)
    name, arr = max(arrays.items(), key=lambda kv: kv[1].size)
    at = bytes(blob).find(arr.tobytes())
    assert at > 0
    blob[at + arr.nbytes // 2] ^= 0x10
    _expect_error(tmp_path, bytes(blob), f"member 'param/{name}'.*CRC")


def test_rejects_non_checkpoint_bytes(tmp_path):
    _expect_error(tmp_path, b"", "not a checkpoint archive")
    _expect_error(tmp_path, b"ply\nformat ascii 1.0\n", "not a checkpoint archive")
    compressed = _zip(_members(tmp_path), compression=zipfile.ZIP_DEFLATED)
    _expect_error(tmp_path, compressed, "compressed or larger than the file")


def test_mutation_fuzz_never_loads_different_weights(tmp_path):
    # The mutations gate 6 applies to PLY files: 1-3 of a deletion of up to
    # 39 bytes, a random byte, or 8 inserted random bytes.
    path = _valid_path(tmp_path, optimizer=True)
    with open(path, "rb") as fh:
        blob = fh.read()
    config, arrays, optim_state, step = load_checkpoint(path)
    rng = np.random.default_rng(0)
    rejected = 0
    for trial in range(500):
        mutated = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, len(mutated)))
            if op == 0:
                del mutated[pos:pos + int(rng.integers(1, 40))]
            elif op == 1:
                mutated[pos] = int(rng.integers(0, 256))
            else:
                mutated[pos:pos] = bytes(rng.integers(0, 256, 8, dtype=np.uint8))
        bad = str(tmp_path / "fuzz.ckpt")
        with open(bad, "wb") as fh:
            fh.write(bytes(mutated))
        try:
            got_config, got, got_optim, got_step = load_checkpoint(bad)
        except CheckpointError:
            rejected += 1
            continue
        assert got_config == config and got_step == step, trial
        assert set(got) == set(arrays), trial
        for name in arrays:
            assert np.array_equal(got[name], arrays[name]), (trial, name)
            for moment in ("m", "v"):
                assert np.array_equal(got_optim[moment][name],
                                      optim_state[moment][name]), (trial, name)
    assert rejected > 400
