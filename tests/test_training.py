"""Optimizer closed-form checks, synthetic scene properties, and the
training loop: loss descent, determinism, probes, and early stop."""

import numpy as np
import pytest

from psformer.autodiff import ContractError, Tensor
from psformer.config import DataSection, ModelConfig
from psformer.model import PSFormer
from psformer.training import (Adam, eval_model, gen_synthetic_scene,
                               make_scenes, run_ablation, train_model)


# ------------------------------------------------------------------- adam

def test_adam_zero_grad_is_identity():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    before = p.data.copy()
    p.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(p.data, before)
    # missing grad treated as zero too
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_first_step_size():
    # after one step the update is lr * g / (|g| + eps * sqrt(1 - beta2)/(1 - beta1))
    # which for the standard constants is lr * sign(g) up to ~1e-7
    g = np.array([0.3, -4.0, 1e-3])
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    p.grad = g.copy()
    opt.step()
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expect = -0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.data, expect, rtol=0, atol=1e-15)
    # ~lr * sign(g); the eps shows up once |g| gets near it
    assert np.allclose(np.abs(p.data), 0.05, rtol=1e-4)


def test_adam_lr_zero_freezes():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.0)
    p.grad = np.array([5.0])
    opt.step()
    assert p.data[0] == 2.0
    with pytest.raises(ContractError):
        Adam({"p": p}, lr=-1e-3)


def test_adam_descends_quadratic():
    # f(x) = 0.5 * |x - c|^2, gradient x - c
    c = np.array([1.0, -2.0, 0.5])
    x = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"x": x}, lr=0.05)
    for _ in range(400):
        x.grad = x.data - c
        opt.step()
    assert np.abs(x.data - c).max() < 1e-2


def test_adam_grad_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"p": p})
    p.grad = np.zeros((3, 1))
    with pytest.raises(ContractError):
        opt.step()


def test_adam_state_round_trip():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=4), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    for _ in range(3):
        p.grad = rng.normal(size=4)
        opt.step()
    state = {"t": opt.t, "m": opt.m, "v": opt.v}
    other = Adam({"p": p}, lr=0.01)
    other.load_state(state)
    assert other.t == 3
    assert np.array_equal(other.m["p"], opt.m["p"])
    assert np.array_equal(other.v["p"], opt.v["p"])
    with pytest.raises(ContractError):
        Adam({"q": Tensor(np.zeros(2), requires_grad=True)}).load_state(state)


@pytest.mark.parametrize("moment", ["m", "v"])
@pytest.mark.parametrize("bad_shape", [(), (1, 4)])
def test_adam_load_state_rejects_misshapen_moments(moment, bad_shape):
    # a broadcastable moment would load and then silently broadcast in step()
    p = Tensor(np.zeros(4), requires_grad=True)
    state = {"t": 0, "m": {"p": np.zeros(4)}, "v": {"p": np.zeros(4)}}
    state[moment]["p"] = np.zeros(bad_shape)
    opt = Adam({"p": p})
    with pytest.raises(ContractError, match=f"for p: {moment}"):
        opt.load_state(state)


# ---------------------------------------------------------------- scenes

def _data(n=256, regime="default", seed=0):
    return DataSection(patch_size=n, scene_points=n, regime=regime, seed=seed)


def test_scene_is_deterministic():
    cfg = _data()
    a = gen_synthetic_scene(5, cfg)
    b = gen_synthetic_scene(5, cfg)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.colors, b.colors)
    assert np.array_equal(a.labels, b.labels)
    c = gen_synthetic_scene(6, cfg)
    assert not np.array_equal(a.coords, c.coords)


def test_scene_shapes_and_labels():
    for seed in range(8):
        scene = gen_synthetic_scene(seed, _data())
        n = scene.coords.shape[0]
        assert n == 256
        assert scene.colors.shape == (n, 3)
        assert scene.labels.dtype == bool
        assert 0 < scene.labels.sum() < n     # both classes present
        # normalized view: the largest axis spans exactly [0, 1]
        spans = scene.norm_coords.max(axis=0) - scene.norm_coords.min(axis=0)
        assert np.isclose(spans.max(), 1.0)


def test_scene_small_regime_caps_salient_fraction():
    for seed in range(10):
        scene = gen_synthetic_scene(seed, _data(regime="small"))
        frac = scene.labels.mean()
        assert 0 < frac <= 0.03 + 1e-9, frac


def test_scene_multi_regime_has_larger_objects():
    fracs = [gen_synthetic_scene(seed, _data(regime="multi")).labels.mean()
             for seed in range(10)]
    # two or three objects at 5-12% each
    assert min(fracs) >= 0.05
    assert max(fracs) <= 0.40


def test_scene_minimum_points_contract():
    with pytest.raises(ContractError):
        gen_synthetic_scene(0, _data(n=32))


def test_make_scenes_distinct():
    scenes = make_scenes(_data(), 3, seed0=11)
    assert len(scenes) == 3
    assert not np.array_equal(scenes[0].coords, scenes[1].coords)


# ------------------------------------------------------------- train loop

def test_train_loss_decreases_and_is_reproducible():
    cfg = ModelConfig.tiny()
    cfg.train.epochs = 12
    cfg.train.eval_every = 0
    scenes = make_scenes(cfg.data, 2, seed0=0)

    model_a = PSFormer(cfg, seed=0)
    res_a = train_model(model_a, scenes)
    model_b = PSFormer(cfg, seed=0)
    res_b = train_model(model_b, scenes)

    assert len(res_a.losses) == 12
    assert res_a.losses == res_b.losses          # bit-identical runs
    assert res_a.losses[-1] < res_a.losses[0]    # learning happened
    for name, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_b.parameters()[name].data), name


def test_train_probe_and_early_stop():
    cfg = ModelConfig.tiny()
    cfg.train.epochs = 50
    cfg.train.eval_every = 2
    cfg.train.target_iou = 0.05    # trivially reachable
    cfg.train.target_mae = 1.0
    scenes = make_scenes(cfg.data, 2, seed0=0)
    seen = []
    res = train_model(PSFormer(cfg, seed=0), scenes,
                      log_fn=lambda e, loss, rep: seen.append((e, rep)))
    assert res.stopped_early
    epochs_run = len(res.losses)
    assert epochs_run < 50
    assert epochs_run % 2 == 0               # stopped at a probe
    probes = [e for e, rep in seen if rep is not None]
    assert probes == [e for e in range(2, epochs_run + 1, 2)]
    assert res.train_metrics is not None
    assert res.train_metrics.iou >= 0.05


def test_train_stops_on_non_finite_loss_before_any_update():
    cfg = ModelConfig.tiny()
    cfg.train.eval_every = 0
    scenes = make_scenes(cfg.data, 2, seed0=0)
    model = PSFormer(cfg, seed=0)
    opt = Adam(model.parameters(), lr=cfg.optim.lr)
    train_model(model, scenes, optimizer=opt, epochs=1)   # non-trivial state
    model.parameters()["head.b2"].data[0] = np.nan
    before = {k: p.data.copy() for k, p in model.parameters().items()}
    state = {"t": opt.t,
             "m": {k: a.copy() for k, a in opt.m.items()},
             "v": {k: a.copy() for k, a in opt.v.items()}}

    # the optimizer has run one epoch, so this run's first epoch is epoch 2
    with pytest.raises(ContractError, match=r"non-finite loss nan at epoch 2"):
        train_model(model, scenes, optimizer=opt, epochs=3)

    assert opt.t == state["t"] > 0
    for k in state["m"]:
        assert np.array_equal(opt.m[k], state["m"][k]), k
        assert np.array_equal(opt.v[k], state["v"][k]), k
    for k, p in model.parameters().items():
        assert np.array_equal(p.data, before[k], equal_nan=True), k
        assert p.grad is None, k


def test_train_requires_labeled_scenes():
    cfg = ModelConfig.tiny()
    scene = gen_synthetic_scene(0, cfg.data)
    from psformer.pointcloud import normalize_cloud
    unlabeled = normalize_cloud(scene.coords, scene.colors)
    assert unlabeled.labels is None
    with pytest.raises(ContractError):
        train_model(PSFormer(cfg, seed=0), [unlabeled])
    with pytest.raises(ContractError):
        train_model(PSFormer(cfg, seed=0), [])


def test_eval_model_averages_per_view():
    cfg = ModelConfig.tiny()
    scenes = make_scenes(cfg.data, 3, seed0=4)
    model = PSFormer(cfg, seed=0)
    geoms = [model.build_geometry(s) for s in scenes]
    per_view = [eval_model(model, [s], [g]) for s, g in zip(scenes, geoms)]
    joint = eval_model(model, scenes, geoms)
    assert joint.samples == 3
    assert joint.iou == pytest.approx(np.mean([r.iou for r in per_view]), abs=1e-15)
    assert joint.mae == pytest.approx(np.mean([r.mae for r in per_view]), abs=1e-15)


# --------------------------------------------------------------- ablation

def test_run_ablation_order_and_inversion_flags():
    cfg = ModelConfig.tiny()
    cfg.train.epochs = 2
    cfg.train.eval_every = 0
    cfg.data.train_scenes = 1
    cfg.data.test_scenes = 1
    rows = run_ablation(cfg, ["fn", "mca"], seeds=(0,))
    assert [r.name for r in rows] == ["no_fn", "no_mca", "full"]
    full = rows[-1]
    assert full.inverted is False
    for row in rows[:-1]:
        assert row.inverted == (row.report.iou > full.report.iou)
        assert len(row.per_seed_iou) == 1
    with pytest.raises(ContractError):
        run_ablation(cfg, ["bogus"], seeds=(0,))
