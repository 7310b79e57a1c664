"""End-to-end model behavior: output shapes, determinism, point-order
equivariance, parameter bookkeeping, and ablation wiring."""

import tracemalloc

import numpy as np
import pytest

from psformer.autodiff import ContractError, Tensor, backward, bce_with_logits, sigmoid_data
from psformer.config import ABLATION_FLAGS, ModelConfig
from psformer.decoder import decode, mca, predict_head
from psformer.encoder import encode_features
from psformer.model import PSFormer
from psformer.pointcloud import normalize_cloud
from psformer.training import gen_synthetic_scene, make_scenes


def _tiny():
    return ModelConfig.tiny()


def _scene(seed=0, cfg=None):
    cfg = _tiny() if cfg is None else cfg
    return gen_synthetic_scene(seed, cfg.data)


def _logits(model, scene):
    return model.forward(scene, model.build_geometry(scene))


# ---------------------------------------------------------------- forward

def test_forward_shapes_and_ranges():
    cfg = _tiny()
    model = PSFormer(cfg, seed=0)
    scene = _scene()
    logits = _logits(model, scene)
    assert logits.shape == (scene.n,)
    assert np.isfinite(logits.data).all()


def test_forward_deterministic_and_geometry_reuse():
    cfg = _tiny()
    scene = _scene(3)
    a, b = PSFormer(cfg, seed=1), PSFormer(cfg, seed=1)
    geom = a.build_geometry(scene)
    first = a.forward(scene, geom).data
    # geometry depends on coords alone: reusing it, or another model's
    # build of it, changes nothing
    assert np.array_equal(a.forward(scene, geom).data, first)
    assert np.array_equal(b.forward(scene, geom).data, first)
    assert np.array_equal(_logits(b, scene).data, first)


def test_forward_rejects_small_cloud():
    cfg = _tiny()
    rng = np.random.default_rng(0)
    need = cfg.levels[0].m
    tiny_cloud = normalize_cloud(rng.uniform(0, 1, (need - 1, 3)))
    with pytest.raises(ContractError, match="points"):
        _logits(PSFormer(cfg, seed=0), tiny_cloud)


def test_forward_builds_the_input_channels_once(monkeypatch):
    # the encoder's first level and the decoder stem share one (N, 9) input
    scene = gen_synthetic_scene(0, _tiny().data)
    calls = []
    features9 = type(scene).features9
    monkeypatch.setattr(type(scene), "features9",
                        lambda self: calls.append(1) or features9(self))
    _logits(PSFormer(_tiny(), seed=0), scene)
    assert len(calls) == 1


def test_point_order_equivariance():
    # sampling seeds off a permutation-invariant centroid and neighborhoods
    # are nearest-in-radius, so reordering the input reorders the output.
    # not bitwise: the last fuse runs attention over the whole cloud, and
    # that matmul sums points in input order, leaving ~1 ulp of drift
    cfg = _tiny()
    model = PSFormer(cfg, seed=2)
    scene = _scene(5)
    base = sigmoid_data(_logits(model, scene).data)
    rng = np.random.default_rng(11)
    for _ in range(3):
        perm = rng.permutation(scene.n)
        shuffled = _logits(model, normalize_cloud(scene.coords[perm], scene.colors[perm],
                                                  scene.labels[perm]))
        assert np.allclose(sigmoid_data(shuffled.data), base[perm], rtol=0, atol=1e-12)


# ------------------------------------------------------------- parameters

def test_parameters_are_stable_and_named():
    model = PSFormer(_tiny(), seed=0)
    a = model.parameters()
    b = model.parameters()
    assert list(a) == list(b)
    for name in a:
        assert a[name] is b[name], name    # same Tensor, not a copy
        assert a[name].requires_grad, name
    prefixes = {n.split(".")[0] for n in a}
    for want in ("enc1", "enc5", "stem", "ut1", "ut5", "mca1", "head"):
        assert any(p.startswith(want) for p in prefixes), want


def test_backward_releases_interior_grads_and_keeps_parameter_grads():
    model = PSFormer(_tiny(), seed=0)
    scene = _scene()
    loss = bce_with_logits(_logits(model, scene), scene.labels.astype(np.float64))
    backward(loss)
    params = model.parameters()
    for name, p in params.items():
        assert p.grad is not None and np.isfinite(p.grad).all(), name
    assert loss.grad is not None
    param_ids = {id(p._node) for p in params.values()}
    seen, stack, interior = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        if node._parents and node is not loss:
            interior += 1
            assert node.grad is None, node._op
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert interior > 100 and param_ids <= seen


def test_caller_held_values_survive_backward():
    # the forward's pieces called as model.forward calls them, so the caller
    # holds every encoder level; backward frees the graph, not the values
    model = PSFormer(_tiny(), seed=0)
    scene = _scene()
    geometry = model.build_geometry(scene)
    features9 = Tensor(scene.features9())
    levels = encode_features(scene.coords, features9, model.level_params,
                             geometry.levels)
    feats = decode(levels, features9, model.dec_params, geometry.interp)
    logits = predict_head(feats, mca(levels, model.mca_params), model.head_params)
    assert logits.data.tobytes() == model.forward(scene, geometry).data.tobytes()
    held = {"logits": logits, **{f"enc{i}": t for i, t in enumerate(levels, 1)}}
    params = model.parameters()
    before = {k: t.data.tobytes() for k, t in {**held, **params}.items()}
    loss = bce_with_logits(logits, scene.labels.astype(np.float64))
    backward(loss)
    for k, t in {**held, **params}.items():
        assert t.data.tobytes() == before[k], k
    assert loss.grad == 1.0
    assert all(p._node.data.size == 0 for p in params.values())


def _nodes_from(roots, stop=lambda node: False) -> list:
    """Every node reachable from roots without passing a node `stop` names,
    which is left out."""
    seen, stack, out = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) in seen or stop(node):
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out


def test_step_graph_holds_fn_as_one_node_saving_one_difference_per_level():
    # FN is one "fn" node per level whose own subgraph, down to the lifts,
    # saves only the (M, K, d) centroid difference; the composed
    # sub/mul/mean/sqrt/div form held three such arrays and a sqrt node
    cfg = _tiny()
    model = PSFormer(cfg, seed=0)
    scene = _scene()
    loss = bce_with_logits(_logits(model, scene), scene.labels.astype(np.float64))
    nodes = _nodes_from([loss._node])
    fns = [n for n in nodes if n._op == "fn"]
    assert sorted(n.shape for n in fns) == sorted((lv.m, lv.k, lv.d_out) for lv in cfg.levels)
    assert not [n for n in nodes if n._op == "sqrt"]
    for fn in fns:
        inside = _nodes_from(fn._parents, stop=lambda n: n._op in ("matmul", "leaf"))
        saved = [n.data.shape for n in inside if n.data.size]
        assert saved == [fn.shape], saved


def test_seed_controls_init():
    cfg = _tiny()
    a = PSFormer(cfg, seed=0).parameters()
    b = PSFormer(cfg, seed=0).parameters()
    c = PSFormer(cfg, seed=1).parameters()
    assert all(np.array_equal(a[n].data, b[n].data) for n in a)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)
    # seed=None falls back to the config seed
    cfg.model.seed = 1
    d = PSFormer(cfg).parameters()
    assert all(np.array_equal(c[n].data, d[n].data) for n in c)


def test_weights_argument_validates():
    cfg = _tiny()
    good = {n: p.data.copy() for n, p in PSFormer(cfg, seed=0).parameters().items()}
    some = next(iter(good))

    incomplete = dict(good)
    del incomplete[some]
    with pytest.raises(ContractError, match="missing"):
        PSFormer(cfg, weights=incomplete)

    extra = dict(good)
    extra["bogus.w"] = np.zeros(3)
    with pytest.raises(ContractError, match="unexpected"):
        PSFormer(cfg, weights=extra)

    warped = dict(good)
    warped[some] = np.zeros(good[some].shape + (2,))
    with pytest.raises(ContractError, match="shape"):
        PSFormer(cfg, weights=warped)

    with pytest.raises(ContractError, match="seed or weights"):
        PSFormer(cfg, seed=0, weights=good)

    loaded = PSFormer(cfg, weights=good).parameters()[some]
    assert np.array_equal(loaded.data, good[some])
    assert loaded.data is good[some]  # adopted, not copied


def test_weights_argument_allocates_no_placeholders():
    # Given weights, the parameters' shapes cost no arrays of their own: a
    # placeholder per parameter would allocate a second model while building.
    cfg = ModelConfig.desk()
    good = {n: p.data.copy() for n, p in PSFormer(cfg, seed=0).parameters().items()}
    weight_bytes = sum(a.nbytes for a in good.values())
    tracemalloc.start()
    try:
        PSFormer(cfg, weights=good)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < weight_bytes / 10, (peak, weight_bytes)


# -------------------------------------------------------------- ablations

def test_ablations_shrink_the_model():
    cfg = _tiny()
    full = PSFormer(cfg, seed=0).parameters()

    no_mca = PSFormer(cfg.ablated(["mca"]), seed=0).parameters()
    assert not any(n.startswith("mca") for n in no_mca)
    # head loses the broadcast context input
    assert no_mca["head.w1"].data.shape[0] == (
        full["head.w1"].data.shape[0] - cfg.context_width)

    no_ut = PSFormer(cfg.ablated(["ut"]), seed=0).parameters()
    assert not any(".trans." in n for n in no_ut)
    assert any(n.startswith("ut1.fuse") for n in no_ut)   # linear fuse stays

    no_fn = PSFormer(cfg.ablated(["fn"]), seed=0).parameters()
    assert not any(".fn." in n for n in no_fn)
    # without the normalizer's shift invariance the lift needs its bias back
    assert "enc1.lift.b" in no_fn
    assert "enc1.lift.b" not in full

    no_pre = PSFormer(cfg.ablated(["psi_pre"]), seed=0).parameters()
    assert not any(".pre." in n for n in no_pre)
    no_post = PSFormer(cfg.ablated(["psi_post"]), seed=0).parameters()
    assert not any(".post." in n for n in no_post)

    for flag in ABLATION_FLAGS:
        ablated = PSFormer(cfg.ablated([flag]), seed=0)
        assert len(ablated.parameters()) < len(full)
        assert np.isfinite(_logits(ablated, _scene()).data).all()


def test_eval_model_runs_on_forward_output():
    # smoke link between model and metrics on a labeled scene
    from psformer.training import eval_model
    cfg = _tiny()
    model = PSFormer(cfg, seed=0)
    scenes = make_scenes(cfg.data, 2, seed0=1)
    report = eval_model(model, scenes, [model.build_geometry(s) for s in scenes],
                        name="smoke")
    assert report.samples == 2
    assert 0.0 <= report.iou <= 1.0
    assert 0.0 <= report.mae <= 1.0
