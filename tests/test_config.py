"""Configuration format tests: presets, the flat key=value text round-trip,
override precedence, and field validation."""

import re
from pathlib import Path

import pytest

from psformer.config import (ABLATION_FLAGS, N_LEVELS, ConfigError, ModelConfig,
                             parse_config, serialize_config)


# ---------------------------------------------------------------- presets

def test_presets_validate_and_differ():
    d = ModelConfig.default()
    k = ModelConfig.desk()
    t = ModelConfig.tiny()
    assert d.levels[0].m == 1024
    assert k.data.scene_points == 512
    assert t.data.scene_points == 64
    for cfg in (d, k, t):
        assert len(cfg.levels) == 5
        cfg.validate()


def test_level_widths_and_context_width():
    cfg = ModelConfig.tiny()
    assert cfg.level_widths == [6, 8, 10, 12, 14]
    assert cfg.context_width == 5 * cfg.model.compress_dim


# ------------------------------------------------------------- round trips

def test_serialize_parse_round_trip():
    for make in (ModelConfig.default, ModelConfig.desk, ModelConfig.tiny):
        cfg = make()
        cfg.model.seed = 11
        cfg.optim.lr = 3.5e-4
        cfg.data.regime = "multi"
        text = serialize_config(cfg)
        back = parse_config(text)
        assert back == cfg


def test_round_trip_preserves_float_precision():
    cfg = ModelConfig.desk()
    cfg.optim.lr = 0.1 + 0.2  # not representable as a short decimal
    back = parse_config(serialize_config(cfg))
    assert back.optim.lr == cfg.optim.lr


def test_preset_line_selects_base():
    cfg = parse_config("preset=tiny\n")
    assert cfg == ModelConfig.tiny()
    cfg = parse_config("preset=desk\noptim.lr=0.01\n")
    assert cfg.data.scene_points == 512
    assert cfg.optim.lr == 0.01


def test_empty_text_is_default_preset():
    assert parse_config("") == ModelConfig.default()
    assert parse_config("\n\n# only a comment\n") == ModelConfig.default()


def test_comments_and_blank_lines():
    cfg = parse_config(
        "# full line comment\n"
        "preset=tiny\n"
        "\n"
        "optim.lr=0.002   # trailing comment\n"
    )
    assert cfg.optim.lr == 0.002


def test_preset_after_other_keys_rejected():
    with pytest.raises(ConfigError, match="preset"):
        parse_config("optim.lr=0.01\npreset=tiny\n")


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="nope"):
        parse_config("preset=nope\n")


# ------------------------------------------------------------ key handling

def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="optim.momentum"):
        parse_config("preset=tiny\noptim.momentum=0.9\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config("bogus=1\n")
    with pytest.raises(ConfigError, match="level1.q"):
        parse_config("preset=tiny\nlevel1.q=3\n")
    with pytest.raises(ConfigError, match="model.attn_cap"):
        parse_config("preset=tiny\nmodel.attn_cap=0\n")
    with pytest.raises(ConfigError, match="model.fn_eps"):
        parse_config("preset=tiny\nmodel.fn_eps=1e-05\n")


@pytest.mark.parametrize("line, replacement", [
    ("model.fn_eps=1e-05", "the constant featurenorm.EPS"),
    ("model.attn_cap=0", "row blocks with no cap"),
])
def test_retired_keys_say_what_replaced_them(line, replacement):
    with pytest.raises(ConfigError, match="was retired") as err:
        parse_config(f"preset=tiny\n{line}\n")
    assert replacement in str(err.value)


def test_level_index_bounds():
    with pytest.raises(ConfigError, match="level index"):
        parse_config("preset=tiny\nlevel6.m=4\n")
    with pytest.raises(ConfigError, match="level index"):
        parse_config("preset=tiny\nlevel0.m=4\n")


def test_level_key_overrides():
    cfg = parse_config("preset=tiny\nlevel1.m=20\nlevel5.radius=2.5\n")
    assert cfg.levels[0].m == 20
    assert cfg.levels[4].radius == 2.5


def test_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("preset=tiny\nmodel.use_fn=maybe\n")
    with pytest.raises(ConfigError, match="int"):
        parse_config("preset=tiny\nlevel1.m=abc\n")


def test_boolean_spellings():
    for word, want in (("true", True), ("1", True), ("yes", True), ("on", True),
                       ("false", False), ("0", False), ("no", False), ("off", False)):
        cfg = parse_config(f"preset=tiny\nmodel.use_mca={word}\n")
        assert cfg.model.use_mca is want


# -------------------------------------------------------------- validation

def test_validation_threshold_range():
    for bad in ("0.0", "1.0", "-0.2", "1.5"):
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(f"preset=tiny\nmodel.threshold={bad}\n")


def test_validation_adam_betas_in_unit_interval():
    for key in ("beta1", "beta2"):
        for bad in ("1.0", "1.5", "-0.1", "nan"):
            with pytest.raises(ConfigError, match=f"optim.{key}"):
                parse_config(f"preset=tiny\noptim.{key}={bad}\n")
    cfg = parse_config("preset=tiny\noptim.beta1=0\noptim.beta2=0\n")
    assert cfg.optim.beta1 == cfg.optim.beta2 == 0.0


def test_validation_adam_eps_positive():
    for bad in ("0", "-1e-8", "nan"):
        with pytest.raises(ConfigError, match="optim.eps"):
            parse_config(f"preset=tiny\noptim.eps={bad}\n")


def test_validation_m_strictly_decreasing():
    with pytest.raises(ConfigError, match="strictly decrease"):
        parse_config("preset=tiny\nlevel2.m=16\n")  # equals level1.m


def test_validation_widths_non_decreasing():
    with pytest.raises(ConfigError, match="non-decreasing"):
        parse_config("preset=tiny\nlevel5.d_out=2\n")


def test_validation_regime():
    with pytest.raises(ConfigError, match="regime"):
        parse_config("preset=tiny\ndata.regime=huge\n")


def test_validation_patch_size_covers_level1():
    with pytest.raises(ConfigError, match="patch_size"):
        parse_config("preset=tiny\ndata.patch_size=8\n")


def test_validation_positive_fields():
    with pytest.raises(ConfigError, match="radius"):
        parse_config("preset=tiny\nlevel3.radius=0\n")
    with pytest.raises(ConfigError, match="m, k, d_out must be positive"):
        parse_config("preset=tiny\nlevel5.m=0\n")
    with pytest.raises(ConfigError, match="m, k, d_out must be positive"):
        parse_config("preset=tiny\nlevel2.k=0\n")
    with pytest.raises(ConfigError, match="lr"):
        parse_config("preset=tiny\noptim.lr=0\n")


def test_validation_rejects_non_finite_floats():
    # each of these parsed before, and a nan radius gave all-NaN predictions
    for key in ("optim.lr", "level1.radius", "train.target_mae", "model.threshold",
                "train.target_iou", "optim.eps"):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                parse_config(f"preset=tiny\n{key}={bad}\n")


def test_validation_rejects_a_data_dir_the_text_cannot_hold():
    # "runs/ #1" would be written to a checkpoint and read back as "runs/"
    for bad in ("runs/ #1", "runs/a\nb", "runs/a\rb", " runs", "runs/ ", "\t"):
        cfg = ModelConfig.tiny()
        cfg.data.dir = bad
        with pytest.raises(ConfigError, match="data.dir"):
            cfg.validate()
    for good in ("runs/scan 1/data", "runs/#1/data"):
        cfg = ModelConfig.tiny()
        cfg.data.dir = good
        assert parse_config(serialize_config(cfg.validate())).data.dir == good


# ---------------------------------------------------------------- ablation

def test_ablated_flags():
    cfg = ModelConfig.tiny()
    ab = cfg.ablated(["fn", "mca"])
    assert ab.model.use_fn is False
    assert ab.model.use_mca is False
    assert ab.model.use_ut is True
    # original untouched, levels deep-copied
    assert cfg.model.use_fn is True
    ab.levels[0].m = 99
    assert cfg.levels[0].m == 16


def test_ablated_unknown_flag():
    with pytest.raises(ConfigError, match="attention"):
        ModelConfig.tiny().ablated(["attention"])


def test_ablation_flag_list_is_stable():
    assert ABLATION_FLAGS == ("fn", "psi_pre", "psi_post", "ut", "mca")


# ------------------------------------------------------- pinned text format
# Every checkpoint stores its config as this text, so a change to it breaks
# reading older checkpoints.

TINY_TEXT = (
    "level1.m=16\n"
    "level1.radius=0.3\n"
    "level1.k=4\n"
    "level1.d_out=6\n"
    "level2.m=12\n"
    "level2.radius=0.5\n"
    "level2.k=4\n"
    "level2.d_out=8\n"
    "level3.m=10\n"
    "level3.radius=0.7\n"
    "level3.k=4\n"
    "level3.d_out=10\n"
    "level4.m=8\n"
    "level4.radius=1.0\n"
    "level4.k=4\n"
    "level4.d_out=12\n"
    "level5.m=6\n"
    "level5.radius=1.5\n"
    "level5.k=4\n"
    "level5.d_out=14\n"
    "model.compress_dim=4\n"
    "model.threshold=0.5\n"
    "model.adaptive_threshold=false\n"
    "model.use_fn=true\n"
    "model.use_psi_pre=true\n"
    "model.use_psi_post=true\n"
    "model.use_ut=true\n"
    "model.use_mca=true\n"
    "model.seed=0\n"
    "optim.lr=0.0005\n"
    "optim.beta1=0.9\n"
    "optim.beta2=0.999\n"
    "optim.eps=1e-08\n"
    "optim.batch_size=4\n"
    "data.patch_size=64\n"
    "data.scene_points=64\n"
    "data.train_scenes=2\n"
    "data.test_scenes=2\n"
    "data.regime=default\n"
    "data.seed=0\n"
    "data.dir=\n"
    "train.epochs=5\n"
    "train.checkpoint_every=0\n"
    "train.eval_every=10\n"
    "train.target_iou=0.0\n"
    "train.target_mae=1.0\n"
)

DESK_OVERRIDDEN_TEXT = (
    "level1.m=256\n"
    "level1.radius=0.1\n"
    "level1.k=8\n"
    "level1.d_out=32\n"
    "level2.m=100\n"
    "level2.radius=0.2\n"
    "level2.k=8\n"
    "level2.d_out=48\n"
    "level3.m=64\n"
    "level3.radius=0.4\n"
    "level3.k=8\n"
    "level3.d_out=64\n"
    "level4.m=32\n"
    "level4.radius=0.8\n"
    "level4.k=8\n"
    "level4.d_out=96\n"
    "level5.m=16\n"
    "level5.radius=2.25\n"
    "level5.k=8\n"
    "level5.d_out=128\n"
    "model.compress_dim=8\n"
    "model.threshold=0.5\n"
    "model.adaptive_threshold=false\n"
    "model.use_fn=false\n"
    "model.use_psi_pre=true\n"
    "model.use_psi_post=true\n"
    "model.use_ut=true\n"
    "model.use_mca=true\n"
    "model.seed=0\n"
    "optim.lr=0.001\n"
    "optim.beta1=0.9\n"
    "optim.beta2=0.999\n"
    "optim.eps=1e-08\n"
    "optim.batch_size=4\n"
    "data.patch_size=512\n"
    "data.scene_points=512\n"
    "data.train_scenes=8\n"
    "data.test_scenes=32\n"
    "data.regime=multi\n"
    "data.seed=0\n"
    "data.dir=\n"
    "train.epochs=50\n"
    "train.checkpoint_every=0\n"
    "train.eval_every=5\n"
    "train.target_iou=0.95\n"
    "train.target_mae=0.05\n"
)


def test_tiny_serializes_to_pinned_text():
    assert serialize_config(ModelConfig.tiny()) == TINY_TEXT
    assert parse_config(TINY_TEXT) == ModelConfig.tiny()


def test_overridden_ablated_desk_serializes_to_pinned_text():
    cfg = parse_config(
        "preset=desk\n"
        "level2.m=100\n"
        "level5.radius=2.25\n"
        "model.compress_dim=8\n"
        "optim.lr=0.001\n"
        "data.regime=multi\n"
        "train.epochs=50\n"
    ).ablated(["fn"])
    assert serialize_config(cfg) == DESK_OVERRIDDEN_TEXT
    assert parse_config(DESK_OVERRIDDEN_TEXT) == cfg


def test_readme_lists_exactly_the_config_keys():
    # the "- `section`: key, key" lines of README's config section
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config files", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for m in re.finditer(r"^- `(\w+)`: (.+)$", section, re.M):
        sections = ([f"level{i}" for i in range(1, N_LEVELS + 1)]
                    if m[1] == "levelN" else [m[1]])
        listed |= {f"{sec}.{key.strip()}" for sec in sections for key in m[2].split(",")}
    keys = {line.split("=", 1)[0]
            for line in serialize_config(ModelConfig.default()).splitlines()}
    assert listed == keys, (sorted(listed - keys), sorted(keys - listed))
