"""Model/run configuration: typed sections, presets, and a flat key=value
text format with dotted section prefixes (diff-friendly, zero-dependency).

Unknown keys are rejected by name. Level plans, radii, and the desk/tiny
presets are implementation defaults, overridable per key. Decoder widths are
not configurable: each fuse targets its skip level's width and the stem lifts
the 9 input channels to the level-1 width.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

N_LEVELS = 5

ABLATION_FLAGS = ("fn", "psi_pre", "psi_post", "ut", "mca")


class ConfigError(ValueError):
    """Invalid configuration text or field values."""


@dataclass
class LevelSpec:
    m: int
    radius: float    # normalized units, rescaled by cloud extent
    k: int
    d_out: int


@dataclass
class ModelSection:
    compress_dim: int = 32       # per-level width inside the scene context
    threshold: float = 0.5
    adaptive_threshold: bool = False   # eval-time threshold = min(1, 2*mean p)
    use_fn: bool = True
    use_psi_pre: bool = True
    use_psi_post: bool = True
    use_ut: bool = True          # the transformer inside each UT block
    use_mca: bool = True         # scene context fed to the head
    seed: int = 0


@dataclass
class OptimSection:
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 4          # scenes per optimizer step


@dataclass
class DataSection:
    patch_size: int = 4096       # prediction chunk size for large inputs
    scene_points: int = 4096     # synthetic scene size
    train_scenes: int = 8
    test_scenes: int = 32
    regime: str = "default"      # default | small | multi
    seed: int = 0
    dir: str = ""                # optional directory of labeled PLY patches


@dataclass
class TrainSection:
    epochs: int = 800
    checkpoint_every: int = 0    # epochs between periodic checkpoints; 0 = end only
    eval_every: int = 10         # epochs between train-set metric probes
    target_iou: float = 0.0      # early stop once reached (0 disables)
    target_mae: float = 1.0      # joint early-stop condition with target_iou


@dataclass
class ModelConfig:
    levels: list = field(default_factory=list)   # N_LEVELS LevelSpec entries
    model: ModelSection = field(default_factory=ModelSection)
    optim: OptimSection = field(default_factory=OptimSection)
    data: DataSection = field(default_factory=DataSection)
    train: TrainSection = field(default_factory=TrainSection)

    # presets ----------------------------------------------------------

    @classmethod
    def default(cls) -> "ModelConfig":
        """Full-scale plan for 4096-point patches."""
        cfg = cls(levels=[
            LevelSpec(1024, 0.1, 16, 64),
            LevelSpec(256, 0.2, 16, 128),
            LevelSpec(64, 0.4, 16, 256),
            LevelSpec(16, 0.8, 16, 512),
            LevelSpec(8, 1.6, 16, 512),
        ])
        cfg.validate()
        return cfg

    @classmethod
    def desk(cls) -> "ModelConfig":
        """Small plan sized for 512-point synthetic scenes on one CPU core.

        Level 1 keeps half the cloud: object boundaries are decided by the
        finest seeds, and coarser plans stall in the low 0.9s IoU on the
        varied-background scenes. lr above 5e-4 destabilizes training here.
        """
        cfg = cls(levels=[
            LevelSpec(256, 0.1, 8, 32),
            LevelSpec(128, 0.2, 8, 48),
            LevelSpec(64, 0.4, 8, 64),
            LevelSpec(32, 0.8, 8, 96),
            LevelSpec(16, 1.6, 8, 128),
        ])
        cfg.model.compress_dim = 16
        cfg.optim.lr = 5e-4
        cfg.data.patch_size = 512
        cfg.data.scene_points = 512
        cfg.train.epochs = 200
        cfg.train.eval_every = 5
        cfg.train.target_iou = 0.95
        cfg.train.target_mae = 0.05
        cfg.validate()
        return cfg

    @classmethod
    def tiny(cls) -> "ModelConfig":
        """64-point plan for gradient checking and fast tests."""
        cfg = cls(levels=[
            LevelSpec(16, 0.3, 4, 6),
            LevelSpec(12, 0.5, 4, 8),
            LevelSpec(10, 0.7, 4, 10),
            LevelSpec(8, 1.0, 4, 12),
            LevelSpec(6, 1.5, 4, 14),
        ])
        cfg.model.compress_dim = 4
        cfg.data.patch_size = 64
        cfg.data.scene_points = 64
        cfg.data.train_scenes = 2
        cfg.data.test_scenes = 2
        cfg.train.epochs = 5
        cfg.validate()
        return cfg

    # derived ----------------------------------------------------------

    @property
    def level_widths(self) -> list:
        return [lv.d_out for lv in self.levels]

    @property
    def context_width(self) -> int:
        return N_LEVELS * self.model.compress_dim

    def ablated(self, flags) -> "ModelConfig":
        """Copy with the named stages disabled. flags ⊆ {fn, psi_pre,
        psi_post, ut, mca}."""
        for f in flags:
            if f not in ABLATION_FLAGS:
                raise ConfigError(
                    f"unknown ablation flag {f!r}; valid: {', '.join(ABLATION_FLAGS)}")
        model = replace(self.model, **{f"use_{f}": False for f in flags})
        return replace(self, model=model,
                       levels=[replace(lv) for lv in self.levels])

    # validation --------------------------------------------------------

    def validate(self) -> "ModelConfig":
        if len(self.levels) != N_LEVELS:
            raise ConfigError(f"need exactly {N_LEVELS} levels, got {len(self.levels)}")
        for section, target in _sections(self).items():
            for f in fields(target):
                value = getattr(target, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{section}.{f.name} must be finite, got {value}")
        for i, lv in enumerate(self.levels, start=1):
            if lv.m < 1 or lv.k < 1 or lv.d_out < 1:
                raise ConfigError(f"level{i}: m, k, d_out must be positive")
            if lv.radius <= 0:
                raise ConfigError(f"level{i}: radius must be positive")
        ms = [lv.m for lv in self.levels]
        if any(a <= b for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"level point counts must strictly decrease, got {ms}")
        ds = [lv.d_out for lv in self.levels]
        if any(a > b for a, b in zip(ds, ds[1:])):
            raise ConfigError(f"level widths must be non-decreasing, got {ds}")
        if self.model.compress_dim < 1:
            raise ConfigError("model.compress_dim must be positive")
        if not 0.0 < self.model.threshold < 1.0:
            raise ConfigError(f"model.threshold must be in (0,1), got {self.model.threshold}")
        if self.optim.lr <= 0:
            raise ConfigError("optim.lr must be positive")
        for key in ("beta1", "beta2"):
            value = getattr(self.optim, key)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"optim.{key} must be in [0,1), got {value}")
        if not self.optim.eps > 0:
            raise ConfigError(f"optim.eps must be positive, got {self.optim.eps}")
        if self.optim.batch_size < 1:
            raise ConfigError("optim.batch_size must be positive")
        if self.data.patch_size < self.levels[0].m:
            raise ConfigError(
                f"data.patch_size {self.data.patch_size} is below the level-1 "
                f"point count {self.levels[0].m}")
        if self.data.regime not in ("default", "small", "multi"):
            raise ConfigError(f"data.regime must be default|small|multi, got {self.data.regime!r}")
        d = self.data.dir
        if re.search(r"\s#", d) or d != d.strip() or len(d.splitlines()) > 1:
            raise ConfigError(f"data.dir {d!r} cannot hold ' #', a line break or edge blanks")
        if self.train.epochs < 0:
            raise ConfigError("train.epochs must be >= 0")
        return self


_PRESETS = {
    "default": ModelConfig.default,
    "desk": ModelConfig.desk,
    "tiny": ModelConfig.tiny,
}


def _parse_value(raw: str, kind: type, key: str):
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    return raw


def parse_config(text: str) -> ModelConfig:
    """key=value lines; a '#' at the start of a line or after a blank starts a
    comment; blank lines ignored. A leading 'preset=NAME' line selects the
    base (default preset otherwise); later keys override it. Unknown keys
    raise ConfigError naming the key."""
    cfg = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key == "preset":
            if cfg is not None:
                raise ConfigError(f"line {lineno}: preset must come before other keys")
            if raw not in _PRESETS:
                raise ConfigError(
                    f"line {lineno}: unknown preset {raw!r}; valid: {', '.join(_PRESETS)}")
            cfg = _PRESETS[raw]()
            continue
        if cfg is None:
            cfg = ModelConfig.default()
        _apply_key(cfg, key, raw)
    if cfg is None:
        cfg = ModelConfig.default()
    cfg.validate()
    return cfg


def _sections(cfg: ModelConfig) -> dict:
    """The config text's sections in file order, each a dataclass whose fields
    are its keys: level1..level5, model, optim, data, train."""
    levels = {f"level{i}": lv for i, lv in enumerate(cfg.levels, start=1)}
    return {**levels, "model": cfg.model, "optim": cfg.optim, "data": cfg.data,
            "train": cfg.train}


def _apply_key(cfg: ModelConfig, key: str, raw: str) -> None:
    section, _, name = key.partition(".")
    target = _sections(cfg).get(section)
    if target is None and section.startswith("level") and section[len("level"):].isdigit():
        raise ConfigError(f"{key}: level index must be 1..{N_LEVELS}")
    if target is None or name not in {f.name for f in fields(target)}:
        raise ConfigError(f"unknown config key {key!r}")
    # A key's type is its current value's type; every preset gives each float
    # field a float value.
    setattr(target, name, _parse_value(raw, type(getattr(target, name)), key))


def serialize_config(cfg: ModelConfig) -> str:
    lines = []
    for section, target in _sections(cfg).items():
        for f in fields(target):
            v = getattr(target, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{section}.{f.name}={v}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
