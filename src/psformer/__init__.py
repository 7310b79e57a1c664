"""Point-cloud salient object detection with a transformer encoder-decoder."""

__version__ = "0.1.0"

from .autodiff import (
    CheckReport,
    ContractError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    no_grad,
)
from .checkpoint import CheckpointError, load_checkpoint, model_from_checkpoint, save_checkpoint
from .config import ConfigError, ModelConfig, load_config, parse_config, serialize_config
from .metrics import MetricsReport, evaluate, parse_report, write_report
from .model import PSFormer
from .plyio import PlyParseError, parse_ply, write_ply
from .pointcloud import PointCloud, normalize_cloud
from .training import Adam, eval_model, gen_synthetic_scene, run_ablation, train_model

__all__ = [
    "Adam",
    "CheckReport",
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "MetricsReport",
    "ModelConfig",
    "PSFormer",
    "PlyParseError",
    "PointCloud",
    "ShapeError",
    "Tensor",
    "backward",
    "eval_model",
    "evaluate",
    "gen_synthetic_scene",
    "grad_check",
    "load_checkpoint",
    "load_config",
    "model_from_checkpoint",
    "no_grad",
    "normalize_cloud",
    "parse_config",
    "parse_ply",
    "parse_report",
    "run_ablation",
    "save_checkpoint",
    "serialize_config",
    "train_model",
    "write_ply",
    "write_report",
    "__version__",
]
