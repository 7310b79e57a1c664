"""The benchmark's per-layer spans fire on the model as it is written.

perfbench/spans.py wraps module functions at the names their callers look
them up under. A refactor that inlines or renames one of those calls would
leave its span silently empty, so the tracer is run here unchanged on a tiny
model and every span name it reports per layer must be recorded.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import Tracer  # noqa: E402
from psformer import encoder  # noqa: E402
from psformer.config import ModelConfig  # noqa: E402
from psformer.model import PSFormer  # noqa: E402
from psformer.training import gen_synthetic_scene  # noqa: E402

EXPECTED_SPANS = (
    {f"kernels.{k}" for k in ("fps", "ball_query", "three_nn")}
    | {"model.build_geometry", "model.forward"}
    | {f"encoder.level{i}" for i in range(1, 6)}
    | {f"attention.{k}" for k in ("psi_pre", "psi_post", "ut")}
    | {"featurenorm.fn_apply"}
    | {f"decoder.ut{i}" for i in range(1, 6)}
    | {"decoder.mca", "decoder.head"}
)


def test_every_per_layer_span_fires_on_a_tiny_model():
    assert len(EXPECTED_SPANS) == 21
    cfg = ModelConfig.tiny()
    model = PSFormer(cfg, seed=0)
    cloud = gen_synthetic_scene(0, cfg.data)
    pct_block = encoder.pct_block
    tracer = Tracer()
    tracer.bind(model)
    tracer.install()
    try:
        tracer.op = "op0"
        model.forward(cloud, geometry=model.build_geometry(cloud))
    finally:
        tracer.uninstall()
    recorded = {name for name, *_ in tracer.spans}
    assert EXPECTED_SPANS <= recorded, sorted(EXPECTED_SPANS - recorded)
    assert "unbound" not in recorded
    assert encoder.pct_block is pct_block
