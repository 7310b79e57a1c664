"""In-memory spans around psformer's layers, recorded from outside the package.

Each traced layer is a public function replaced, while tracing is installed,
by a wrapper at the name its caller looks it up under (for example
``encoder.trans_block`` rather than ``attention.trans_block``). A wrapper
records one span (name, start, end, parent, op) per call and, for kernels and
file I/O, the work done as counts computed from argument shapes and file
sizes. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

# Span names whose self time (duration minus direct children) is reported
# besides the inclusive time, mapped to the metric that carries it.
SELF_METRICS = {
    **{f"encoder.level{i}": f"encoder.level{i}_self_s" for i in range(1, 6)},
    **{f"decoder.ut{i}": f"decoder.ut{i}_self_s" for i in range(1, 6)},
    "model.forward": "model.forward_self_s",
    "cli.predict_cloud": "cli.chunk_self_s",
}

# Span names timed once per op, reported as the median over traced ops of
# their per-op total.
OP_SPANS = (
    ["kernels.fps", "kernels.ball_query", "kernels.three_nn",
     "model.build_geometry", "model.forward",
     "attention.psi_pre", "attention.psi_post", "attention.ut",
     "featurenorm.fn_apply", "decoder.mca", "decoder.head"]
    + [f"encoder.level{i}" for i in range(1, 6)]
    + [f"decoder.ut{i}" for i in range(1, 6)]
    + ["autodiff.backward", "training.adam_step", "cli.predict_cloud",
       "plyio.parse", "plyio.write"]
)
OP_COUNTS = ("kernels.calls", "kernels.pairs", "cli.chunks", "plyio.bytes",
             "autodiff.graph_nodes", "autodiff.graph_bytes")
COUNT_UNITS = {"plyio.bytes": "B", "autodiff.graph_bytes": "B"}


class Tracer:
    """Spans and counts of one process, kept in memory until the run ends.

    ``op`` labels every span and count recorded until it changes: the runner
    sets it to ``setup<r>`` or ``op<j>``. A span's parent is the span open
    when it started, so nesting follows the call stack.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counts = []         # (op, name, value)
        self.op = None
        self._stack = []
        self._patches = []
        self._names = {}         # id(parameter object) -> span name

    # recording ----------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """fn timed as a span; name is a string or a function of the call's
        arguments; count(args) yields (counter, value) pairs after the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            rec = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                if count is not None:
                    for key, value in count(args):
                        tracer.counts.append((tracer.op, key, value))

        return wrapper

    def add(self, key: str, value) -> None:
        self.counts.append((self.op, key, value))

    # patching -----------------------------------------------------------

    def _patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def bind(self, model) -> None:
        """Name the parameter objects of model so a shared function such as
        trans_block can tell which stage called it."""
        names = {}
        for i, p in enumerate(model.level_params, start=1):
            names[id(p)] = f"encoder.level{i}"
            names[id(p.psi_pre)] = "attention.psi_pre"
            names[id(p.psi_post)] = "attention.psi_post"
        for i, ut in enumerate(model.dec_params.uts, start=1):
            names[id(ut)] = f"decoder.ut{i}"
        self._names = names

    def install(self) -> None:
        if self._patches:
            return
        from psformer import (_kernels, autodiff, checkpoint, cli, decoder,
                              encoder, model, plyio, training)

        def kernel(pairs):
            return lambda args: (("kernels.calls", 1), ("kernels.pairs", pairs(args)))

        fps = kernel(lambda a: len(a[0]) * int(a[1]))
        self._patch(_kernels, "fps_indices", "kernels.fps", fps)
        self._patch(cli, "fps_indices", "kernels.fps", fps)
        self._patch(_kernels, "ball_query", "kernels.ball_query",
                    kernel(lambda a: len(a[1]) * len(a[0])))
        self._patch(_kernels, "three_nn", "kernels.three_nn",
                    kernel(lambda a: len(a[0]) * len(a[1])))

        names = lambda pos: lambda args: self._names.get(id(args[pos]), "unbound")
        self._patch(model.PSFormer, "build_geometry", "model.build_geometry")
        self._patch(model.PSFormer, "forward", "model.forward",
                    lambda args: (("cli.chunks", 1),) if self._in("cli.predict_cloud") else ())
        self._patch(encoder, "pct_block", names(3))
        self._patch(encoder, "trans_block", names(1))
        self._patch(encoder, "fn_apply", "featurenorm.fn_apply")
        self._patch(decoder, "ut_block", names(2))
        self._patch(decoder, "trans_block", "attention.ut")
        self._patch(model, "mca", "decoder.mca")
        self._patch(model, "predict_head", "decoder.head")
        self._patch(autodiff, "backward", "autodiff.backward")
        self._patch(training.Adam, "step", "training.adam_step")
        self._patch(cli, "predict_cloud", "cli.predict_cloud")
        self._patch(plyio, "parse_ply", "plyio.parse",
                    lambda args: (("plyio.bytes", os.path.getsize(args[0])),))
        self._patch(plyio, "write_ply", "plyio.write",
                    lambda args: (("plyio.bytes", os.path.getsize(args[1])),))
        self._patch(checkpoint, "model_from_checkpoint", "checkpoint.load")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # summary ------------------------------------------------------------

    def per_op(self):
        """op -> {metric: value}: inclusive and self seconds per span name,
        summed within the op, plus the op's counts."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name + "_s"] += end - start
            if name in SELF_METRICS:
                out[op][SELF_METRICS[name]] += end - start - child[i]
        for op, key, value in self.counts:
            out[op][key] += value
        return out

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def op_metrics(tracer: Tracer, ops) -> dict:
    """Median over the given ops of every per-op layer metric, zero for a
    layer the workload does not run inside its ops."""
    table = tracer.per_op()
    keys = ([n + "_s" for n in OP_SPANS] + list(SELF_METRICS.values())
            + list(OP_COUNTS))
    out = {}
    for key in keys:
        unit = "s" if key.endswith("_s") else COUNT_UNITS.get(key, "count")
        out[key] = {"value": statistics.median(table[op][key] for op in ops),
                    "unit": unit}
    return out


def setup_metrics(tracer: Tracer, setups) -> dict:
    """Median over traced set-ups of the layers that run while setting up."""
    table = tracer.per_op()
    kernels = ("kernels.fps_s", "kernels.ball_query_s", "kernels.three_nn_s")
    columns = {
        "checkpoint.load_s": ("checkpoint.load_s",),
        "setup.build_geometry_s": ("model.build_geometry_s",),
        "setup.kernels_s": kernels,
    }
    return {metric: {"value": statistics.median(sum(table[s][k] for k in keys)
                                                for s in setups),
                     "unit": "s"}
            for metric, keys in columns.items()}
