"""Timings of the numpy geometry kernels, one median per kernel call:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --points 8192 --repeats 9
    python3 benchmarks/bench_kernels.py --preset default

Without --preset it times each kernel on uniform random points: FPS of
a quarter of the points, ball query (k=32) on those seeds, and 3-NN from the
seeds back to every point. With --preset it times every kernel call of one
`PSFormer.build_geometry` on a synthetic scene of that preset, at the real
shapes: FPS and ball query per encoder level, and 3-NN per UT interpolation
step. The per-kernel totals then add up to one geometry build, which is timed
too.

Each call runs once untimed before its timed repeats. Ball query runs on
farthest-point seeds drawn once before timing, so its rows exclude sampling.
"""

import argparse
import sys
import time

import numpy as np


def _median_time(fn, repeats: int) -> float:
    fn()                                       # warmup
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _synthetic_calls(points: int):
    from psformer._kernels import ball_query, fps_indices, three_nn

    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 1, (points, 3))
    m = max(1, points // 4)
    radius = 2.0 * (points ** (-1.0 / 3.0))   # ~8 expected neighbors
    seeds = fps_indices(coords, m)
    return [
        ("fps", "fps", lambda: fps_indices(coords, m)),
        ("ball_query", "ball_query", lambda: ball_query(coords, seeds, radius, 32)),
        ("three_nn", "three_nn", lambda: three_nn(coords, coords[:m])),
    ]


def _preset_calls(preset: str):
    """(label, kernel, call) for every kernel call of one build_geometry,
    in the order build_geometry makes them, plus the build itself."""
    from psformer._kernels import ball_query, fps_indices, three_nn
    from psformer.config import ModelConfig
    from psformer.model import PSFormer
    from psformer.training import gen_synthetic_scene

    cfg = getattr(ModelConfig, preset)()
    cloud = gen_synthetic_scene(0, cfg.data)
    scale = cloud.extent if cloud.extent > 0 else 1.0
    calls, chain, coords = [], [], cloud.coords
    for i, spec in enumerate(cfg.levels, start=1):
        n, seeds = coords.shape[0], fps_indices(coords, spec.m)
        r = spec.radius * scale
        calls.append((f"L{i} fps {n}->{spec.m}", "fps",
                      lambda c=coords, m=spec.m: fps_indices(c, m)))
        calls.append((f"L{i} ball_query {spec.m}x{n} k={spec.k}", "ball_query",
                      lambda c=coords, s=seeds, r=r, k=spec.k: ball_query(c, s, r, k)))
        coords = coords[seeds]
        chain.append(coords)
    dsts = chain[-2::-1] + [cloud.coords]
    for i, (src, dst) in enumerate(zip(chain[::-1], dsts), start=1):
        calls.append((f"UT{i} three_nn {dst.shape[0]}<-{src.shape[0]}", "three_nn",
                      lambda d=dst, s=src: three_nn(d, s)))
    model = PSFormer(cfg, seed=0)
    calls.append(("build_geometry", None, lambda: model.build_geometry(cloud)))
    return calls


def _time_kernels(args) -> list:
    calls = _preset_calls(args.preset) if args.preset else _synthetic_calls(args.points)
    rows, totals = [], {}
    for label, kernel, fn in calls:
        t = _median_time(fn, args.repeats)
        rows.append((label, t))
        if kernel is not None:
            totals[kernel] = totals.get(kernel, 0.0) + t
    if args.preset:
        rows += [(f"{k} total", t) for k, t in totals.items()]
        rows.append(("kernels total", sum(totals.values())))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--preset", choices=("tiny", "desk", "default"),
                        help="time the kernel calls of one build_geometry")
    args = parser.parse_args()

    rows = _time_kernels(args)
    what = f"preset {args.preset}" if args.preset else f"{args.points} points"
    print(f"{what}, median of {args.repeats} runs")
    width = max(len(label) for label, _ in rows) + 2
    print(f"{'kernel':<{width}}{'numpy':>12}")
    for label, t in rows:
        print(f"{label:<{width}}{t * 1e3:>10.2f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
