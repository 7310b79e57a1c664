"""Timing comparison of the numba and pure-numpy geometry kernels.

The backend is frozen when psformer._kernels is imported (PSF_NUMBA), so this
script re-invokes itself once per backend and prints a side-by-side table:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --points 8192 --repeats 9

Numba JIT compilation happens during warmup and is excluded from timings.
Ball query runs on farthest-point seeds drawn once before timing, so its
column excludes sampling. When numba is not active only the numpy column is
printed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

KERNELS = ("fps", "ball_query", "three_nn")


def _time_kernels(points: int, repeats: int) -> dict:
    from psformer._kernels import ACTIVE_BACKEND, ball_query, fps_indices, three_nn

    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 1, (points, 3))
    m = max(1, points // 4)
    radius = 2.0 * (points ** (-1.0 / 3.0))   # ~8 expected neighbors
    k = 32
    seeds = fps_indices(coords, m)

    runs = {
        "fps": lambda: fps_indices(coords, m),
        "ball_query": lambda: ball_query(coords, seeds, radius, k),
        "three_nn": lambda: three_nn(coords, coords[:m]),
    }
    for fn in runs.values():
        fn()                                   # warmup; JIT compiles here
    result = {"backend": ACTIVE_BACKEND}
    for name, fn in runs.items():
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        result[name] = float(np.median(samples))
    return result


def _run_backend(flag: str, args) -> dict:
    env = dict(os.environ, PSF_NUMBA=flag)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--inner",
         "--points", str(args.points), "--repeats", str(args.repeats)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.inner:
        print(json.dumps(_time_kernels(args.points, args.repeats)))
        return 0

    numba = _run_backend("1", args)
    print(f"{args.points} points, median of {args.repeats} runs")
    if numba["backend"] != "numba":
        # PSF_NUMBA=1 fell back to numpy: that run is the numpy column.
        print("numba not active: numpy kernels only", file=sys.stderr)
        print(f"{'kernel':<12}{'numpy':>12}")
        for name in KERNELS:
            print(f"{name:<12}{numba[name] * 1e3:>10.2f}ms")
        return 0

    numpy_ = _run_backend("0", args)
    print(f"{'kernel':<12}{'numba':>12}{'numpy':>12}{'speedup':>10}")
    for name in KERNELS:
        a, b = numba[name], numpy_[name]
        print(f"{name:<12}{a * 1e3:>10.2f}ms{b * 1e3:>10.2f}ms"
              f"{b / a:>9.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
