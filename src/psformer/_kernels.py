"""Neighbor-search kernels: farthest point sampling, ball query, 3-NN.

All distance comparisons use squared distances, summed (dx*dx + dy*dy) + dz*dz.
Every selection is a total order, which keeps results stable under input
permutation: ball query and 3-NN order candidates by (distance, index), FPS
breaks ties lexicographically by coordinates and then by index.

The kernels are plain numpy and have one selection rule: the first argmin or
argmax over an order fixed up front. Ball query, 3-NN and nearest_index
share one k-nearest search (`_nearest`), which takes argmin k times per
block of distance rows and sets each pick to inf; argmin's first minimum is
the lowest index among equal distances. FPS sorts the points by (x, y, z,
index) once and runs on that order, so argmax's first maximum is the tie
rule. Distances come in blocks of rows of at most BLOCK_PAIRS entries
(`_d2_blocks`), so no (M, N) matrix is ever held. The block size changes
only how much is computed at once, never the result.
"""

from __future__ import annotations

import numpy as np

# The one kernel backend, named in benchmark environment reports.
ACTIVE_BACKEND = "numpy"


# Most entries one block of a distance matrix may hold: 2^16 float64 values,
# 512 KB per block-sized buffer, so a block and its scratch stay in L2 cache.
BLOCK_PAIRS = 1 << 16


def _d2_blocks(a: np.ndarray, b: np.ndarray):
    """Yield (lo, hi, d2) over blocks of rows of a, where d2[i, j] is the
    squared distance from a[lo + i] to b[j].

    Each entry is summed (dx*dx + dy*dy) + dz*dz, the same order as FPS's
    running distances. d2 is a buffer reused by the next block: consume it
    (or overwrite it) before asking for the next one.
    """
    n = b.shape[0]
    rows = max(1, min(a.shape[0], BLOCK_PAIRS // max(n, 1)))
    bt = np.ascontiguousarray(b.T)
    buf = np.empty((rows, n))
    tmp = np.empty((rows, n))
    for lo in range(0, a.shape[0], rows):
        hi = min(lo + rows, a.shape[0])
        d2, t = buf[:hi - lo], tmp[:hi - lo]
        np.subtract(a[lo:hi, 0:1], bt[0], out=d2)
        np.multiply(d2, d2, out=d2)
        for c in (1, 2):
            np.subtract(a[lo:hi, c:c + 1], bt[c], out=t)
            np.multiply(t, t, out=t)
            np.add(d2, t, out=d2)
        yield lo, hi, d2


# farthest point sampling -------------------------------------------------


def fps_indices(coords: np.ndarray, m: int) -> np.ndarray:
    """Greedy max-min sample of m point indices.

    Seeded at the point farthest from the (permutation-invariant) centroid;
    every later pick maximizes distance to the selected set.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if m > n:
        raise ValueError(f"fps: cannot sample {m} of {n} points")
    # lexsort is stable, so points run in (x, y, z, index) order: the first
    # farthest point argmax finds is the one the tie rule picks. Summing in
    # that order makes the centroid exactly permutation-invariant.
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    pts = coords[order]
    out = np.empty(m, dtype=np.int64)
    xyz = [np.ascontiguousarray(pts[:, c]) for c in range(3)]
    dist = np.empty(n)
    new = np.empty(n)
    tmp = np.empty(n)

    def sq_dist_to(p, into):
        # (dx*dx + dy*dy) + dz*dz against the point p, written into `into`
        np.subtract(xyz[0], p[0], out=into)
        np.multiply(into, into, out=into)
        for c in (1, 2):
            np.subtract(xyz[c], p[c], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(into, tmp, out=into)

    sq_dist_to((pts.sum(axis=0) / n).tolist(), dist)
    for t in range(m):
        # Chosen points hold -inf, so argmax finds the first farthest
        # available point.
        pick = int(dist.argmax())
        dist[pick] = -np.inf
        out[t] = order[pick]
        if t + 1 < m:
            sq_dist_to(pts[pick].tolist(), new)
            np.minimum(dist, new, out=dist)
    return out


# k nearest: nearest_index, ball query and 3-NN ---------------------------


def _nearest(dst: np.ndarray, src: np.ndarray, k: int, dists: bool = True):
    """Indices and squared distances (None unless dists) of the min(k, len(src))
    nearest sources per destination, each row in (distance, index) order."""
    kk = min(k, src.shape[0])
    idx = np.empty((dst.shape[0], kk), dtype=np.int64)
    dsel = np.empty((dst.shape[0], kk)) if dists else None
    for lo, hi, d2 in _d2_blocks(dst, src):
        rows = np.arange(hi - lo)
        for s in range(kk):
            # argmin returns the first minimum: (distance, index) order. A
            # masked pick loses to every finite distance, and distances are
            # finite for coordinates within about 1e153.
            j = d2.argmin(axis=1)
            idx[lo:hi, s] = j
            if dists:
                dsel[lo:hi, s] = d2[rows, j]
            if s + 1 < kk:
                d2[rows, j] = np.inf
    return idx, dsel


def nearest_index(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest target for every point; ties go to the lowest
    index. Memory stays at one distance block whatever the point count."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    return _nearest(points, targets, 1, dists=False)[0][:, 0]


def ball_query(coords: np.ndarray, centroid_idx: np.ndarray, radius: float, k: int):
    """Up-to-k nearest in-radius neighbor indices per centroid, plus the true
    in-radius count capped at k. Rows short of k are padded with the nearest
    qualifying index (the centroid itself qualifies at distance 0)."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    centroid_idx = np.ascontiguousarray(centroid_idx, dtype=np.int64)
    k = int(k)
    near, d2 = _nearest(coords[centroid_idx], coords, k)
    # the k nearest run in distance order, so the in-radius ones come first
    inside = d2 <= float(radius) * float(radius)
    counts = inside.sum(axis=1)
    pad = np.where(counts > 0, near[:, 0], 0)[:, None]
    idx = np.repeat(pad, k, axis=1)
    idx[:, :near.shape[1]] = np.where(inside, near, pad)
    return idx, counts


# 3-nearest-neighbor interpolation weights ----------------------------------

_COINCIDENT_D2 = 1e-12
_IDW_EPS = 1e-8


def three_nn(dst: np.ndarray, src: np.ndarray):
    """Indices and normalized inverse-square-distance weights of the (up to)
    3 nearest sources per destination; a coincident source takes weight 1."""
    dst = np.ascontiguousarray(dst, dtype=np.float64)
    src = np.ascontiguousarray(src, dtype=np.float64)
    idx, dsel = _nearest(dst, src, 3)
    w = 1.0 / (dsel + _IDW_EPS)
    w = w / w.sum(axis=1, keepdims=True)
    hit = dsel[:, 0] < _COINCIDENT_D2
    if hit.any():
        w[hit] = 0.0
        w[hit, 0] = 1.0
    return idx, w
