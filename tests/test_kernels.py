"""Geometry kernels against brute-force oracles.

Correctness is established against independent pure-python
reimplementations. The blocked kernels must also be bit-identical to the
full-row argsort formulations they replaced, which are kept below as oracles.
"""

import tracemalloc

import numpy as np
import pytest

from psformer import _kernels
from psformer._kernels import (_COINCIDENT_D2, _IDW_EPS, ball_query,
                               fps_indices, nearest_index, three_nn)
from psformer.config import ModelConfig
from psformer.model import PSFormer
from psformer.training import gen_synthetic_scene


def _fps_reference(coords, m):
    """Greedy max-min sampling, pure python: start at the point farthest from
    the centroid (computed over lexicographically sorted points), break ties
    lexicographically then by index."""
    pts = [tuple(p) for p in coords]
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    centroid = np.zeros(3)
    for i in order:
        centroid += coords[i]
    centroid /= len(pts)

    def d2(p, q):
        dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
        return dx * dx + dy * dy + dz * dz

    dist = [d2(p, centroid) for p in coords]
    chosen = []
    for _ in range(m):
        best = max((dist[i], ) for i in range(len(pts)) if i not in set(chosen))[0]
        cands = [i for i in range(len(pts))
                 if i not in set(chosen) and dist[i] == best]
        pick = min(cands, key=lambda i: (pts[i], i))
        chosen.append(pick)
        dist = [min(dist[i], d2(coords[i], coords[pick])) for i in range(len(pts))]
    return np.array(chosen)


def _ball_reference(coords, centroid_idx, radius, k):
    r2 = radius * radius
    idx = np.zeros((len(centroid_idx), k), dtype=np.int64)
    counts = np.zeros(len(centroid_idx), dtype=np.int64)
    for row, c in enumerate(centroid_idx):
        cands = []
        for j in range(len(coords)):
            dx, dy, dz = coords[c] - coords[j]
            d2 = dx * dx + dy * dy + dz * dz
            if d2 <= r2:
                cands.append((d2, j))
        cands.sort()
        take = cands[:k]
        counts[row] = len(take)
        for t in range(k):
            idx[row, t] = take[t][1] if t < len(take) else take[0][1]
    return idx, counts


def _three_nn_reference(dst, src):
    kk = min(3, len(src))
    idx = np.zeros((len(dst), kk), dtype=np.int64)
    w = np.zeros((len(dst), kk))
    for i, p in enumerate(dst):
        cands = sorted((float(((p - s) ** 2).sum()), j) for j, s in enumerate(src))
        near = cands[:kk]
        idx[i] = [j for _, j in near]
        if near[0][0] < 1e-12:
            w[i, 0] = 1.0
        else:
            raw = [1.0 / (d2 + _IDW_EPS) for d2, _ in near]
            w[i] = np.array(raw) / sum(raw)
    return idx, w


def _lattice(rng, n):
    """Coordinates on a 4x4x4 grid of step 0.25: duplicated points and equal
    distances everywhere, including exactly at the k-th neighbor and at the
    ball radius."""
    return rng.integers(0, 4, (n, 3)) * 0.25


# Full-row argsort formulations (the numpy kernels before blocking) ---------


def _d2_full(a, b):
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    dz = a[:, None, 2] - b[None, :, 2]
    return dx * dx + dy * dy + dz * dz


def _fps_argsort(coords, m):
    # the centroid is summed over the points in lexicographic order
    lex = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    centroid = coords[lex].sum(axis=0) / coords.shape[0]
    chosen = np.zeros(coords.shape[0], dtype=bool)
    out = np.empty(m, dtype=np.int64)
    dist = _d2_full(centroid[None, :], coords)[0]
    for t in range(m):
        avail = ~chosen
        best = dist[avail].max()
        cands = np.flatnonzero(avail & (dist == best))
        sub = coords[cands]
        pick = cands[np.lexsort((cands, sub[:, 2], sub[:, 1], sub[:, 0]))[0]]
        out[t] = pick
        chosen[pick] = True
        dist = np.minimum(dist, _d2_full(coords[pick][None, :], coords)[0])
    return out


def _ball_query_argsort(coords, centroid_idx, radius, k):
    d2 = _d2_full(coords[centroid_idx], coords)
    valid = d2 <= radius * radius
    order = np.argsort(np.where(valid, d2, np.inf), axis=1, kind="stable")
    counts = np.minimum(valid.sum(axis=1), k).astype(np.int64)
    take = min(k, coords.shape[0])
    idx = np.empty((len(centroid_idx), k), dtype=np.int64)
    idx[:, :take] = order[:, :take]
    idx[:, take:] = order[:, :1]
    pad = np.arange(k)[None, :] >= counts[:, None]
    return np.where(pad, idx[:, :1], idx), counts


def _three_nn_argsort(dst, src):
    d2 = _d2_full(dst, src)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :min(3, src.shape[0])]
    dsel = np.take_along_axis(d2, idx, axis=1)
    w = 1.0 / (dsel + _IDW_EPS)
    w = w / w.sum(axis=1, keepdims=True)
    hit = dsel[:, 0] < _COINCIDENT_D2
    w[hit] = 0.0
    w[hit, 0] = 1.0
    return idx, w


def _nearest_broadcast(points, targets):
    d2 = ((points[:, None, :] - targets[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def test_fps_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(1, n + 1))
        coords = rng.uniform(-1, 1, (n, 3))
        got = fps_indices(coords, m)
        want = _fps_reference(coords, m)
        assert np.array_equal(got, want), (got, want)


def test_fps_full_sample_is_permutation():
    rng = np.random.default_rng(1)
    coords = rng.uniform(0, 1, (23, 3))
    got = fps_indices(coords, 23)
    assert sorted(got.tolist()) == list(range(23))


def test_fps_set_level_permutation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(8, 50))
        m = int(rng.integers(1, n // 2 + 1))
        coords = rng.uniform(-2, 2, (n, 3))
        perm = rng.permutation(n)
        base = coords[fps_indices(coords, m)]
        permuted = coords[perm][fps_indices(coords[perm], m)]
        a = sorted(map(tuple, base))
        b = sorted(map(tuple, permuted))
        assert a == b


def test_fps_spread_beats_random():
    # the greedy choice maximizes min pairwise distance vs a random subset
    rng = np.random.default_rng(3)
    coords = rng.uniform(0, 1, (200, 3))
    sel = coords[fps_indices(coords, 20)]

    def min_pair(pts):
        d = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
        return np.sqrt(d[np.triu_indices(len(pts), 1)].min())

    rand = coords[rng.choice(200, 20, replace=False)]
    assert min_pair(sel) > min_pair(rand)


def test_ball_query_matches_reference():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        coords = rng.uniform(-1, 1, (n, 3))
        m = int(rng.integers(1, n + 1))
        centroid_idx = fps_indices(coords, m)
        radius = float(rng.uniform(0.2, 1.5))
        k = int(rng.integers(1, 9))
        gi, gc = ball_query(coords, centroid_idx, radius, k)
        wi, wc = _ball_reference(coords, centroid_idx, radius, k)
        assert np.array_equal(gi, wi)
        assert np.array_equal(gc, wc)


def test_ball_query_centroid_always_first():
    # the centroid is its own nearest in-radius point (distance 0)
    rng = np.random.default_rng(5)
    coords = rng.uniform(0, 1, (30, 3))
    centroid_idx = np.arange(30)
    idx, counts = ball_query(coords, centroid_idx, 0.3, 4)
    assert np.array_equal(idx[:, 0], centroid_idx)
    assert np.all(counts >= 1)


def test_ball_query_respects_radius_and_padding():
    rng = np.random.default_rng(6)
    coords = rng.uniform(0, 1, (40, 3))
    centroid_idx = fps_indices(coords, 10)
    idx, counts = ball_query(coords, centroid_idx, 0.25, 6)
    d2 = ((coords[centroid_idx][:, None] - coords[idx]) ** 2).sum(-1)
    for row in range(10):
        c = counts[row]
        assert np.all(d2[row, :c] <= 0.25 ** 2 + 1e-15)
        assert np.array_equal(idx[row, c:], np.full(6 - c, idx[row, 0]))


def test_three_nn_matches_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ns = int(rng.integers(1, 20))
        nd = int(rng.integers(1, 25))
        src = rng.uniform(-1, 1, (ns, 3))
        dst = rng.uniform(-1, 1, (nd, 3))
        gi, gw = three_nn(dst, src)
        wi, ww = _three_nn_reference(dst, src)
        assert np.array_equal(gi, wi)
        assert np.allclose(gw, ww, atol=1e-12, rtol=0)
        assert np.all(np.abs(gw.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(gw >= 0)


def test_three_nn_coincident_point_takes_all_weight():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    dst = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    idx, w = three_nn(dst, src)
    assert idx[0, 0] == 1
    assert np.array_equal(w[0], [1.0, 0.0, 0.0])
    assert np.all(w[1] > 0)          # generic point mixes all three


def test_three_nn_fewer_than_three_sources():
    src = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    dst = np.array([[0.5, 0.0, 0.0]])
    idx, w = three_nn(dst, src)
    assert idx.shape == (1, 2) and w.shape == (1, 2)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w[0, 0] > w[0, 1]


# tie-heavy lattices -----------------------------------------------------------


def test_fps_lattice_ties_match_reference():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(1, n + 1))
        coords = _lattice(rng, n)
        got = fps_indices(coords, m)
        assert np.array_equal(got, _fps_reference(coords, m))
        assert np.array_equal(got, _fps_argsort(coords, m))


@pytest.mark.parametrize("block", [None, 1])
def test_ball_query_lattice_ties_match_reference(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(_kernels, "BLOCK_PAIRS", block)
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(5, 60))
        coords = _lattice(rng, n)
        centroid_idx = fps_indices(coords, int(rng.integers(1, n + 1)))
        # lattice distances: a radius of one or two steps lands exactly on
        # candidates, so the <= boundary and k-th place ties both occur
        radius = float(rng.choice([0.25, 0.25 * np.sqrt(2), 0.5, 0.6]))
        k = int(rng.integers(1, 12))
        gi, gc = ball_query(coords, centroid_idx, radius, k)
        wi, wc = _ball_reference(coords, centroid_idx, radius, k)
        assert np.array_equal(gi, wi) and np.array_equal(gc, wc)
        oi, oc = _ball_query_argsort(coords, centroid_idx, radius, k)
        assert np.array_equal(gi, oi) and np.array_equal(gc, oc)


@pytest.mark.parametrize("block", [None, 1])
def test_three_nn_lattice_ties_match_reference(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(_kernels, "BLOCK_PAIRS", block)
    rng = np.random.default_rng(12)
    for _ in range(60):
        src = _lattice(rng, int(rng.integers(1, 30)))
        dst = _lattice(rng, int(rng.integers(1, 30)))
        gi, gw = three_nn(dst, src)
        wi, ww = _three_nn_reference(dst, src)
        assert np.array_equal(gi, wi)
        assert np.allclose(gw, ww, atol=1e-12, rtol=0)
        oi, ow = _three_nn_argsort(dst, src)
        assert np.array_equal(gi, oi) and np.array_equal(gw, ow)


# bit-identity with the argsort formulations at scale ---------------------------


@pytest.fixture(scope="module")
def default_scene_oracle():
    """Every kernel input of a 4096-point `default` geometry, with the argsort
    oracles' outputs for each."""
    cfg = ModelConfig.default()
    cloud = gen_synthetic_scene(5, cfg.data)
    scale = cloud.extent
    coords, levels, chain = cloud.coords, [], []
    for spec in cfg.levels:
        ci = _fps_argsort(coords, spec.m)
        r = spec.radius * scale
        levels.append((coords, spec.m, r, spec.k, ci,
                       _ball_query_argsort(coords, ci, r, spec.k)))
        coords = coords[ci]
        chain.append(coords)
    dsts = chain[-2::-1] + [cloud.coords]
    steps = [(d, s, _three_nn_argsort(d, s)) for s, d in zip(chain[::-1], dsts)]
    return cloud, levels, steps


def test_default_scene_fps_matches_argsort_oracle(default_scene_oracle):
    _, levels, _ = default_scene_oracle
    for coords, m, _, _, ci, _ in levels:
        assert np.array_equal(fps_indices(coords, m), ci)


@pytest.mark.parametrize("block", [None, 1, 5 * 4096 + 3, 1 << 40],
                         ids=["default", "one_row", "few_rows", "all_rows"])
def test_default_scene_bit_identical_at_any_block_size(default_scene_oracle,
                                                       monkeypatch, block):
    cloud, levels, steps = default_scene_oracle
    if block is not None:
        monkeypatch.setattr(_kernels, "BLOCK_PAIRS", block)
    for coords, _, r, k, ci, (oi, oc) in levels:
        gi, gc = ball_query(coords, ci, r, k)
        assert np.array_equal(gi, oi) and np.array_equal(gc, oc)
    for dst, src, (oi, ow) in steps:
        gi, gw = three_nn(dst, src)
        assert np.array_equal(gi, oi) and np.array_equal(gw, ow)
    if block is None:
        geom = PSFormer(ModelConfig.default()).build_geometry(cloud)
        for g, (_, _, _, _, ci, (oi, oc)) in zip(geom.levels, levels):
            assert np.array_equal(g.centroid_idx, ci)
            assert np.array_equal(g.neighbor_idx, oi)
            assert np.array_equal(g.valid_counts, oc)
        for (gi, gw), (_, _, (oi, ow)) in zip(geom.interp, steps):
            assert np.array_equal(gi, oi) and np.array_equal(gw, ow)


# edge cases ---------------------------------------------------------------------


@pytest.mark.parametrize("block", [1, 1 << 40])
def test_ball_query_k_above_point_count(monkeypatch, block):
    monkeypatch.setattr(_kernels, "BLOCK_PAIRS", block)
    coords = np.random.default_rng(13).uniform(0, 1, (5, 3))
    ci = np.array([0, 3])
    gi, gc = ball_query(coords, ci, 5.0, 8)
    assert np.array_equal(gc, [5, 5])
    oi, oc = _ball_query_argsort(coords, ci, 5.0, 8)
    assert np.array_equal(gi, oi) and np.array_equal(gc, oc)
    assert np.array_equal(gi, _ball_reference(coords, ci, 5.0, 8)[0])


def test_ball_query_isolated_centroid_pads_with_itself():
    coords = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0],
                       [5.0, 5.0, 5.0]])
    gi, gc = ball_query(coords, np.array([3, 0]), 0.5, 4)
    assert np.array_equal(gi[0], [3, 3, 3, 3]) and gc[0] == 1
    assert np.array_equal(gi[1], [0, 1, 2, 0]) and gc[1] == 3
    oi, oc = _ball_query_argsort(coords, np.array([3, 0]), 0.5, 4)
    assert np.array_equal(gi, oi) and np.array_equal(gc, oc)


@pytest.mark.parametrize("ns", [1, 2])
def test_three_nn_one_or_two_sources_match_oracle(ns):
    rng = np.random.default_rng(14)
    src = _lattice(rng, ns)
    dst = np.concatenate([_lattice(rng, 20), src])
    gi, gw = three_nn(dst, src)
    assert gi.shape == gw.shape == (20 + ns, ns)
    oi, ow = _three_nn_argsort(dst, src)
    assert np.array_equal(gi, oi) and np.array_equal(gw, ow)


def test_three_nn_dst_equal_to_src():
    rng = np.random.default_rng(15)
    pts = np.concatenate([rng.uniform(0, 1, (30, 3)), _lattice(rng, 30)])
    gi, gw = three_nn(pts, pts)
    oi, ow = _three_nn_argsort(pts, pts)
    assert np.array_equal(gi, oi) and np.array_equal(gw, ow)
    assert np.all(gw[:, 0] == 1.0) and np.all(gw[:, 1:] == 0.0)
    # a point is its own nearest unless an earlier index duplicates it
    first = [min(np.flatnonzero((pts == p).all(axis=1))) for p in pts]
    assert np.array_equal(gi[:, 0], first)


def test_fps_full_sample_on_duplicated_points():
    rng = np.random.default_rng(16)
    base = _lattice(rng, 12)
    coords = np.concatenate([base, base, base[:5]])
    got = fps_indices(coords, coords.shape[0])
    assert sorted(got.tolist()) == list(range(coords.shape[0]))
    assert np.array_equal(got, _fps_argsort(coords, coords.shape[0]))
    assert np.array_equal(got, _fps_reference(coords, coords.shape[0]))


def test_fps_numpy_rejects_more_samples_than_points():
    coords = np.zeros((3, 3))
    with pytest.raises(ValueError):
        fps_indices(coords, 4)


# nearest-seed assignment -------------------------------------------------------


@pytest.mark.parametrize("block", [None, 1, 1 << 40])
def test_nearest_index_matches_broadcast_argmin_on_ties(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(_kernels, "BLOCK_PAIRS", block)
    rng = np.random.default_rng(17)
    points = _lattice(rng, 3000)
    seeds = np.concatenate([_lattice(rng, 6), _lattice(rng, 6)[:3]])
    seeds = np.concatenate([seeds, seeds[:2]])     # duplicate seeds tie exactly
    assert np.array_equal(nearest_index(points, seeds),
                          _nearest_broadcast(points, seeds))


def test_nearest_index_memory_stays_at_one_block():
    rng = np.random.default_rng(18)
    points = rng.uniform(0, 1, (200_000, 3))
    seeds = points[:50].copy()
    tracemalloc.start()
    try:
        out = nearest_index(points, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (200_000,)
    # the (N, k, 3) broadcast it replaces peaks near 300 MB at this size; the
    # blocked search holds the 1.6 MB result plus two 512 KB block buffers
    assert peak < 4 * 2**20, peak


def test_ball_query_and_three_nn_memory_stay_at_a_few_blocks():
    rng = np.random.default_rng(19)
    points = rng.uniform(0, 1, (20_000, 3))
    centroid_idx = np.arange(0, 20_000, 4)
    peaks = []
    for kernel, args in ((ball_query, (points, centroid_idx, 0.05, 16)),
                         (three_nn, (points, points[centroid_idx]))):
        tracemalloc.start()
        try:
            out = kernel(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert out[0].shape == (20_000, 3)
    # a full distance matrix between these sets is 800 MB; the blocked search
    # holds its outputs and (rows, k) selections, about 2 MB here, plus two
    # 512 KB block buffers
    assert max(peaks) < 6 * 2**20, peaks
