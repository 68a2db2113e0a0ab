import dataclasses

import numpy as np
import pytest

from occpoint import autodiff as ad
from occpoint import training
from occpoint.autodiff import Tensor
from occpoint.dataset import TripletDataset, generate_triplets
from occpoint.encoder import toy_config
from occpoint.errors import InvalidConfig, InvalidInput
from occpoint.synthetic import toy_object_set
from occpoint.tokenizer import (
    COLOR_CONSTANT,
    farthest_point_sampling,
    init_mini_pointnet,
    knn_group,
    mini_pointnet_embed,
    patch_features,
    tokenize,
)

from composed import assert_grads_match, composed_pointnet_embed, forward_and_grads


# --- oracles: one cloud at a time, written without the batched geometry -------


def fps_oracle(points, s):
    """The per-cloud greedy loop: a gather and a norm per iteration."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    lex = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    base = min(s, n)
    chosen = np.empty(base, dtype=np.int64)
    chosen[0] = lex[0]
    dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    dist_ranked = dist[lex]
    for i in range(1, base):
        far = lex[int(np.argmax(dist_ranked))]
        chosen[i] = far
        d_new = np.linalg.norm(points - points[far], axis=1)
        np.minimum(dist, d_new, out=dist)
        dist_ranked = dist[lex]
    if s <= n:
        return chosen
    return np.tile(chosen, -(-s // n))[:s]


def knn_oracle(points, colors, center_indices, k):
    """Full sort of every point per center by (d2, x, y, z, r, g, b, index)."""
    points = np.asarray(points, dtype=np.float64)
    cols = (np.full_like(points, COLOR_CONSTANT) if colors is None
            else np.asarray(colors, dtype=np.float64))
    index = np.arange(len(points))
    out = []
    for c in points[center_indices]:
        d2 = ((c - points) ** 2).sum(-1)
        keys = (index, cols[:, 2], cols[:, 1], cols[:, 0],
                points[:, 2], points[:, 1], points[:, 0], d2)
        out.append(np.lexsort(keys)[:k])
    return np.array(out)


def lattice_cloud(shape=(16, 16, 8)):
    """Points 1/8 apart, so squared distances are exact and tie everywhere."""
    grid = np.stack(np.meshgrid(*(np.arange(n) for n in shape), indexing="ij"), -1)
    points = grid.reshape(-1, 3) / 8.0 - np.array([1.0, 1.0, 0.5])
    return points, grid.reshape(-1, 3) / (np.array(shape) - 1.0)


@pytest.fixture(scope="module")
def rendered():
    """Two toy meshes x 12 views at 64x64, 512 points: pixel-lattice clouds
    with many exact distance ties."""
    return generate_triplets(toy_object_set(0)[:2], feature_dim=8, resolution=64,
                             n_points=512, seed=3)


def awkward_clouds(rng):
    """(points, colors) clouds with ties and repeats that rendered clouds lack."""
    lattice, lattice_colors = lattice_cloud((8, 8, 4))
    perm = rng.permutation(len(lattice))
    dup = rng.uniform(-1, 1, size=(40, 3))
    dup = np.concatenate([dup, dup[:25], dup[:10]])
    dup_colors = rng.random((len(dup), 3))
    dup_colors[40:50] = dup_colors[:10]          # some rows fully identical
    return [(lattice, lattice_colors), (lattice[perm], lattice_colors[perm]),
            (dup, dup_colors), (dup, None)]


# --- farthest point sampling -------------------------------------------------


def test_fps_three_collinear_points():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    idx = farthest_point_sampling(pts, 2)
    chosen = {tuple(pts[i]) for i in idx}
    # Brute force: the best 2-subset maximizing the min pairwise distance is
    # the two endpoints, and the canonical start is the lexicographic minimum.
    assert chosen == {(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)}
    assert tuple(pts[idx[0]]) == (0.0, 0.0, 0.0)


def test_fps_brute_force_greedy_match():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.uniform(-1, 1, size=(20, 3))
        s = int(rng.integers(2, 8))
        idx = farthest_point_sampling(pts, s)
        # replay the greedy rule literally
        lex = sorted(range(20), key=lambda i: tuple(pts[i]))
        chosen = [lex[0]]
        for _ in range(1, s):
            dists = [min(np.linalg.norm(pts[i] - pts[c]) for c in chosen) for i in range(20)]
            best = max(dists)
            cands = [i for i in range(20) if dists[i] == best]
            cands.sort(key=lambda i: tuple(pts[i]))
            chosen.append(cands[0])
        assert list(idx) == chosen


def test_fps_selects_all_when_s_equals_n():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(9, 3))
    idx = farthest_point_sampling(pts, 9)
    assert sorted(idx) == list(range(9))


def test_fps_cycles_when_s_exceeds_n():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    idx = farthest_point_sampling(pts, 5)
    assert len(idx) == 5
    assert np.array_equal(idx[:2], idx[2:4])


def test_fps_permutation_invariant_emission_order():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(50, 3))
    idx = farthest_point_sampling(pts, 12)
    coords = pts[idx]
    for _ in range(5):
        perm = rng.permutation(50)
        idx_p = farthest_point_sampling(pts[perm], 12)
        assert np.array_equal(pts[perm][idx_p], coords)


def test_fps_rejects_empty():
    with pytest.raises(InvalidInput):
        farthest_point_sampling(np.zeros((0, 3)), 2)


# --- knn grouping --------------------------------------------------------------


def test_knn_k1_patch_is_center_itself():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(30, 3))
    centers = farthest_point_sampling(pts, 5)
    patches = knn_group(pts, None, centers, 1)
    assert np.array_equal(patches.neighbor_indices[:, 0], centers)
    assert np.allclose(patches.relative_points, 0.0)


def test_knn_collinear_brute_force():
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [2.0, 0, 0]])
    patches = knn_group(pts, None, np.array([1]), 2)
    # center + the nearer endpoint, sorted by distance
    assert list(patches.neighbor_indices[0]) == [1, 0]


def test_knn_relative_norm_bound():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(40, 3))
    centers = farthest_point_sampling(pts, 6)
    patches = knn_group(pts, None, centers, 8)
    max_pair = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1).max()
    assert np.linalg.norm(patches.relative_points, axis=-1).max() <= max_pair + 1e-12


def test_knn_distance_tie_broken_by_coordinates_then_colors():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0]])
    patches = knn_group(pts, None, np.array([0]), 3)
    # distances: self 0, then three ties at 1.0 -> smallest x, then y, first
    assert list(patches.neighbor_indices[0]) == [0, 2, 3]
    # Equal coordinates go by color; only identical rows go by index.
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
    cols = np.array([[0.0, 0, 0], [0.5, 0, 0], [0.2, 0, 0], [0.2, 0, 0]])
    patches = knn_group(pts, cols, np.array([0]), 3)
    assert list(patches.neighbor_indices[0]) == [0, 2, 3]
    for perm in ([0, 3, 1, 2], [0, 1, 3, 2]):
        shuffled = knn_group(pts[perm], cols[perm], np.array([0]), 3)
        assert np.array_equal(shuffled.relative_points, patches.relative_points)
        assert np.array_equal(shuffled.patch_colors, patches.patch_colors)


def test_knn_k_exceeding_cloud_rejected():
    with pytest.raises(InvalidConfig):
        knn_group(np.zeros((4, 3)), None, np.array([0]), 5)


def test_knn_missing_colors_use_constant():
    pts = np.random.default_rng(5).uniform(-1, 1, size=(10, 3))
    patches = knn_group(pts, None, np.array([0, 3]), 4)
    assert np.all(patches.patch_colors == COLOR_CONSTANT)


# --- mini pointnet ---------------------------------------------------------------


def test_fused_pointnet_matches_composed_oracle():
    rng = np.random.default_rng(30)
    for shape, hidden, width in (((3, 7, 6), 16, 16), ((2, 4, 5, 6), 6, 8),
                                 ((2, 8, 16, 6), 64, 32)):
        params = init_mini_pointnet(width, rng, hidden=hidden)
        feats = rng.normal(size=shape)
        feats[..., 1, :] = feats[..., 0, :]   # exact ties in the max pool
        x = Tensor(feats, requires_grad=True)
        tensors = {"features": x, **params.tensors()}
        (got, got_grads), (want, want_grads) = (
            forward_and_grads(lambda: fn(x, params), tensors)
            for fn in (mini_pointnet_embed, composed_pointnet_embed)
        )
        assert np.array_equal(got, want)
        assert_grads_match(got_grads, want_grads)
        with ad.no_grad():
            bare = mini_pointnet_embed(feats, params)
        assert bare._backward is None
        assert np.array_equal(bare.data, got)


def test_identical_patches_identical_tokens():
    rng = np.random.default_rng(6)
    params = init_mini_pointnet(16, rng)
    patch = rng.normal(size=(1, 5, 6))
    feats = np.concatenate([patch, patch], axis=0)
    tokens = mini_pointnet_embed(Tensor(feats), params)
    assert np.array_equal(tokens.data[0], tokens.data[1])


def test_within_patch_permutation_invariance():
    rng = np.random.default_rng(7)
    params = init_mini_pointnet(16, rng)
    feats = rng.normal(size=(3, 7, 6))
    tokens = mini_pointnet_embed(Tensor(feats), params)
    for _ in range(5):
        shuffled = feats[:, rng.permutation(7), :]
        tokens2 = mini_pointnet_embed(Tensor(shuffled), params)
        assert np.array_equal(tokens.data, tokens2.data)


def test_zero_weights_zero_tokens():
    rng = np.random.default_rng(8)
    params = init_mini_pointnet(8, rng)
    for t in params.tensors().values():
        t.data[:] = 0.0
    tokens = mini_pointnet_embed(Tensor(rng.normal(size=(2, 4, 6))), params)
    assert np.all(tokens.data == 0.0)


def test_shape_mismatch_rejected():
    from occpoint.errors import ShapeError

    params = init_mini_pointnet(8, np.random.default_rng(9))
    with pytest.raises(ShapeError):
        mini_pointnet_embed(Tensor(np.zeros((2, 4, 5))), params)


# --- full tokenizer ---------------------------------------------------------------


def test_cloud_permutation_invariance_end_to_end(rendered):
    rng = np.random.default_rng(10)
    params = init_mini_pointnet(32, rng)
    pts = rng.uniform(-1, 1, size=(200, 3))
    cols = rng.random((200, 3))
    base = tokenize(pts, cols, 16, 8, params)
    record = dataclasses.replace(rendered.records[0], points=pts, colors=cols)
    shuffled = []
    for _ in range(3):
        perm = rng.permutation(200)
        out = tokenize(pts[perm], cols[perm], 16, 8, params)
        assert np.array_equal(out.tokens.data, base.tokens.data)
        assert np.array_equal(out.centers, base.centers)
        shuffled.append(dataclasses.replace(record, points=pts[perm], colors=cols[perm]))
    # The same geometry through the training cache, whole batch at once.
    caches = training.build_cache(
        TripletDataset([record] + shuffled, rendered.class_names,
                       rendered.class_features, rendered.meta),
        toy_config(s_tokens=16, k_neighbors=8))
    for cache in caches:
        assert np.array_equal(cache.centers, base.centers)
        feats = np.concatenate([cache.rel_points, cache.patch_colors], axis=-1)
        assert np.array_equal(mini_pointnet_embed(Tensor(feats), params).data,
                              base.tokens.data)


def test_absent_colors_equal_explicit_constant_colors():
    rng = np.random.default_rng(11)
    params = init_mini_pointnet(24, rng)
    pts = rng.uniform(-1, 1, size=(100, 3))
    implicit = tokenize(pts, None, 8, 6, params)
    explicit = tokenize(pts, np.full((100, 3), COLOR_CONSTANT), 8, 6, params)
    assert np.array_equal(implicit.tokens.data, explicit.tokens.data)


def test_patch_features_layout():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(50, 3))
    cols = rng.random((50, 3))
    centers = farthest_point_sampling(pts, 4)
    patches = knn_group(pts, cols, centers, 5)
    feats = patch_features(patches)
    assert feats.shape == (4, 5, 6)
    assert np.array_equal(feats[..., :3], patches.relative_points)
    assert np.array_equal(feats[..., 3:], patches.patch_colors)


# --- batched geometry against the oracles ----------------------------------------


def assert_matches_oracles(points, colors, s, k):
    """Batched FPS and kNN over a stack of clouds equal the per-cloud oracles."""
    centers = farthest_point_sampling(points, s)
    patches = knn_group(points, colors, centers, k)
    for i, cloud in enumerate(points):
        want_centers = fps_oracle(cloud, s)
        assert np.array_equal(centers[i], want_centers)
        want = knn_oracle(cloud, None if colors is None else colors[i], want_centers, k)
        assert np.array_equal(patches.neighbor_indices[i], want)
        assert np.array_equal(patches.relative_points[i],
                              cloud[want] - cloud[want_centers][:, None, :])


def test_batched_geometry_matches_oracles_on_rendered_clouds(rendered):
    points = np.stack([r.points for r in rendered.records])
    colors = np.stack([r.colors for r in rendered.records])
    assert_matches_oracles(points, colors, 32, 16)
    assert_matches_oracles(points[:3], None, 20, 9)


@pytest.mark.parametrize("s,k", [(24, 16), (300, 7), (1, 1)])
def test_batched_geometry_matches_oracles_on_awkward_clouds(s, k):
    rng = np.random.default_rng(13)
    for points, colors in awkward_clouds(rng):
        assert_matches_oracles(points[None], None if colors is None else colors[None],
                               s, k)
    lattice, lattice_colors = lattice_cloud((8, 8, 4))
    perms = [rng.permutation(len(lattice)) for _ in range(3)]
    assert_matches_oracles(np.stack([lattice[p] for p in perms]),
                           np.stack([lattice_colors[p] for p in perms]), s, k)


def test_single_cloud_equals_its_row_of_a_batch(rendered):
    points = np.stack([r.points for r in rendered.records[:4]])
    colors = np.stack([r.colors for r in rendered.records[:4]])
    batch = knn_group(points, colors, farthest_point_sampling(points, 12), 10)
    for i in range(4):
        alone = knn_group(points[i], colors[i], farthest_point_sampling(points[i], 12), 10)
        for field in dataclasses.fields(alone):
            assert np.array_equal(getattr(alone, field.name),
                                  getattr(batch, field.name)[i])


def cache_arrays(cache):
    return (cache.centers, cache.rel_points, cache.patch_colors,
            *cache.perm_a, *cache.perm_b)


def test_build_cache_independent_of_chunk_size_and_point_counts(rendered, monkeypatch):
    rng = np.random.default_rng(14)
    records = list(rendered.records[:6])
    # Mixed point counts: drop points from some clouds, add awkward clouds.
    records[1] = dataclasses.replace(records[1], points=records[1].points[:300],
                                     colors=records[1].colors[:300])
    records[4] = dataclasses.replace(records[4], points=records[4].points[:300],
                                     colors=records[4].colors[:300])
    for points, colors in awkward_clouds(rng)[:3]:
        records.append(dataclasses.replace(records[0], points=points, colors=colors))
    data = TripletDataset(records, rendered.class_names, rendered.class_features,
                          rendered.meta)
    cfg = toy_config(s_tokens=24, k_neighbors=12)

    monkeypatch.setattr(training, "_TOKENIZE_BLOCK_LIMIT", 1)
    one_by_one = training.build_cache(data, cfg)
    monkeypatch.setattr(training, "_TOKENIZE_BLOCK_LIMIT", 1 << 40)
    whole = training.build_cache(data, cfg)
    for rec, a, b in zip(records, one_by_one, whole):
        for x, y in zip(cache_arrays(a), cache_arrays(b)):
            assert np.array_equal(x, y)
        centers = fps_oracle(rec.points, cfg.s_tokens)
        neighbors = knn_oracle(rec.points, rec.colors, centers, cfg.k_neighbors)
        assert np.array_equal(a.centers, rec.points[centers])
        assert np.array_equal(a.patch_colors, rec.colors[neighbors])


def test_shuffled_lattice_tokenizes_identically_through_build_cache(rendered):
    points, colors = lattice_cloud()
    perm = np.random.default_rng(15).permutation(len(points))
    template = rendered.records[0]
    data = TripletDataset(
        [dataclasses.replace(template, points=points, colors=colors),
         dataclasses.replace(template, points=points[perm], colors=colors[perm])],
        rendered.class_names, rendered.class_features, rendered.meta)
    a, b = training.build_cache(data, toy_config(s_tokens=128, k_neighbors=32))
    for x, y in zip(cache_arrays(a), cache_arrays(b)):
        assert np.array_equal(x, y)
