import numpy as np
import pytest

from occpoint.curves import (
    CurveKind,
    curve_codes,
    hilbert_index,
    morton_index,
    quantize,
    sort_by_curve,
)
from occpoint.encoder import toy_config
from occpoint.errors import InvalidInput
from occpoint.training import curve_orders


def full_grid(bits):
    n = 1 << bits
    axes = np.arange(n)
    return np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), -1).reshape(-1, 3)


def test_quantize_range_ends():
    assert np.array_equal(quantize(np.array([[-1.0, -1.0, -1.0]]), 10)[0], [0, 0, 0])
    assert np.array_equal(quantize(np.array([[1.0, 1.0, 1.0]]), 10)[0], [1023, 1023, 1023])


def test_quantize_round_half_up_midpoint():
    # Affine map [-1, 1] -> [0, 1] at b=1 sends 0.0 to 0.5, which rounds up.
    assert np.array_equal(quantize(np.array([[0.0, 0.0, 0.0]]), 1)[0], [1, 1, 1])


def test_quantize_clamps_out_of_range():
    cells = quantize(np.array([[-2.0, 2.0, 0.5]]), 4)[0]
    assert cells[0] == 0 and cells[1] == 15


def test_quantize_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        quantize(np.array([[np.nan, 0.0, 0.0]]), 8)
    with pytest.raises(InvalidInput):
        quantize(np.zeros((1, 3)), 0)


def test_hilbert_starts_at_origin():
    for bits in (1, 2, 3, 5):
        assert hilbert_index(np.array([0, 0, 0]), bits) == 0


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_hilbert_bijective(bits):
    codes = hilbert_index(full_grid(bits), bits)
    assert len(np.unique(codes)) == (1 << bits) ** 3
    assert codes.min() == 0 and codes.max() == (1 << bits) ** 3 - 1


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_hilbert_consecutive_cells_face_adjacent(bits):
    grid = full_grid(bits)
    codes = hilbert_index(grid, bits)
    cells = grid[np.argsort(codes)].astype(np.int64)
    steps = np.abs(np.diff(cells, axis=0)).sum(axis=1)
    assert np.all(steps == 1)


def test_morton_single_bit_convention():
    assert morton_index(np.array([1, 0, 0]), 1) == 1
    assert morton_index(np.array([0, 1, 1]), 1) == 6


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_morton_bijective(bits):
    codes = morton_index(full_grid(bits), bits)
    assert len(np.unique(codes)) == (1 << bits) ** 3


def test_morton_interleave_positions():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y, z = rng.integers(0, 16, size=3)
        code = int(morton_index(np.array([x, y, z]), 4))
        for i in range(4):
            assert (code >> (3 * i)) & 1 == (x >> i) & 1
            assert (code >> (3 * i + 1)) & 1 == (y >> i) & 1
            assert (code >> (3 * i + 2)) & 1 == (z >> i) & 1


def test_trans_hilbert_codes_through_quantize():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(50, 3))
    cells = quantize(pts, 10)
    got = curve_codes(pts, CurveKind.TRANS_HILBERT, 10)
    assert np.array_equal(got, hilbert_index(cells[:, [1, 2, 0]], 10))
    got_m = curve_codes(pts, CurveKind.TRANS_MORTON, 10)
    assert np.array_equal(got_m, morton_index(cells[:, [1, 2, 0]], 10))


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_trans_consistency_on_cells(bits):
    grid = full_grid(bits)
    lhs = hilbert_index(grid[:, [1, 2, 0]], bits)
    # trans(x, y, z) must equal hilbert(y, z, x) cell-for-cell
    from occpoint.curves import _trans

    assert np.array_equal(hilbert_index(_trans(grid), bits), lhs)


def test_coordinate_overflow_rejected():
    with pytest.raises(InvalidInput):
        hilbert_index(np.array([4, 0, 0]), 2)
    with pytest.raises(InvalidInput):
        morton_index(np.array([0, 8, 0]), 3)


def test_sorted_input_gives_identity_permutation():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(64, 3))
    codes = curve_codes(pts, CurveKind.HILBERT, 10)
    ordered = pts[np.argsort(codes, kind="stable")]
    order = sort_by_curve(ordered, CurveKind.HILBERT, 10)
    assert np.array_equal(order, np.arange(64))


def test_permutation_round_trip():
    rng = np.random.default_rng(2)
    for kind in CurveKind:
        pts = rng.uniform(-1, 1, size=(40, 3))
        order = sort_by_curve(pts, kind, 10)
        inverse = np.argsort(order)
        sorted_pts = pts[order]
        assert np.array_equal(sorted_pts[inverse], pts)
        assert np.array_equal(order[inverse], np.arange(40))


def test_stable_tie_break_preserves_order():
    pts = np.array([[0.31, 0.31, 0.31], [0.31, 0.31, 0.31]])
    order = sort_by_curve(pts, CurveKind.HILBERT, 10)
    assert np.array_equal(order, [0, 1])


def test_fps_order_is_identity():
    pts = np.random.default_rng(3).uniform(-1, 1, size=(17, 3))
    order = sort_by_curve(pts, CurveKind.FPS_ORDER, 10)
    assert np.array_equal(order, np.arange(17))


def test_hilbert_locality_beats_random_order():
    rng = np.random.default_rng(4)
    hilbert_wins = 0
    trials = 100
    for _ in range(trials):
        pts = rng.uniform(-1, 1, size=(128, 3))
        ordered = pts[sort_by_curve(pts, CurveKind.HILBERT, 10)]
        hilbert_step = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
        random_step = np.linalg.norm(np.diff(pts[rng.permutation(128)], axis=0), axis=1).mean()
        hilbert_wins += hilbert_step <= random_step
    assert hilbert_wins == trials


def test_curve_kind_parsing():
    assert CurveKind.from_string("trans-hilbert") is CurveKind.TRANS_HILBERT
    with pytest.raises(InvalidInput):
        CurveKind.from_string("peano")


def test_permutation_from_forward_inverse():
    # Three centers on the x axis, listed out of order: the Morton sort order
    # is [2, 0, 1], and its inverse [1, 2, 0].
    centers = np.array([[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]])
    cfg = toy_config(curve_a=CurveKind.MORTON, curve_b=CurveKind.FPS_ORDER)
    fwd, inv = curve_orders(centers, cfg)
    assert np.array_equal(fwd, [[[2, 0, 1]], [[0, 1, 2]]])
    assert np.array_equal(inv, [[[1, 2, 0]], [[0, 1, 2]]])


def test_batched_sort_matches_per_row_sort():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(4, 33, 3))
    pts[1, 5] = pts[1, 6]                      # a code tie inside one row
    for kind in CurveKind:
        batched = sort_by_curve(pts, kind, 10)
        assert batched.shape == (4, 33)
        for row, want in zip(batched, pts):
            assert np.array_equal(row, sort_by_curve(want, kind, 10))


@pytest.mark.parametrize("curve_a,curve_b", [(CurveKind.HILBERT, CurveKind.TRANS_HILBERT),
                                             (CurveKind.MORTON, CurveKind.FPS_ORDER)])
def test_curve_orders_invert_and_match_each_cloud_sorted_alone(curve_a, curve_b):
    rng = np.random.default_rng(6)
    centers = rng.uniform(-1, 1, size=(5, 21, 3))
    centers[2, 7] = centers[2, 3]              # a code tie inside one cloud
    cfg = toy_config(curve_a=curve_a, curve_b=curve_b, curve_bits=6)
    fwd, inv = curve_orders(centers, cfg)
    assert fwd.shape == inv.shape == (2, 5, 21)
    assert fwd.dtype == inv.dtype == np.int64
    for z, kind in enumerate((curve_a, curve_b)):
        for b, cloud in enumerate(centers):
            assert np.array_equal(fwd[z, b][inv[z, b]], np.arange(21))
            assert np.array_equal(fwd[z, b], sort_by_curve(cloud, kind, 6))
