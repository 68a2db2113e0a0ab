"""The vectorized z-buffer and visibility summary against test-only oracles.

`reference_rasterize` is the per-face loop `render.rasterize` used to be, and
`reference_visible_fraction` the broadcast `dataset.visible_fraction`, both
kept as they were. The fast versions must give bitwise the same depth, color
and fraction, so datasets keep their bytes.
"""

import numpy as np
import pytest

from occpoint import dataset, render
from occpoint.cameras import CameraPose, camera_ring
from occpoint.dataset import visible_fraction
from occpoint.errors import InvalidConfig
from occpoint.meshio import TriangleMesh, normalize_mesh
from occpoint.render import (
    BACKGROUND_GRAY,
    DepthImage,
    backproject,
    rasterize,
    sample_points,
)
from occpoint.synthetic import toy_object_set

# ---------------------------------------------------------------------------
# Test-only oracles


def reference_rasterize(mesh: TriangleMesh, pose: CameraPose) -> tuple[DepthImage, np.ndarray]:
    """Render (DepthImage, (H, W, 3) color image) of the mesh from one pose.

    Vertex colors are interpolated when present; otherwise faces render as a
    constant mid-gray. Background pixels get the gray constant too, but are
    identified by the +inf depth, never by color.
    """
    w, h = pose.resolution
    if w < 1 or h < 1:
        raise InvalidConfig(f"zero-resolution image {pose.resolution}")

    depth = np.full((h, w), np.inf, dtype=np.float64)
    color = np.full((h, w, 3), BACKGROUND_GRAY, dtype=np.float64)

    verts = mesh.vertices
    pix, zc = pose.project(verts)
    if mesh.vertex_colors is not None:
        vcol = mesh.vertex_colors
    else:
        vcol = np.full((verts.shape[0], 3), BACKGROUND_GRAY)

    cam = pose.position
    for face in mesh.faces:
        z = zc[face]
        if np.any(z <= 1e-9):
            continue  # behind or at the pinhole; normalized meshes never hit this
        p = pix[face]  # (3, 2) screen corners
        # Signed doubled area of the projected triangle; degenerate -> skip.
        area = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
        if abs(area) < 1e-12:
            continue

        x0 = max(int(np.floor(p[:, 0].min() - 0.5)), 0)
        x1 = min(int(np.ceil(p[:, 0].max() + 0.5)), w - 1)
        y0 = max(int(np.floor(p[:, 1].min() - 0.5)), 0)
        y1 = min(int(np.ceil(p[:, 1].max() + 0.5)), h - 1)
        if x0 > x1 or y0 > y1:
            continue

        xs = np.arange(x0, x1 + 1) + 0.5
        ys = np.arange(y0, y1 + 1) + 0.5
        gx, gy = np.meshgrid(xs, ys)

        # Screen-space barycentrics from edge functions.
        def edge(ax, ay, bx, by):
            return (bx - ax) * (gy - ay) - (by - ay) * (gx - ax)

        w0 = edge(p[1, 0], p[1, 1], p[2, 0], p[2, 1])
        w1 = edge(p[2, 0], p[2, 1], p[0, 0], p[0, 1])
        w2 = edge(p[0, 0], p[0, 1], p[1, 0], p[1, 1])
        lam = np.stack([w0, w1, w2], axis=-1) / area
        inside = np.all(lam >= 0.0, axis=-1)
        if not np.any(inside):
            continue

        lam = lam[inside]  # (M, 3)
        # Perspective-correct weights: screen barycentrics over vertex depth.
        pw = lam / z[None, :]
        pw = pw / pw.sum(axis=1, keepdims=True)

        world = pw @ mesh.vertices[face]  # exact ray/plane intersection points
        dist = np.linalg.norm(world - cam, axis=1)
        col = np.clip(pw @ vcol[face], 0.0, 1.0)

        yy, xx = np.nonzero(inside)
        yy = yy + y0
        xx = xx + x0
        better = dist < depth[yy, xx]
        depth[yy[better], xx[better]] = dist[better]
        color[yy[better], xx[better]] = col[better]

    return DepthImage(values=depth), color


def reference_visible_fraction(mesh: TriangleMesh, cloud_points: np.ndarray,
                     camera_position: np.ndarray, samples: int = 512,
                     seed: int = 0, resolution: int = 128) -> float:
    """Fraction of the camera-side half of the surface covered by the cloud.

    Surface samples are drawn uniformly by area; a sample counts as covered
    when some back-projected point lies within a few pixel footprints of it.
    The denominator is the half of the surface on the camera side of the
    plane through the object center, so a sphere scores ~0.5 (the visible cap
    is half of the near hemisphere from radius-2 viewing distance).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    fv = mesh.face_vertices
    areas = 0.5 * np.linalg.norm(
        np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0]), axis=1
    )
    probs = areas / areas.sum()
    faces = rng.choice(len(areas), size=samples, p=probs)
    u, v = rng.random(samples), rng.random(samples)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    tri = fv[faces]
    surf = tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])

    center = 0.5 * (mesh.vertices.min(0) + mesh.vertices.max(0))
    toward = camera_position - center
    toward = toward / np.linalg.norm(toward)
    near = (surf - center) @ toward > 0
    if not np.any(near):
        return 0.0
    near_pts = surf[near]
    d2 = ((near_pts[:, None, :] - cloud_points[None, :, :]) ** 2).sum(-1)
    tol = 12.0 / resolution  # ~3 pixel footprints at the working distance
    covered = d2.min(axis=1) < tol * tol
    return float(covered.mean())


# ---------------------------------------------------------------------------
# Helpers


def assert_same_render(mesh, pose):
    depth, color = rasterize(mesh, pose)
    ref_depth, ref_color = reference_rasterize(mesh, pose)
    assert depth.values.shape == ref_depth.values.shape
    assert depth.values.tobytes() == ref_depth.values.tobytes()
    assert color.tobytes() == ref_color.tobytes()
    return depth, color


def corpus_meshes(names=("cube_00", "cone_01", "sphere_00", "torus_01")):
    meshes = {oid: mesh for oid, _, mesh in toy_object_set(0)}
    return [normalize_mesh(meshes[n]) for n in names]


FRONT = CameraPose(position=np.array([2.0, 0.0, 0.0]), resolution=(40, 40))


# ---------------------------------------------------------------------------
# Corpus meshes x 12 views


def test_corpus_views_match_oracle_bitwise():
    for mesh in corpus_meshes():
        for pose in camera_ring((128, 128)):
            assert_same_render(mesh, pose)


def test_non_square_image_matches_oracle_bitwise():
    (mesh,) = corpus_meshes(("dumbbell_00",))
    for pose in camera_ring((72, 40))[::3]:
        assert_same_render(mesh, pose)


def test_one_face_per_chunk_matches_oracle_bitwise(monkeypatch):
    monkeypatch.setattr(render, "_FRAGMENT_BLOCK_LIMIT", 1)
    for mesh in corpus_meshes(("cube_01", "torus_00")):
        for pose in camera_ring((64, 64))[::2]:
            assert_same_render(mesh, pose)


def test_visible_fraction_matches_oracle_bitwise():
    for mesh in corpus_meshes(("cube_00", "torus_01")):
        for pose in camera_ring((128, 128)):
            depth, color = rasterize(mesh, pose)
            cloud = sample_points(backproject(depth, color, pose), 2048, rng_seed=pose.view_id)
            for samples in (512, 40):
                got = visible_fraction(mesh, cloud.points, pose.position,
                                       samples=samples, seed=pose.view_id)
                want = reference_visible_fraction(mesh, cloud.points, pose.position,
                                                  samples=samples, seed=pose.view_id)
                assert got == want


def test_rays_at_covered_pixels_match_the_full_grid_bitwise():
    for mesh in corpus_meshes(("cube_00", "torus_01")):
        for pose in camera_ring((128, 128)) + camera_ring((72, 40))[::5]:
            depth, color = rasterize(mesh, pose)
            mask = depth.covered
            assert np.array_equal(pose.pixel_rays(mask), pose.pixel_rays()[mask])
            cloud = backproject(depth, color, pose)
            want = pose.position + depth.values[mask][:, None] * pose.pixel_rays()[mask]
            assert np.array_equal(cloud.points, want)
    pose = camera_ring((16, 16))[0]
    assert pose.pixel_rays(np.zeros((16, 16), dtype=bool)).shape == (0, 3)


def test_nearest_squared_distance_matches_broadcast_bitwise():
    rng = np.random.default_rng(3)
    (mesh,) = corpus_meshes(("torus_00",))
    pose = camera_ring((128, 128))[7]
    depth, color = rasterize(mesh, pose)
    rendered = backproject(depth, color, pose).points
    for samples, points in ((rng.normal(size=(100, 3)), rendered),
                            (rng.normal(size=(33, 3)) * 1e3, rng.normal(size=(50, 3))),
                            (rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))):
        want = ((samples[:, None, :] - points[None, :, :]) ** 2).sum(-1).min(axis=1)
        got = dataset._nearest_squared_distance(samples, points)
        assert got.tobytes() == want.tobytes()


def test_visible_fraction_block_size_does_not_matter(monkeypatch):
    (mesh,) = corpus_meshes(("sphere_00",))
    pose = camera_ring((64, 64))[5]
    depth, color = rasterize(mesh, pose)
    points = backproject(depth, color, pose).points
    want = visible_fraction(mesh, points, pose.position)
    for rows in (1, 7, 10_000):
        monkeypatch.setattr(dataset, "_VISIBLE_BLOCK_ROWS", rows)
        assert visible_fraction(mesh, points, pose.position) == want


# ---------------------------------------------------------------------------
# Hand-made meshes


def two_colored_copies(first_rgb, second_rgb):
    """The same triangle twice (own vertices, own colors): equal depth everywhere."""
    tri = [[0.0, -0.7, -0.6], [0.0, 0.7, -0.6], [0.0, 0.0, 0.8]]
    verts = np.array(tri + tri)
    colors = np.array([first_rgb] * 3 + [second_rgb] * 3, dtype=np.float64)
    return TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]), colors)


@pytest.mark.parametrize("limit", [1, 1 << 16])
def test_equal_depth_tie_goes_to_the_earlier_face(monkeypatch, limit):
    monkeypatch.setattr(render, "_FRAGMENT_BLOCK_LIMIT", limit)
    red, blue = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    mesh = two_colored_copies(red, blue)
    depth, color = assert_same_render(mesh, FRONT)
    covered = depth.covered
    assert covered.sum() > 50
    assert np.allclose(color[covered], red, atol=1e-12)
    swapped = TriangleMesh(mesh.vertices, mesh.faces[::-1], mesh.vertex_colors)
    depth_swapped, color_swapped = assert_same_render(swapped, FRONT)
    assert depth_swapped.values.tobytes() == depth.values.tobytes()
    assert np.allclose(color_swapped[covered], blue, atol=1e-12)


def test_nearer_face_wins_whatever_the_order():
    near = [[0.5, -0.5, -0.5], [0.5, 0.5, -0.5], [0.5, 0.0, 0.5]]
    far = [[-0.5, -0.9, -0.9], [-0.5, 0.9, -0.9], [-0.5, 0.0, 0.9]]
    colors = np.array([[0.9, 0.1, 0.1]] * 3 + [[0.1, 0.1, 0.9]] * 3)
    for faces in ([[0, 1, 2], [3, 4, 5]], [[3, 4, 5], [0, 1, 2]]):
        mesh = TriangleMesh(np.array(near + far), np.array(faces), colors)
        depth, color = assert_same_render(mesh, FRONT)
        assert np.isfinite(depth.values[20, 20]) and depth.values[20, 20] < 1.6
        assert color[20, 20, 0] > 0.8


def test_degenerate_faces_are_skipped():
    verts = np.array([
        [0.0, -0.5, -0.5], [0.0, 0.0, 0.0], [0.0, 0.5, 0.5],       # collinear
        [0.0, -0.5, 0.5], [0.0, -0.5 + 1e-9, 0.5], [0.0, -0.5, 0.5 + 1e-9],  # area ~1e-18
        [0.0, 0.2, -0.6], [0.0, 0.8, -0.6], [0.0, 0.5, 0.0],       # a proper face
    ])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
    depth, _ = assert_same_render(mesh, FRONT)
    alone, _ = rasterize(TriangleMesh(verts, np.array([[6, 7, 8]])), FRONT)
    assert depth.values.tobytes() == alone.values.tobytes()


def test_faces_behind_the_camera_are_skipped():
    verts = np.array([
        [0.0, -0.6, -0.6], [0.0, 0.6, -0.6], [0.0, 0.0, 0.6],   # in front
        [3.0, -0.6, -0.6], [3.0, 0.6, -0.6], [3.0, 0.0, 0.6],   # behind
        [2.0, 0.1, 0.1], [1.0, -0.6, 0.3], [1.0, 0.6, 0.3],     # one corner at the pinhole plane
        [2.5, 0.0, -0.2], [0.5, -0.4, 0.0], [0.5, 0.4, 0.0],    # one corner behind
    ])
    faces = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])
    mesh = TriangleMesh(verts, faces)
    depth, _ = assert_same_render(mesh, FRONT)
    alone, _ = rasterize(TriangleMesh(verts, faces[:1]), FRONT)
    assert depth.values.tobytes() == alone.values.tobytes()


def test_partly_off_screen_faces_are_clipped():
    verts = np.array([
        [0.0, -5.0, -0.3], [0.0, 0.3, -0.3], [0.0, 0.0, 4.0],   # past the left and top edges
        [0.0, 0.5, 0.5], [0.0, 9.0, 0.2], [0.0, 0.6, -9.0],     # past the right and bottom edges
        [0.0, 30.0, 30.0], [0.0, 31.0, 30.0], [0.0, 30.0, 31.0],  # wholly off screen
    ])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
    depth, _ = assert_same_render(mesh, FRONT)
    assert depth.covered[0].any() and depth.covered[:, -1].any()


def test_mesh_without_vertex_colors_renders_gray():
    (mesh,) = corpus_meshes(("cone_00",))
    plain = TriangleMesh(mesh.vertices, mesh.faces)
    for pose in camera_ring((48, 48))[:4]:
        depth, color = assert_same_render(plain, pose)
        assert np.allclose(color[depth.covered], BACKGROUND_GRAY, atol=1e-12)
        assert np.all(color[~depth.covered] == BACKGROUND_GRAY)


def test_view_that_misses_the_mesh_is_all_background():
    mesh = TriangleMesh(np.array([[0.0, 30.0, 30.0], [0.0, 31.0, 30.0], [0.0, 30.0, 31.0]]),
                        np.array([[0, 1, 2]]))
    depth, color = assert_same_render(mesh, FRONT)
    assert not depth.covered.any()
    assert np.all(color == BACKGROUND_GRAY)
