import math

import numpy as np
import pytest

from occpoint.cameras import CameraPose, camera_ring
from occpoint.errors import ConfigError, DegenerateMesh, EmptyCloud, InvalidMesh
from occpoint.meshio import TriangleMesh, load_obj, normalize_mesh, save_obj
from occpoint.render import backproject, rasterize, sample_points
from occpoint.synthetic import make_cube, make_icosphere, toy_object_set

CUBE_HALF = 1.0 / math.sqrt(3.0)  # half-extent of a normalized cube


def normalized_cube():
    return normalize_mesh(make_cube())


# --- normalize -------------------------------------------------------------


def test_normalize_offset_cube():
    mesh = make_cube(3.0)
    mesh = TriangleMesh(mesh.vertices + np.array([10.0, 0.0, 0.0]), mesh.faces)
    out = normalize_mesh(mesh)
    norms = np.linalg.norm(out.vertices, axis=1)
    assert np.allclose(norms.max(), 1.0, atol=1e-12)
    # symmetry: bbox center at origin
    assert np.allclose(out.vertices.mean(axis=0), 0.0, atol=1e-12)


def test_normalize_coincident_vertices_degenerate():
    mesh = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(DegenerateMesh):
        normalize_mesh(mesh)


def test_normalize_random_mesh_max_norm():
    rng = np.random.default_rng(0)
    verts = rng.normal(size=(100, 3)) * 5 + 3
    faces = rng.integers(0, 100, size=(50, 3))
    keep = (faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2]) & (faces[:, 0] != faces[:, 2])
    mesh = TriangleMesh(verts, faces[keep])
    out = normalize_mesh(mesh)
    assert abs(np.linalg.norm(out.vertices, axis=1).max() - 1.0) < 1e-6


def test_empty_mesh_rejected():
    with pytest.raises(InvalidMesh):
        TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))


def test_bad_face_index_rejected():
    with pytest.raises(InvalidMesh):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


# --- camera ring -----------------------------------------------------------


def test_camera_ring_has_twelve_poses_radius_two():
    poses = camera_ring()
    assert len(poses) == 12
    for pose in poses:
        assert abs(np.linalg.norm(pose.position) - 2.0) < 1e-9


def test_camera_ring_z_sign_histogram():
    zs = np.array([p.position[2] for p in camera_ring()])
    assert (zs > 1e-12).sum() == 4
    assert (np.abs(zs) <= 1e-12).sum() == 4
    assert (zs < -1e-12).sum() == 4


def test_equator_pose_zero_at_positive_x():
    pose = camera_ring()[0]
    assert np.allclose(pose.position, [2.0, 0.0, 0.0], atol=1e-12)


def test_unit_sphere_projects_inside_frame():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(500, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * 0.999
    for pose in camera_ring((64, 64)):
        pix, z = pose.project(pts)
        assert np.all(z > 0)
        assert pix[:, 0].min() >= 0 and pix[:, 0].max() <= 64
        assert pix[:, 1].min() >= 0 and pix[:, 1].max() <= 64


def test_zero_resolution_rejected():
    with pytest.raises(ConfigError):
        CameraPose(position=np.array([2.0, 0, 0]), resolution=(0, 64))


# --- rasterize -------------------------------------------------------------


def test_single_triangle_center_depth_matches_ray_plane():
    # Triangle in the plane x = 0.5 facing the +x camera.
    verts = np.array([[0.5, -0.8, -0.8], [0.5, 0.8, -0.8], [0.5, 0.0, 0.9]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    pose = CameraPose(position=np.array([2.0, 0.0, 0.0]), resolution=(65, 65))
    depth, _ = rasterize(mesh, pose)
    # Center pixel ray is the optical axis; the plane sits 1.5 from the camera.
    assert abs(depth.values[32, 32] - 1.5) < 1e-4


def test_zbuffer_keeps_nearer_surface():
    quad_near = [[0.5, -0.5, -0.5], [0.5, 0.5, -0.5], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5]]
    quad_far = [[-0.5, -0.5, -0.5], [-0.5, 0.5, -0.5], [-0.5, 0.5, 0.5], [-0.5, -0.5, 0.5]]
    verts = np.array(quad_near + quad_far)
    faces = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
    mesh = TriangleMesh(verts, faces)
    pose = CameraPose(position=np.array([2.0, 0.0, 0.0]), resolution=(64, 64))
    depth, _ = rasterize(mesh, pose)
    covered = depth.values[np.isfinite(depth.values)]
    assert covered.size > 0
    # Nearest surface is the x=0.5 quad, 1.5 away on-axis (slightly more off-axis).
    assert covered.min() >= 1.5 - 1e-9
    assert covered.max() < 2.5  # never the far quad


def test_background_is_infinite_depth():
    mesh = normalized_cube()
    pose = camera_ring((48, 48))[0]
    depth, _ = rasterize(mesh, pose)
    assert np.isinf(depth.values[0, 0])
    assert np.isinf(depth.values).any()
    assert np.isfinite(depth.values).any()


def test_finite_depths_inside_unit_shell():
    mesh = normalized_cube()
    for pose in camera_ring((48, 48)):
        depth, _ = rasterize(mesh, pose)
        vals = depth.values[np.isfinite(depth.values)]
        assert np.all(vals > 1.0) and np.all(vals < 3.0)


# --- backproject -----------------------------------------------------------


def test_backprojected_points_lie_on_cube_faces():
    mesh = normalized_cube()
    pose = camera_ring((96, 96))[0]
    depth, color = rasterize(mesh, pose)
    cloud = backproject(depth, color, pose)
    dist_to_face = np.min(np.abs(np.abs(cloud.points) - CUBE_HALF), axis=1)
    assert dist_to_face.max() < 2e-3


def cube_face_normal(points):
    ax = np.argmin(np.abs(np.abs(points) - CUBE_HALF), axis=1)
    sgn = np.sign(points[np.arange(len(points)), ax])
    normals = np.zeros_like(points)
    normals[np.arange(len(points)), ax] = sgn
    return normals


def test_no_point_on_hidden_cube_face():
    mesh = normalized_cube()
    for pose in camera_ring((96, 96)):
        depth, color = rasterize(mesh, pose)
        cloud = backproject(depth, color, pose)
        normals = cube_face_normal(cloud.points)
        visibility = np.einsum("ij,ij->i", normals, pose.position - cloud.points)
        assert np.all(visibility > 0)


def first_hit_distance(mesh, origin, dirs):
    """Independent ray-casting oracle (Moller-Trumbore, vectorized): distance
    of the first triangle intersection along each unit ray from `origin`."""
    fv = mesh.face_vertices  # (F, 3, 3)
    e1 = fv[:, 1] - fv[:, 0]
    e2 = fv[:, 2] - fv[:, 0]
    s = origin - fv[:, 0]  # (F, 3)
    h = np.cross(dirs[:, None, :], e2[None, :, :])            # (P, F, 3)
    det = np.einsum("fk,pfk->pf", e1, h)
    safe = np.where(np.abs(det) > 1e-12, det, np.inf)
    u = np.einsum("fk,pfk->pf", s, h) / safe
    q = np.cross(s, e1)  # (F, 3)
    v = np.einsum("pk,fk->pf", dirs, q) / safe
    t = np.einsum("fk,fk->f", e2, q)[None, :] / safe
    eps = 1e-9
    hit = (u >= -eps) & (v >= -eps) & (u + v <= 1 + eps) & (t > eps)
    t = np.where(hit, t, np.inf)
    return t.min(axis=1)


def test_occlusion_soundness_ray_oracle():
    # Three closed convex meshes x 12 views: every back-projected point must
    # be the first surface along its own view ray (nothing hides it).
    for mesh in (make_icosphere(1), make_icosphere(2), make_cube()):
        mesh = normalize_mesh(mesh)
        for pose in camera_ring((48, 48)):
            depth, color = rasterize(mesh, pose)
            cloud = backproject(depth, color, pose)
            d = np.linalg.norm(cloud.points - pose.position, axis=1)
            dirs = (cloud.points - pose.position) / d[:, None]
            first = first_hit_distance(mesh, pose.position, dirs)
            assert np.all(first > d - 1e-7 * d)


def test_round_trip_depth_identity():
    mesh = normalized_cube()
    for pose in camera_ring((64, 64))[:4]:
        depth, color = rasterize(mesh, pose)
        cloud = backproject(depth, color, pose)
        d = depth.values[depth.covered]
        err = np.abs(np.linalg.norm(cloud.points - pose.position, axis=1) - d) / d
        assert err.max() < 1e-6


def test_center_pixel_backprojects_along_optical_axis():
    pose = CameraPose(position=np.array([2.0, 0.0, 0.0]), resolution=(65, 65))
    from occpoint.render import DepthImage

    depth = np.full((65, 65), np.inf)
    depth[32, 32] = 1.4
    cloud = backproject(DepthImage(values=depth), np.zeros((65, 65, 3)), pose)
    expected = pose.position + 1.4 * pose.forward
    assert np.allclose(cloud.points[0], expected, atol=1e-12)


def test_all_background_raises_empty_cloud():
    from occpoint.render import DepthImage

    pose = CameraPose(position=np.array([2.0, 0.0, 0.0]), resolution=(8, 8))
    with pytest.raises(EmptyCloud):
        backproject(DepthImage(values=np.full((8, 8), np.inf)), np.zeros((8, 8, 3)), pose)


def test_coverage_of_sphere_across_12_views():
    mesh = normalize_mesh(make_icosphere(3))
    hits = []
    for pose in camera_ring((96, 96)):
        depth, color = rasterize(mesh, pose)
        cloud = backproject(depth, color, pose)
        hits.append(cloud.points)
    pts = np.vstack(hits)
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    elev = np.degrees(np.arcsin(np.clip(pts[:, 2], -1, 1)))
    azim = np.degrees(np.arctan2(pts[:, 1], pts[:, 0])) % 360.0
    eb = np.clip(((elev + 90) // 10).astype(int), 0, 17)
    ab = np.clip((azim // 10).astype(int), 0, 35)
    seen = np.zeros((18, 36), dtype=bool)
    seen[eb, ab] = True
    assert seen.mean() >= 0.95


# --- sampling --------------------------------------------------------------


def make_cloud(n, seed=0):
    from occpoint.render import PartialPointCloud

    rng = np.random.default_rng(seed)
    return PartialPointCloud(points=rng.normal(size=(n, 3)),
                             colors=rng.random((n, 3)))


def test_sample_without_replacement_when_large():
    cloud = make_cloud(5000)
    out = sample_points(cloud, 2048, rng_seed=1)
    assert out.points.shape == (2048, 3)
    assert len(np.unique(out.points, axis=0)) == 2048


def test_sample_with_replacement_when_small():
    cloud = make_cloud(100)
    out = sample_points(cloud, 2048, rng_seed=1)
    assert out.points.shape == (2048, 3)
    # every sampled point is a member of the input set
    matches = (out.points[:, None, :] == cloud.points[None, :, :]).all(-1).any(1)
    assert matches.all()


def test_sample_deterministic_under_seed():
    cloud = make_cloud(3000)
    a = sample_points(cloud, 512, rng_seed=42)
    b = sample_points(cloud, 512, rng_seed=42)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.colors, b.colors)


def test_sample_rejects_zero():
    with pytest.raises(ConfigError):
        sample_points(make_cloud(10), 0)


# --- OBJ io ----------------------------------------------------------------


def test_obj_round_trip(tmp_path):
    mesh = toy_object_set(0)[0][2]
    path = tmp_path / "m.obj"
    save_obj(path, mesh)
    loaded = load_obj(path)
    assert loaded.faces.shape == mesh.faces.shape
    assert np.allclose(loaded.vertices, mesh.vertices, atol=1e-6)
    assert loaded.vertex_colors is not None
    assert np.allclose(loaded.vertex_colors, mesh.vertex_colors, atol=1e-5)


def test_failed_obj_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "m.obj"
    save_obj(path, make_icosphere(1))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("occpoint.container.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_obj(path, make_cube())
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_obj_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_obj(path)
    assert mesh.faces.shape == (2, 3)


def test_obj_ignores_vt_vn(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\nf 1/1/1 2/1/1 3/1/1\n"
    )
    mesh = load_obj(path)
    assert mesh.faces.shape == (1, 3)
