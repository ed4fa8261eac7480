import numpy as np
import pytest

from fixtures import random_disk_fixture

from atlasmesh.mesh import MeshError
from atlasmesh.param import parametrize
from atlasmesh.patch import Patch
from atlasmesh.quality import (
    metric_tensor,
    patch_quality,
    singular_values,
    triangle_jacobian,
)


def _planar_triangle(uv, transform):
    """3D triangle that is `transform` applied to the UV corners, z = 0."""
    uv = np.asarray(uv, dtype=float)
    xy = uv @ np.asarray(transform, dtype=float).T
    return np.column_stack([xy, np.zeros(3)])


UV = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])


def test_identity_map_is_isometric():
    tri3d = _planar_triangle(UV, np.eye(2))
    J = triangle_jacobian(tri3d, UV)
    s1, s2 = singular_values(J)
    assert s1 == pytest.approx(1.0)
    assert s2 == pytest.approx(1.0)


def test_anisotropic_scaling_recovered():
    tri3d = _planar_triangle(UV, np.diag([3.0, 0.5]))
    s1, s2 = singular_values(triangle_jacobian(tri3d, UV))
    assert s1 == pytest.approx(3.0)
    assert s2 == pytest.approx(0.5)


def test_rotation_does_not_change_singular_values():
    a = 0.7
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    tri3d = _planar_triangle(UV, R @ np.diag([2.0, 1.0]))
    s1, s2 = singular_values(triangle_jacobian(tri3d, UV))
    assert s1 == pytest.approx(2.0)
    assert s2 == pytest.approx(1.0)


def test_shear_singular_values():
    # frozen oracle: for [[1, 1], [0, 1]] the Gram matrix has
    # eigenvalues (3 +- sqrt(5)) / 2
    tri3d = _planar_triangle(UV, [[1.0, 1.0], [0.0, 1.0]])
    s1, s2 = singular_values(triangle_jacobian(tri3d, UV))
    assert s1 == pytest.approx(np.sqrt((3.0 + np.sqrt(5.0)) / 2.0))
    assert s2 == pytest.approx(np.sqrt((3.0 - np.sqrt(5.0)) / 2.0))
    assert s1 * s2 == pytest.approx(1.0)  # unit determinant map


def test_out_of_plane_triangle():
    # lift one corner: the map stretches only one direction
    tri3d = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1.0]])
    uv = np.array([[0, 0], [1, 0], [0, 1.0]])
    s1, s2 = singular_values(triangle_jacobian(tri3d, uv))
    assert s1 == pytest.approx(1.0)
    assert s2 == pytest.approx(1.0)


def test_degenerate_uv_rejected():
    tri3d = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
    uv = np.array([[0, 0], [1, 0], [2, 0.0]])
    with pytest.raises(MeshError):
        triangle_jacobian(tri3d, uv)


def test_metric_tensor_scales_edge_lengths():
    tri3d = _planar_triangle(UV, np.diag([2.0, 2.0]))
    J = triangle_jacobian(tri3d, UV)
    M = metric_tensor(J, h=0.5)
    # a UV vector of euclidean length 1 has 3D length 2 = 4 target units
    v = np.array([1.0, 0.0])
    assert np.sqrt(v @ M @ v) == pytest.approx(4.0)
    with pytest.raises(MeshError):
        metric_tensor(J, h=0.0)


def test_patch_quality_summary():
    mesh = random_disk_fixture(0)
    patch = Patch(mesh, np.arange(mesh.n_triangles))
    param = parametrize(patch)
    rep = patch_quality(patch, param)
    assert len(rep.sigma1) == patch.n_triangles
    assert (rep.sigma1 >= rep.sigma2).all()
    assert (rep.sigma2 > 0.0).all()
    s = rep.summary()
    assert 0.0 < s["min_conformity"] <= s["mean_conformity"] <= 1.0
    assert sum(s["histogram"]) == patch.n_triangles


# -- stacked paths against a per-triangle loop --------------------------------

def _loop_jacobian(tri3d, tri_uv):
    """Reference: one triangle at a time, as 2D arrays."""
    p, q = np.asarray(tri3d, dtype=float), np.asarray(tri_uv, dtype=float)
    E = np.column_stack([p[1] - p[0], p[2] - p[0]])
    D = np.column_stack([q[1] - q[0], q[2] - q[0]])
    det = D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
    return E @ (np.array([[D[1, 1], -D[0, 1]], [-D[1, 0], D[0, 0]]]) / det)


def _loop_singular_values(J):
    G = J.T @ J
    tr = G[0, 0] + G[1, 1]
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    root = np.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return np.sqrt(tr / 2.0 + root), np.sqrt(max(tr / 2.0 - root, 0.0))


def _disk_stack(seed):
    mesh = random_disk_fixture(seed)
    patch = Patch(mesh, np.arange(mesh.n_triangles))
    param = parametrize(patch)
    tris = patch.tri.triangles
    return patch.tri.vertices[tris], param.uv[tris]


@pytest.mark.parametrize("seed", range(5))
def test_stacked_paths_equal_triangle_loop(seed):
    tri3d, tri_uv = _disk_stack(seed)
    h = 0.3
    J = triangle_jacobian(tri3d, tri_uv)
    J_ref = np.array([_loop_jacobian(p, q) for p, q in zip(tri3d, tri_uv)])
    assert np.array_equal(J, J_ref)
    assert np.array_equal(
        metric_tensor(J, h), np.array([Jt.T @ Jt / (h * h) for Jt in J_ref])
    )
    s1, s2 = singular_values(J)
    ref = np.array([_loop_singular_values(Jt) for Jt in J_ref])
    assert np.array_equal(s1, ref[:, 0])
    assert np.array_equal(s2, ref[:, 1])


def test_one_degenerate_triangle_in_a_stack_is_rejected():
    tri3d, tri_uv = _disk_stack(0)
    bad = tri_uv.copy()
    k = len(bad) // 2
    bad[k, 2] = bad[k, 1]  # zero UV area
    with pytest.raises(MeshError):
        triangle_jacobian(tri3d, bad)
    J = triangle_jacobian(tri3d, tri_uv)
    J[k, :, 1] = 2.0 * J[k, :, 0]  # rank one
    with pytest.raises(MeshError):
        metric_tensor(J, 0.3)
