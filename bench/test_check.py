"""The output checker accepts a good surface and rejects each corruption.

Run from the repository root: python3 -m pytest bench/test_check.py
"""

import numpy as np
import pytest

import check
import models

SURFACES = {
    "torus": (models.torus, {}, True, False),
    "tube": (models.tube, {}, False, False),
    "sphere": (models.sphere, {"subdivisions": 2}, True, False),
    "frame": (models.square_frame, {"resolution": 2}, True, True),
}


def surface(name, seed=3):
    gen, params, closed, planar = SURFACES[name]
    verts, tris = gen(**params)
    return models.Model(name, models.place(verts, seed, 0), tris, closed, planar)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_accepts_the_input_itself(name):
    m = surface(name)
    assert check.check_surface(m.vertices, m.triangles, m) == []


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_rejects_a_flipped_triangle(name):
    m = surface(name)
    tris = m.triangles.copy()
    tris[5] = tris[5, ::-1]
    bad = check.check_surface(m.vertices, tris, m)
    assert any("orientation" in b for b in bad)
    assert any("face away" in b for b in bad)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_rejects_a_vertex_off_the_surface(name):
    m = surface(name)
    verts = m.vertices.copy()
    v = m.triangles[5, 0]
    n = check.normals(m.vertices, m.triangles)[5]
    verts[v] += 1e-6 * check.bbox_diagonal(verts) * n / np.linalg.norm(n)
    bad = check.check_surface(verts, m.triangles, m)
    assert any("off the input" in b for b in bad)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_rejects_a_removed_triangle(name):
    m = surface(name)
    tris = np.delete(m.triangles, 5, axis=0)
    bad = check.check_surface(m.vertices, tris, m)
    assert any("topology" in b for b in bad)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_rejects_a_pocket_triangle_on_a_shared_edge(name):
    # the seam-pocket fault: both faces keep the same ear triangle, so
    # its edges carry extra triangles and the surface encloses a pocket
    m = surface(name)
    tris = np.vstack([m.triangles, m.triangles[5, ::-1]])
    bad = check.check_surface(m.vertices, tris, m)
    assert any("non-manifold" in b for b in bad)


def test_rejects_area_lost_on_a_planar_face():
    m = surface("frame")
    verts = m.vertices.copy()
    tris = m.triangles.copy()
    # collapse one triangle's corner onto another corner: all vertices stay
    # on the input, but area goes missing and one triangle degenerates
    tris[tris == tris[5, 0]] = tris[5, 1]
    bad = check.check_surface(verts, tris, m)
    assert any("area" in b for b in bad)


def test_msh_round_trip(tmp_path):
    m = surface("frame")
    path = tmp_path / "frame.msh"
    n = len(m.vertices)
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n")
        fh.write(f"1 {n} 1 {n}\n2 1 0 {n}\n")
        fh.writelines(f"{i + 1}\n" for i in range(n))
        fh.writelines("%.17g %.17g %.17g\n" % tuple(v) for v in m.vertices)
        fh.write("$EndNodes\n$Elements\n")
        k = len(m.triangles)
        fh.write(f"1 {k} 1 {k}\n2 1 2 {k}\n")
        fh.writelines(f"{i + 1} {t[0] + 1} {t[1] + 1} {t[2] + 1}\n"
                      for i, t in enumerate(m.triangles))
        fh.write("$EndElements\n")
    verts, tris = check.parse_msh(path)
    assert np.array_equal(verts, m.vertices)
    assert np.array_equal(tris, m.triangles)
