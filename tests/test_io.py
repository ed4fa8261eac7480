import numpy as np
import pytest

from fixtures import cube, cylinder_shell

from atlasmesh.io import _weld, load_surface, write_mesh
from atlasmesh.mesh import MeshError, Triangulation, validate
from atlasmesh.pipeline import PipelineOptions, build_atlas


def test_weld_exact():
    raw = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0],
         [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float
    )
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    v, t = _weld(raw, tris)
    assert len(v) == 4
    assert t.tolist() == [[0, 1, 2], [1, 3, 2]]


def test_weld_tolerance():
    raw = np.array([[0, 0, 0], [1e-7, 0, 0], [1, 0, 0], [0, 1, 0]])
    v, t = _weld(raw, np.array([[0, 2, 3], [1, 2, 3]]), tolerance=1e-6)
    assert len(v) == 3
    v, t = _weld(raw, np.array([[0, 2, 3], [1, 2, 3]]), tolerance=0.0)
    assert len(v) == 4


def test_stl_binary_round_trip(tmp_path):
    m = cube()
    p = tmp_path / "cube.stl"
    write_mesh(m, p)
    back = load_surface(p)
    assert back.n_vertices == 8
    assert back.n_triangles == 12
    assert validate(back).watertight
    # float32 storage: coordinates agree to single precision
    assert np.allclose(
        np.sort(back.vertices, axis=0), np.sort(m.vertices, axis=0), atol=1e-6
    )


def test_stl_ascii_load(tmp_path):
    p = tmp_path / "tri.stl"
    p.write_text(
        "solid t\n"
        " facet normal 0 0 1\n"
        "  outer loop\n"
        "   vertex 0 0 0\n"
        "   vertex 1 0 0\n"
        "   vertex 0 1 0\n"
        "  endloop\n"
        " endfacet\n"
        "endsolid t\n"
    )
    m = load_surface(p)
    assert m.n_triangles == 1
    assert m.n_vertices == 3


def test_stl_truncated_binary(tmp_path):
    p = tmp_path / "bad.stl"
    p.write_bytes(b"\0" * 80 + (10).to_bytes(4, "little") + b"\0" * 6)
    with pytest.raises(MeshError):
        load_surface(p)


def test_obj_round_trip(tmp_path):
    m = cylinder_shell()
    p = tmp_path / "cyl.obj"
    write_mesh(m, p)
    back = load_surface(p)
    assert back.n_vertices == m.n_vertices
    assert np.array_equal(back.triangles, m.triangles)
    assert np.array_equal(back.vertices, m.vertices)  # %.17g is bit exact


def test_obj_negative_indices_and_polygons(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "f -4 -3 -2 -1\n"
    )
    m = load_surface(p)
    assert m.n_triangles == 2  # fan-triangulated quad


def test_msh_round_trip_with_tags(tmp_path):
    m = cube()
    tagged = Triangulation(
        m.vertices, m.triangles, patch_tags=np.arange(12) // 2
    )
    p = tmp_path / "cube.msh"
    write_mesh(tagged, p)
    back = load_surface(p)
    assert np.array_equal(back.vertices, tagged.vertices)
    assert back.patch_tags is not None
    assert sorted(back.patch_tags.tolist()) == sorted(tagged.patch_tags.tolist())


def test_msh_carries_curves(tmp_path):
    m = cube()
    atlas = build_atlas(m, PipelineOptions(refine_threshold=None))
    p = tmp_path / "atlas.msh"
    write_mesh(m, p, brep=atlas.brep)
    text = p.read_text()
    # one line-element block per model curve
    assert sum(1 for ln in text.splitlines() if ln.startswith("1 ")) >= 12


@pytest.mark.parametrize("fmt", ["obj", "msh"])
def test_weld_tolerance_applies_to_obj_and_msh(tmp_path, fmt):
    p = tmp_path / f"cube.{fmt}"
    write_mesh(cube(), p)
    assert load_surface(p).n_vertices == 8
    # at 5.0 every cube corner merges into one, which no triangle survives
    with pytest.raises(MeshError, match="repeated vertex"):
        load_surface(p, weld_tolerance=5.0)


def test_msh_weld_merges_near_duplicates_and_keeps_tags(tmp_path):
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [1 + 1e-9, 0, 0]])
    split = Triangulation(v, [[0, 1, 2], [4, 3, 2]], patch_tags=[1, 2])
    p = tmp_path / "split.msh"
    write_mesh(split, p)
    assert load_surface(p).n_vertices == 5
    welded = load_surface(p, weld_tolerance=1e-6)
    assert welded.n_vertices == 4
    assert welded.triangles.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert welded.patch_tags.tolist() == [1, 2]


def test_unknown_extension():
    with pytest.raises(MeshError):
        load_surface("mesh.xyz")
    with pytest.raises(MeshError):
        write_mesh(cube(), "mesh.xyz")
