import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell, sphere, torus

from atlasmesh import param
from atlasmesh.atlas import bisect_patch, build_brep, make_parametrizable, split_reason
from atlasmesh.mesh import MeshError
from atlasmesh.patch import Patch
from atlasmesh.pipeline import PipelineOptions, build_atlas


def _full_patch(mesh):
    return Patch(mesh, np.arange(mesh.n_triangles))


def _flatten(patch):
    """A `make_parametrizable` prepare step without refinement."""
    return patch, param.parametrize(patch), None


def test_bisect_balanced_and_connected():
    patch = _full_patch(sphere(2))
    left, right = bisect_patch(patch)
    assert left.n_triangles + right.n_triangles == patch.n_triangles
    assert abs(left.n_triangles - right.n_triangles) <= 1
    # each half is edge-connected: a single patch flood fill covers it
    for half in (left, right):
        info, _ = half.topology()
        assert info.formula_residual() == 0


def test_sphere_splits_into_disks():
    patch = _full_patch(sphere(2))
    parts, _, records = make_parametrizable([patch], 100_000, _flatten)
    assert len(parts) >= 2
    assert any(r.reason == "genus" for r in records)
    for part in parts:
        info, ok = part.topology()
        assert ok and info.g == 0 and info.b >= 1


def test_torus_splits_until_genus_zero():
    patch = _full_patch(torus())
    parts, _, _ = make_parametrizable([patch], 100_000, _flatten)
    for part in parts:
        info, ok = part.topology()
        assert ok and info.g == 0


def test_size_limit_forces_split():
    mesh = cylinder_shell(n=16, rows=4)
    patch = _full_patch(mesh)
    parts, _, records = make_parametrizable([patch], patch.n_triangles // 2, _flatten)
    assert len(parts) >= 2
    assert any(r.reason == "size" for r in records)
    assert sum(p.n_triangles for p in parts) == patch.n_triangles


def test_disk_patch_untouched():
    mesh = concave_hole_plate()
    patch = _full_patch(mesh)
    parts, _, records = make_parametrizable([patch], 100_000, _flatten)
    assert len(parts) == 1
    assert records == []


@pytest.mark.parametrize("make", [cube, torus, concave_hole_plate])
def test_each_face_is_parametrized_once_and_passes_the_split_check(monkeypatch, make):
    calls = []
    assemble = param.assemble_system
    monkeypatch.setattr(param, "assemble_system", lambda *a, **k: calls.append(1) or assemble(*a, **k))
    atlas = build_atlas(make(), PipelineOptions(refine_threshold="auto"))
    assert len(calls) == len(atlas.brep.faces)
    assert all(f["refine"]["splits"] > 0 for f in atlas.summary["faces"])
    assert [split_reason(pr) for pr in atlas.params] == [None] * len(atlas.params)


def test_cube_brep_counts():
    atlas = build_atlas(cube(), PipelineOptions(refine_threshold=None))
    brep = atlas.brep
    assert len(brep.faces) == 6
    assert len(brep.curves) == 12
    assert len(brep.points) == 8
    for face in brep.faces:
        assert len(face.loops) == 1
        assert len(face.loops[0]) == 4  # four edges around each side


def test_brep_curves_reference_model_vertices():
    mesh = cube()
    atlas = build_atlas(mesh, PipelineOptions(refine_threshold=None))
    for curve in atlas.brep.curves:
        assert all(0 <= v < mesh.n_vertices for v in curve.vertices)
        assert len(curve.faces) == 2  # every cube edge separates two faces


def test_plate_brep_has_closed_hole_curve():
    mesh = concave_hole_plate()
    atlas = build_atlas(mesh, PipelineOptions(refine_threshold=None))
    closed = [c for c in atlas.brep.curves if c.closed]
    assert len(closed) == 2  # outer boundary and hole rim
    (face,) = atlas.brep.faces
    assert len(face.loops) == 2


def test_face_loops_walk_consistently():
    atlas = build_atlas(cube(), PipelineOptions(refine_threshold=None))
    for fid, face in enumerate(atlas.brep.faces):
        for cyc in face.loops:
            # consecutive curves share their junction point
            chains = []
            for cid, forward in cyc:
                v = atlas.brep.curves[cid].vertices
                chains.append(v if forward else v[::-1])
            for k in range(len(chains)):
                assert chains[k][-1] == chains[(k + 1) % len(chains)][0]


def test_single_triangle_failure_raises():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    from atlasmesh.mesh import Triangulation

    patch = _full_patch(Triangulation(v, [[0, 1, 2]]))
    # a lone triangle is already a disk; force an impossible size limit
    with pytest.raises(MeshError):
        make_parametrizable([patch], 0, _flatten)


def test_build_brep_corner_points_on_cube():
    mesh = cube()
    atlas = build_atlas(mesh, PipelineOptions(refine_threshold=None))
    corner_xyz = mesh.vertices[sorted(atlas.brep.points)]
    assert np.allclose(np.sort(corner_xyz, axis=0), np.sort(mesh.vertices, axis=0))
