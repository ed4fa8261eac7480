import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell

from atlasmesh import remesh
from atlasmesh.mesh import MeshError, validate
from atlasmesh.pipeline import PipelineOptions, build_atlas, face_sample_loops, remesh_model
from atlasmesh.remesh import (
    FaceMeshResult,
    SizeField,
    UVLocator,
    discretize_curve,
    stitch,
)


def test_size_field_validation():
    assert SizeField(0.5).h == 0.5
    with pytest.raises(MeshError):
        SizeField(0.0)


def test_discretize_open_curve():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    samples, xyz = discretize_curve(pts, h=0.5)
    assert samples[0] == (0, 0.0)
    assert samples[-1] == (2 - 1, 1.0)
    assert np.allclose(xyz[0], pts[0])
    assert np.allclose(xyz[-1], pts[-1])
    gaps = np.linalg.norm(np.diff(xyz, axis=0), axis=1)
    assert np.allclose(gaps, 0.5)


def test_discretize_closed_curve_minimum():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0]], dtype=float)
    samples, xyz = discretize_curve(pts, h=100.0, closed=True)
    assert len(samples) == 3  # never fewer than a triangle


def test_discretize_spacing_tracks_target():
    ang = np.linspace(0, 2 * np.pi, 41)[:-1]
    pts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(40)])
    samples, xyz = discretize_curve(pts, h=0.3, closed=True)
    gaps = np.linalg.norm(np.roll(xyz, -1, axis=0) - xyz, axis=1)
    assert gaps.max() < 0.45
    assert gaps.min() > 0.15


def test_locator_barycentric_identity():
    uv = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    loc = UVLocator(uv, tris)
    t, b = loc.locate([0.2, 0.2])
    assert t == 0
    assert b == pytest.approx([0.6, 0.2, 0.2])
    t, b = loc.locate([0.9, 0.9])
    assert t == 1
    with pytest.raises(MeshError):
        loc.locate([2.0, 2.0])
    t, b = loc.locate([2.0, 2.0], clamp=True)
    assert 0 <= t < 2
    assert b.sum() == pytest.approx(1.0)


def test_stitch_dedupes_shared_keys():
    uv = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    tris = np.array([[0, 1, 2]])
    xyz_a = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    xyz_b = np.array([[1, 0, 0], [0, 0, 0], [0, 1, 5]], dtype=float)
    loc = UVLocator(uv, tris)
    a = FaceMeshResult(uv, tris, {0: ("c", 0, 0), 1: ("c", 0, 1)},
                       {0: xyz_a[0], 1: xyz_a[1]}, loc)
    b = FaceMeshResult(uv, tris, {0: ("c", 0, 1), 1: ("c", 0, 0)},
                       {0: xyz_b[0], 1: xyz_b[1]}, loc)
    out = stitch([a, b], [xyz_a, xyz_b])
    assert out.n_vertices == 4  # two shared + two private
    assert out.n_triangles == 2
    assert out.patch_tags.tolist() == [0, 1]


def test_face_sample_loops_are_closed_and_on_disk():
    mesh = cylinder_shell()
    opt = PipelineOptions(size=0.3)
    atlas = build_atlas(mesh, opt)
    discretized = {}
    for cid, curve in enumerate(atlas.brep.curves):
        pts = atlas.brep.curve_points(mesh, cid)
        discretized[cid] = discretize_curve(pts, 0.3, closed=curve.closed)
    loops = face_sample_loops(atlas, 0, discretized)
    assert len(loops) == 2
    keys = [k for loop in loops for k, _, _ in loop]
    assert len(keys) == len(set(keys))  # no duplicate samples in a face


def test_remesh_requires_size():
    with pytest.raises(MeshError):
        remesh_model(cube(), PipelineOptions())


def test_remesh_output_scales_with_size():
    mesh = cube()
    coarse, _, _ = remesh_model(mesh, PipelineOptions(size=0.5))
    fine, _, _ = remesh_model(mesh, PipelineOptions(size=0.25))
    assert fine.n_triangles > coarse.n_triangles
    for out in (coarse, fine):
        assert validate(out).watertight


def test_remesh_plate_keeps_hole():
    mesh = concave_hole_plate()
    out, summary, _ = remesh_model(mesh, PipelineOptions(size=0.2))
    assert summary["output_boundary_loops"] == 2


def test_one_locator_per_face(monkeypatch):
    built = []

    class CountingLocator(UVLocator):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(remesh, "UVLocator", CountingLocator)
    _, _, atlas = remesh_model(cube(), PipelineOptions(size=0.25))
    assert len(built) == len(atlas.brep.faces)


def test_remesh_edge_lengths_near_target():
    mesh = cube()
    h = 0.25
    out, _, _ = remesh_model(mesh, PipelineOptions(size=h))
    edges = set()
    for t in out.triangles:
        for k in range(3):
            a, b = int(t[k]), int(t[(k + 1) % 3])
            edges.add((a, b) if a < b else (b, a))
    lens = np.array([
        np.linalg.norm(out.vertices[a] - out.vertices[b]) for a, b in edges
    ])
    assert 0.3 * h < np.median(lens) < 2.0 * h
