import sys
from pathlib import Path

import numpy as np
import pytest

from fixtures import (
    concave_hole_plate,
    cube,
    cylinder_shell,
    random_disk_fixture,
    sphere,
    torus,
)
from scalar_reference import reference_build_brep

from atlasmesh import param, pipeline
from atlasmesh.atlas import bisect_patch, build_brep, make_parametrizable, split_reason
from atlasmesh.features import detect_feature_edges, feature_corners, segment_patches
from atlasmesh.mesh import Adjacency, MeshError, Triangulation
from atlasmesh.patch import Patch
from atlasmesh.pipeline import PipelineOptions, build_atlas, remesh_model
from atlasmesh.refine import default_threshold, longest_edge_bisection

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import models  # noqa: E402


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
    prepared, records = make_parametrizable([patch], 100_000, _flatten)
    parts = [d[0] for d in prepared]
    assert len(parts) >= 2
    assert any(r.reason == "genus" for r in records)
    for part in parts:
        info, ok = part.topology()
        assert ok and info.g == 0 and info.b >= 1


def test_torus_splits_until_genus_zero():
    patch = _full_patch(torus())
    prepared, _ = make_parametrizable([patch], 100_000, _flatten)
    for part, _, _ in prepared:
        info, ok = part.topology()
        assert ok and info.g == 0


def test_size_limit_forces_split():
    mesh = cylinder_shell(n=16, rows=4)
    patch = _full_patch(mesh)
    prepared, records = make_parametrizable([patch], patch.n_triangles // 2, _flatten)
    assert len(prepared) >= 2
    assert any(r.reason == "size" for r in records)
    assert sum(p.n_triangles for p, _, _ in prepared) == patch.n_triangles


def test_disk_patch_untouched():
    mesh = concave_hole_plate()
    patch = _full_patch(mesh)
    prepared, records = make_parametrizable([patch], 100_000, _flatten)
    assert len(prepared) == 1
    assert records == []


@pytest.mark.parametrize("make", [cube, torus, concave_hole_plate, cylinder_shell])
def test_each_face_is_parametrized_once_and_passes_the_split_check(monkeypatch, make):
    # the planar faces of the cube and the plate are projected: no
    # refinement, no assembly; the curved ones are refined and solved once
    calls = []
    assemble = param.assemble_system
    monkeypatch.setattr(param, "assemble_system", lambda *a, **k: calls.append(1) or assemble(*a, **k))
    atlas = build_atlas(make(), PipelineOptions(refine_threshold="auto"))
    faces = atlas.summary["faces"]
    if make in (cube, concave_hole_plate):
        assert calls == []
        assert all(f["refine"] is None and f["residual"] == 0.0 for f in faces)
    else:
        assert len(calls) == len(atlas.brep.faces)
        assert all(f["refine"]["splits"] > 0 for f in faces)
    assert [split_reason(pr) for pr in atlas.params] == [None] * len(atlas.params)


@pytest.mark.parametrize("refine", [None, "auto"], ids=["unrefined", "refined"])
@pytest.mark.parametrize("make", [cube, torus])
def test_each_patch_is_tested_for_planarity_once(monkeypatch, make, refine):
    # a refined patch is a new patch, with its own test
    tested = []
    projection = pipeline.projection
    monkeypatch.setattr(pipeline, "projection", lambda p: tested.append(p) or projection(p))
    atlas = build_atlas(make(), PipelineOptions(refine_threshold=refine))
    assert len({id(p) for p in tested}) == len(tested) >= len(atlas.patches)


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
    # at a feature angle of 180 no turn is sharp, so neither loop has a corner
    mesh = concave_hole_plate()
    atlas = build_atlas(mesh, PipelineOptions(refine_threshold=None, angle_deg=180.0))
    closed = [c for c in atlas.brep.curves if c.closed]
    assert len(closed) == 2  # outer boundary and hole rim
    (face,) = atlas.brep.faces
    assert len(face.loops) == 2


@pytest.mark.parametrize("make,sharp", [
    (concave_hole_plate, 14), (lambda: random_disk_fixture(0), 9), (lambda: random_disk_fixture(1), 8),
], ids=["plate", "disk0", "disk1"])
def test_sharp_boundary_turns_are_brep_corners(make, sharp):
    mesh = make()
    adj = Adjacency(mesh)
    features = detect_feature_edges(mesh, adj, 40.0)
    corners = feature_corners(mesh, adj, features, 40.0)
    assert len(corners) == sharp
    assert len(feature_corners(mesh, adj, features, 180.0)) == 0
    atlas = build_atlas(mesh, PipelineOptions(refine_threshold=None))
    assert set(corners.tolist()) <= set(atlas.brep.points)
    # the remeshed boundary passes through every one of them
    out, _, _ = remesh_model(mesh, PipelineOptions(size=0.25))
    gap = np.linalg.norm(out.vertices[None] - mesh.vertices[corners][:, None], axis=2).min(axis=1)
    assert (gap == 0.0).all()


def test_atlas_cuts_make_no_sharp_corner():
    # the cuts of a closed sphere zig-zag along input edges; only feature
    # edges can mark a sharp turn, and a sphere has none
    mesh = sphere(3)
    atlas = build_atlas(mesh, PipelineOptions(refine_threshold=None))
    assert len(atlas.patches) > 1
    assert atlas.brep.points == reference_build_brep(mesh, atlas.patches).points


def test_face_loops_walk_consistently():
    cases = [(cube(), 100_000), (concave_hole_plate(), 100_000),
             (cylinder_shell(), 100_000), (torus(), 100_000), (sphere(3), 25)]
    for mesh, max_triangles in cases:
        opt = PipelineOptions(refine_threshold=None, max_triangles=max_triangles)
        brep = build_atlas(mesh, opt).brep
        corners = set(brep.points)
        for face in brep.faces:
            for cyc, loop in zip(face.loops, face.patch.global_loops(), strict=True):
                curves = [brep.curves[cid] for cid, _ in cyc]
                chains = [c.vertices if fw else c.vertices[::-1]
                          for c, (_, fw) in zip(curves, cyc)]
                if curves[0].closed:  # a closed curve is its loop's only curve
                    assert len(cyc) == 1
                    walk = chains[0]
                    assert len(set(walk)) == len(walk)  # each vertex once
                else:
                    # consecutive curves share their junction point
                    for k in range(len(chains)):
                        assert chains[k][-1] == chains[(k + 1) % len(chains)][0]
                    walk = [v for chain in chains for v in chain[:-1]]
                # the chained curves are the loop, rotated to its first corner
                k0 = next((k for k, v in enumerate(loop) if v in corners), loop.index(walk[0]))
                assert walk == loop[k0:] + loop[:k0]


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


def _parts(mesh, angle, max_triangles=100_000):
    """The unrefined atlas parts that `build_atlas` hands to `build_brep`."""
    adj = Adjacency(mesh)
    labels = segment_patches(mesh, adj, detect_feature_edges(mesh, adj, angle))
    seeds = [Patch(mesh, np.flatnonzero(labels == pid)) for pid in range(labels.max() + 1)]
    return [d[0] for d in make_parametrizable(seeds, max_triangles, _flatten)[0]]


def _bench_model(name, **params):
    return Triangulation(*models.GENERATORS[name](**params))


def _bowtie(flip):
    """Two triangles meeting at vertex 0: each loop is a curve from 0 back to 0."""
    v = np.array([[0, 0, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0], [-1, -1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    return Triangulation(v, tris[:, ::-1] if flip else tris)


GRID_MODELS = {
    "cube": cube, "sphere2": lambda: sphere(2), "sphere3": lambda: sphere(3),
    "torus": torus, "cylinder": cylinder_shell, "plate": concave_hole_plate,
    **{f"disk{s}": (lambda s=s: random_disk_fixture(s)) for s in range(8)},
    "bench_torus": lambda: _bench_model("torus", nu=12, nv=6),
    "bench_tube": lambda: _bench_model("tube"),
    "bench_frame": lambda: _bench_model("square_frame", resolution=10),
    "bench_sphere": lambda: _bench_model("sphere", subdivisions=4),
}
SPLIT_MODELS = ["cube", "sphere3", "torus", "cylinder", "plate", "disk0", "disk1"]


def _assert_same_brep(mesh, parts, refined=None):
    """`build_brep` of `refined` (default `parts`) equals the reference on `parts`."""
    faces = parts if refined is None else refined
    new, ref = build_brep(mesh, faces), reference_build_brep(mesh, parts)
    assert new.points == ref.points
    assert len(new.curves) == len(ref.curves)
    for curve, old in zip(new.curves, ref.curves):
        assert (curve.closed, curve.faces) == (old.closed, old.faces)
        # the reference repeats a closed curve's start vertex at its end
        assert curve.vertices == (old.vertices[:-1] if old.closed else old.vertices)
    assert [f.loops for f in new.faces] == [f.loops for f in ref.faces]
    assert all(f.patch is p for f, p in zip(new.faces, faces, strict=True))


def _reference_cases(name):
    """(mesh, atlas parts) pairs: the angle grid, plus forced splits for some."""
    if name.startswith("bowtie"):
        mesh = _bowtie(flip=name == "bowtie_flipped")
        return [(mesh, [_full_patch(mesh)]), (mesh, [Patch(mesh, [0]), Patch(mesh, [1])])]
    mesh = GRID_MODELS[name]()
    cases = [(mesh, _parts(mesh, angle)) for angle in (20, 40, 180)]
    if name in SPLIT_MODELS:
        cases += [(mesh, _parts(mesh, angle, max_triangles))
                  for max_triangles in (200, 60, 25, 9) for angle in (40, 180)]
    return cases


@pytest.mark.parametrize("name", sorted(GRID_MODELS) + ["bowtie", "bowtie_flipped"])
def test_brep_equals_the_reference(name):
    for mesh, parts in _reference_cases(name):
        _assert_same_brep(mesh, parts)


@pytest.mark.parametrize("name", sorted(GRID_MODELS) + ["bowtie", "bowtie_flipped"])
def test_brep_of_refined_parts_equals_the_reference(name):
    # refinement keeps every part's boundary, so its BREP is the unrefined one
    for mesh, parts in _reference_cases(name):
        refined = [longest_edge_bisection(p, 0.5 * default_threshold(p))[0] for p in parts]
        _assert_same_brep(mesh, parts, refined)


@pytest.mark.parametrize("make", [cube, concave_hole_plate, torus])
def test_brep_faces_hold_the_atlas_patches(make):
    atlas = build_atlas(make(), PipelineOptions(refine_threshold="auto"))
    assert all(f.patch is p for f, p in zip(atlas.brep.faces, atlas.patches, strict=True))
