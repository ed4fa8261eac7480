import numpy as np
import pytest

from fixtures import concave_hole_plate, cylinder_shell, random_disk_fixture

from atlasmesh.mesh import Adjacency, MeshError, Triangulation, boundary_loops, validate
from atlasmesh.param import ParamOptions, parametrize
from atlasmesh.patch import Patch
from atlasmesh.refine import default_threshold, longest_edge_bisection


def _full_patch(mesh):
    return Patch(mesh, np.arange(mesh.n_triangles))


def test_area_preserved_exactly():
    patch = _full_patch(cylinder_shell())
    before = patch.tri.total_area()
    refined, rep = longest_edge_bisection(patch, max_rounds=5)
    assert rep.splits > 0
    assert refined.tri.total_area() == pytest.approx(before, rel=1e-12)


def test_interior_edges_meet_threshold():
    patch = _full_patch(cylinder_shell())
    thr = default_threshold(patch)
    refined, rep = longest_edge_bisection(patch, length_threshold=thr)
    assert rep.converged
    assert rep.max_interior_edge <= thr + 1e-12


def test_output_stays_valid_and_manifold():
    patch = _full_patch(cylinder_shell())
    refined, _ = longest_edge_bisection(patch, max_rounds=3)
    rep = validate(refined.tri)
    assert rep.manifold and rep.oriented
    assert len(refined.loops) == len(patch.loops)


def test_no_split_when_threshold_large():
    patch = _full_patch(cylinder_shell())
    refined, rep = longest_edge_bisection(patch, length_threshold=100.0)
    assert rep.splits == 0
    assert refined.n_triangles == patch.n_triangles


def test_split_boundary_false_keeps_boundary_vertices():
    patch = _full_patch(cylinder_shell())
    n_before = {len(l) for l in patch.loops}
    refined, _ = longest_edge_bisection(patch, max_rounds=5)
    assert {len(l) for l in refined.loops} == n_before
    # original vertices keep their global back-references
    kept = refined.global_vertices[refined.global_vertices >= 0]
    assert set(kept) == set(patch.global_vertices)


def test_midpoints_have_no_global_id():
    patch = _full_patch(random_disk_fixture(0))
    refined, rep = longest_edge_bisection(patch, max_rounds=2)
    if rep.splits:
        assert (refined.global_vertices == -1).sum() == rep.splits


def test_threshold_validation():
    patch = _full_patch(cylinder_shell())
    with pytest.raises(MeshError):
        longest_edge_bisection(patch, length_threshold=0.0)
    with pytest.raises(MeshError, match="rounds must be at least 0"):
        longest_edge_bisection(patch, max_rounds=-1)


ORDER_CASES = [
    (cylinder_shell, "auto"),
    (concave_hole_plate, "auto"),
    (concave_hole_plate, "neumann"),
] + [(lambda s=s: random_disk_fixture(s), "auto") for s in range(4)]


@pytest.mark.parametrize("scheme", ["mvc", "fem"])
@pytest.mark.parametrize("build, hole_policy", ORDER_CASES,
                         ids=["cylinder", "plate-auto", "plate-neumann"]
                         + [f"disk{s}" for s in range(4)])
def test_parametrization_ignores_triangle_order(build, hole_policy, scheme):
    # refinement does not promise a triangle numbering, so the map of a
    # refined patch must not depend on it
    patch = _full_patch(build())
    refined, rep = longest_edge_bisection(patch, 0.5 * default_threshold(patch))
    assert rep.splits > 0
    v, tris = refined.tri.vertices, refined.tri.triangles
    opt = ParamOptions(scheme=scheme, hole_policy=hole_policy)
    a = parametrize(refined, opt)
    b = parametrize(Patch(Triangulation(v, tris[::-1]), np.arange(len(tris))), opt)
    assert np.array_equal(a.uv.view(np.int64), b.uv.view(np.int64))
    assert a.residual == b.residual


REFINED_CASES = {
    "cylinder": cylinder_shell,
    "plate": concave_hole_plate,
    **{f"disk{s}": (lambda s=s: random_disk_fixture(s)) for s in range(4)},
}


@pytest.mark.parametrize("name", sorted(REFINED_CASES))
def test_refined_patch_holds_its_own_connectivity(name):
    mesh = REFINED_CASES[name]()
    patch = _full_patch(mesh)
    refined, rep = longest_edge_bisection(patch, 0.5 * default_threshold(patch))
    assert rep.splits > 0
    fresh = Adjacency(refined.tri)
    for attr in ("edges", "half_edge", "edge_count", "edge_tri"):
        assert np.array_equal(getattr(refined.adj, attr), getattr(fresh, attr))
    assert refined.adj.has_boundary == fresh.has_boundary
    assert refined.loops == boundary_loops(refined.tri, fresh)
    # each refined triangle lies in the model triangle it names
    parent = refined.triangle_ids
    areas = np.bincount(parent, weights=refined.tri.triangle_areas(), minlength=mesh.n_triangles)
    assert areas == pytest.approx(mesh.triangle_areas(), rel=1e-12)
    p = mesh.vertices[mesh.triangles[parent]]
    c = refined.tri.triangle_corners().mean(axis=1)
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    for k in range(3):
        a, b = p[:, (k + 1) % 3], p[:, (k + 2) % 3]
        w = np.einsum("ij,ij->i", np.cross(b - a, c - a), n) / np.einsum("ij,ij->i", n, n)
        assert w.min() >= -1e-12
