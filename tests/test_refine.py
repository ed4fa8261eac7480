import numpy as np
import pytest

from fixtures import concave_hole_plate, cylinder_shell, random_disk_fixture

from atlasmesh.mesh import MeshError, validate
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
    refined, _ = longest_edge_bisection(
        patch, max_rounds=5, split_boundary=False
    )
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
    refined, rep = longest_edge_bisection(_full_patch(build()))
    assert rep.splits > 0
    v, tris, g = refined.tri.vertices, refined.tri.triangles, refined.global_vertices
    opt = ParamOptions(scheme=scheme, hole_policy=hole_policy)
    a = parametrize(refined, opt)
    b = parametrize(Patch.from_local(v, tris[::-1], g), opt)
    assert np.array_equal(a.uv.view(np.int64), b.uv.view(np.int64))
    assert a.residual == b.residual

