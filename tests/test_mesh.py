import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell, sphere, torus

from atlasmesh.mesh import (
    Adjacency,
    MeshError,
    Triangulation,
    boundary_loops,
    euler_check,
    first_occurrence,
    stable_order,
    validate,
)


def test_rejects_bad_indices():
    v = np.zeros((3, 3))
    with pytest.raises(MeshError):
        Triangulation(v, [[0, 1, 3]])
    with pytest.raises(MeshError):
        Triangulation(v, [[0, 1, -1]])


def test_rejects_repeated_vertex():
    v = np.zeros((3, 3))
    with pytest.raises(MeshError):
        Triangulation(v, [[0, 1, 1]])


def test_rejects_non_finite():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]])
    with pytest.raises(MeshError):
        Triangulation(v, [[0, 1, 2]])


def test_patch_tags_shape_checked():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(MeshError):
        Triangulation(v, [[0, 1, 2]], patch_tags=[1, 2])
    t = Triangulation(v, [[0, 1, 2]], patch_tags=[7])
    assert t.patch_tags.tolist() == [7]


def test_areas_and_normals():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    t = Triangulation(v, [[0, 1, 2]])
    assert t.triangle_areas()[0] == pytest.approx(0.5)
    assert t.triangle_normals()[0] == pytest.approx([0, 0, 1])
    assert t.total_area() == pytest.approx(0.5)
    assert t.bbox_diagonal() == pytest.approx(np.sqrt(2.0))


def test_adjacency_counts_on_cube():
    m = cube()
    adj = Adjacency(m)
    assert adj.n_edges == 18  # 12 quad edges + 6 diagonals
    assert adj.is_manifold()
    assert adj.is_oriented()
    assert not adj.has_boundary


def test_orientation_flip_detected():
    m = cube()
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]
    adj = Adjacency(Triangulation(m.vertices, tris))
    assert not adj.is_oriented()


def test_nonmanifold_edge_detected():
    # three triangles sharing one edge
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], dtype=float
    )
    t = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
    adj = Adjacency(Triangulation(v, t))
    assert not adj.is_manifold()


def test_boundary_loops_square():
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float
    )
    m = Triangulation(v, [[0, 1, 2], [0, 2, 3]])
    loops = boundary_loops(m, Adjacency(m))
    assert len(loops) == 1
    assert sorted(loops[0]) == [0, 1, 2, 3]
    # walk order keeps the surface on the left (counter-clockwise here)
    i = loops[0].index(0)
    rolled = loops[0][i:] + loops[0][:i]
    assert rolled == [0, 1, 2, 3]


def test_boundary_loops_annulus():
    m = cylinder_shell(rows=2)
    loops = boundary_loops(m, Adjacency(m))
    assert len(loops) == 2
    assert {len(l) for l in loops} == {20}


def test_validate_flags_degenerate():
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.0, 0.0]], dtype=float
    )
    m = Triangulation(v, [[0, 1, 2], [0, 3, 1]])  # second has zero area
    rep = validate(m)
    assert rep.degenerate_triangles == [1]
    assert not rep.ok


def test_validate_flags_duplicates():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    m = Triangulation(v, [[0, 2, 1], [0, 1, 3], [2, 0, 1], [1, 2, 3], [0, 3, 2]])
    rep = validate(m)
    assert rep.duplicate_triangles == [0, 2]
    assert not rep.ok


def test_validate_watertight_cube():
    rep = validate(cube())
    assert rep.ok
    assert rep.watertight
    assert rep.boundary_loop_count == 0


@pytest.mark.parametrize(
    "build,g,b,parametrizable",
    [
        (cube, 0, 0, False),
        (lambda: sphere(2), 0, 0, False),
        (torus, 1, 0, False),
        (cylinder_shell, 0, 2, True),
        (concave_hole_plate, 0, 2, True),
    ],
)
def test_euler_check(build, g, b, parametrizable):
    info, ok = euler_check(build())
    assert (info.g, info.b) == (g, b)
    assert ok == parametrizable
    assert info.formula_residual() == 0


def test_euler_check_rejects_nonmanifold():
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], dtype=float
    )
    with pytest.raises(MeshError):
        euler_check(Triangulation(v, [[0, 1, 2], [0, 3, 1], [0, 1, 4]]))


def _unique_first_occurrence(keys):
    """The np.unique formulation that first_occurrence replaced."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return first[order], rank[inverse.ravel()]


def test_first_occurrence_equals_the_unique_formulation():
    rng = np.random.default_rng(3)
    signed_zeros = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [1.0, -0.0, 0.0],
                             [1.0, 0.0, -0.0], [0.0, 1.0, 2.0]])
    cases = {
        "rows with duplicates": rng.integers(0, 4, (500, 3)) / 4.0,
        "float32 rows": (rng.integers(0, 6, (300, 3)) / 3.0).astype(np.float32),
        "signed zeros": signed_zeros,
        "1-D integers": rng.integers(-3, 40, 400),
        "one row": np.array([[0.5, -1.0, 2.0]]),
        "zero rows": np.zeros((0, 3)),
        "zero integers": np.zeros(0, dtype=np.int64),
    }
    for name, keys in cases.items():
        first, index = first_occurrence(keys)
        want_first, want_index = _unique_first_occurrence(keys)
        assert first.dtype == index.dtype == np.int64, name
        assert np.array_equal(first, want_first), name
        assert np.array_equal(index, want_index), name
        assert np.array_equal(keys[first][index], keys), name
    first, index = first_occurrence(signed_zeros)
    assert first.tolist() == [0, 2] and index.tolist() == [0, 0, 1, 1, 0]


@pytest.mark.parametrize("top", [1, 2**16 - 1, 2**16, 2**31])
def test_stable_order_equals_the_stable_argsort(top):
    # ties keep their input order: the low pass, then the high pass
    rng = np.random.default_rng(top % 1000)
    for n in (0, 1, 7, 5000):
        keys = rng.integers(0, top + 1, n)
        keys[rng.integers(0, max(n, 1), n // 3)] = top  # the maximum, tied
        keys[: n // 4] = keys[n // 4 : 2 * (n // 4)]  # more ties, in runs
        for k in (keys, keys.astype(np.uint32)):
            assert np.array_equal(stable_order(k), np.argsort(k, kind="stable")), (top, n, k.dtype)
