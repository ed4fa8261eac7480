import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    concave_hole_plate,
    cube,
    cylinder_shell,
    planar_fixture,
    random_disk_fixture,
    torus,
)

from atlasmesh import param as param_module

from atlasmesh.mesh import MeshError, Triangulation
from atlasmesh.param import (
    ParamOptions,
    _virtual_hole_triangles,
    apply_boundary,
    assemble_system,
    parametrize,
    projection,
    scheme_weight_matrix,
    select_outer_loop,
    signed_uv_areas,
    solve,
    triangle_angles,
)
from atlasmesh.patch import Patch
from atlasmesh.pipeline import build_atlas

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import models  # noqa: E402

coord = st.floats(-10.0, 10.0, allow_nan=False)


triangle_points = st.tuples(
    st.tuples(coord, coord), st.tuples(coord, coord), st.tuples(coord, coord)
).filter(
    lambda t: abs(
        (t[1][0] - t[0][0]) * (t[2][1] - t[0][1])
        - (t[1][1] - t[0][1]) * (t[2][0] - t[0][0])
    )
    > 1e-3
)


def _side_lengths(a, b, c):
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    return (
        np.linalg.norm(b - c),
        np.linalg.norm(c - a),
        np.linalg.norm(a - b),
    )


@given(triangle_points)
@settings(max_examples=200)
def test_angles_sum_to_pi(pts):
    la, lb, lc = _side_lengths(*pts)
    th = triangle_angles(la, lb, lc)
    assert np.all(np.asarray(th) > 0.0)
    assert float(np.sum(th)) == pytest.approx(np.pi, abs=1e-9)


def test_angles_right_triangle():
    th = triangle_angles(5.0, 4.0, 3.0)  # opposite hypotenuse is pi/2
    assert th[0] == pytest.approx(np.pi / 2)
    assert th[1] == pytest.approx(np.arcsin(4.0 / 5.0))


def mvc_weight(theta_k, theta_l, l_ij):
    """Reference: mean value weight (tan(tk/2) + tan(tl/2)) / l of one edge."""
    return (np.tan(theta_k / 2.0) + np.tan(theta_l / 2.0)) / l_ij


def fem_weight(theta_k, theta_l):
    """Reference: cotangent weight (cot tk + cot tl) / 2 of one edge."""
    return 0.5 * (1.0 / np.tan(theta_k) + 1.0 / np.tan(theta_l))


def _weights_by_triangle(vertices, triangles, scheme):
    """Reference W summed triangle by triangle from the scalar formulas.

    A triangle adds half of the edge formula with both angles equal to its
    own angle.  Also returns the sum of the magnitudes of the terms, which
    bounds the rounding of the sums.
    """
    W, mag = {}, {}
    for tri in triangles:
        p = vertices[tri]
        lens = np.linalg.norm(p[[1, 2, 0]] - p[[2, 0, 1]], axis=1)
        theta = triangle_angles(*lens)
        for k in range(3):
            i, j, o = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
            if scheme == "mvc":  # the angle at i, towards j and towards o
                l_ij, l_io = lens[(k + 2) % 3], lens[(k + 1) % 3]
                terms = [((i, j), 0.5 * mvc_weight(theta[k], theta[k], l_ij)),
                         ((i, o), 0.5 * mvc_weight(theta[k], theta[k], l_io))]
            else:  # the angle at i is opposite the edge (j, o)
                w = 0.5 * fem_weight(theta[k], theta[k])
                terms = [((j, o), w), ((o, j), w)]
            for key, w in terms:
                W[key] = W.get(key, 0.0) + w
                mag[key] = mag.get(key, 0.0) + abs(w)
    return W, mag


@given(triangle_points)
@settings(max_examples=200)
def test_mvc_weight_positive(pts):
    W = scheme_weight_matrix(np.asarray(pts), [[0, 1, 2]], "mvc")
    assert W.nnz == 6
    assert (W.data > 0.0).all()


def test_fem_weight_sign():
    # the edge (0, 1) faces two acute angles -> positive; two obtuse -> negative
    for apex, sign in ((2.0, 1.0), (0.2, -1.0)):
        verts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, apex], [0.0, -apex]])
        W = scheme_weight_matrix(verts, [[0, 1, 2], [1, 0, 3]], "fem")
        assert sign * W[0, 1] > 0.0
        assert sign * W[1, 0] > 0.0


# float64 rounding of each per-triangle term and of one addition per term
WEIGHT_RTOL = 8 * np.finfo(np.float64).eps


@pytest.mark.parametrize("scheme", ["mvc", "fem"])
def test_weight_matrix_matches_scalar_formulas(scheme):
    for seed in range(8):
        m = random_disk_fixture(seed)
        W = scheme_weight_matrix(m.vertices, m.triangles, scheme).tocoo()
        ref, mag = _weights_by_triangle(m.vertices, m.triangles, scheme)
        got = {(int(i), int(j)): w for i, j, w in zip(W.row, W.col, W.data)}
        assert set(got) == set(ref)
        for key, w in ref.items():
            assert abs(got[key] - w) <= WEIGHT_RTOL * mag[key]


def test_weight_matrix_mvc_positive_everywhere():
    for seed in (0, 1, 2, 5):
        m = random_disk_fixture(seed)
        W = scheme_weight_matrix(m.vertices, m.triangles, "mvc")
        assert (W.data > 0.0).all()


def test_weight_matrix_fem_symmetric():
    m = random_disk_fixture(1)
    W = scheme_weight_matrix(m.vertices, m.triangles, "fem")
    assert abs(W - W.T).max() < 1e-12


def test_weight_matrix_rejects_unknown_scheme():
    m = random_disk_fixture(0)
    with pytest.raises(MeshError):
        scheme_weight_matrix(m.vertices, m.triangles, "umbrella")


def _hexagon_fan():
    ang = np.linspace(0.0, 2 * np.pi, 7)[:-1]
    ring = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
    verts = np.vstack([[[0.0, 0.0, 0.0]], ring])
    tris = [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)]
    return Triangulation(verts, np.asarray(tris))


def test_hexagon_fan_center_maps_to_origin():
    patch = Patch(_hexagon_fan(), np.arange(6))
    for scheme in ("mvc", "fem"):
        param = parametrize(patch, ParamOptions(scheme=scheme))
        assert param.injective
        assert param.residual < 1e-12
        centre = patch.local_index()[0]
        assert np.allclose(param.uv[centre], [0.0, 0.0], atol=1e-12)


def test_boundary_on_unit_circle():
    m = random_disk_fixture(0)
    patch = Patch(m, np.arange(m.n_triangles))
    outer, uv = apply_boundary(patch)
    r = np.linalg.norm(np.asarray(list(uv.values())), axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)
    assert len(uv) == len(patch.loops[outer])


def test_interior_inside_unit_disk():
    for seed in (0, 1, 2, 3):
        m = random_disk_fixture(seed)
        patch = Patch(m, np.arange(m.n_triangles))
        param = parametrize(patch)
        r = np.linalg.norm(param.uv, axis=1)
        assert (r <= 1.0 + 1e-9).all()


def test_interior_vertex_is_convex_combination():
    # an MVC row reproduces the vertex itself from its neighbours
    m = random_disk_fixture(0)
    patch = Patch(m, np.arange(m.n_triangles))
    param = parametrize(patch)
    W = scheme_weight_matrix(
        patch.tri.vertices, patch.tri.triangles, "mvc"
    ).tocsr()
    boundary = {v for loop in patch.loops for v in loop}
    for v in range(patch.tri.n_vertices):
        if v in boundary:
            continue
        row = W[v].toarray().ravel()
        recon = row @ param.uv / row.sum()
        assert np.allclose(recon, param.uv[v], atol=1e-9)


def test_closed_surface_rejected():
    patch = Patch(cube(), np.arange(12))
    with pytest.raises(MeshError):
        parametrize(patch)


def test_hole_fill_adds_center_unknown():
    m = concave_hole_plate()
    patch = Patch(m, np.arange(m.n_triangles))
    system = assemble_system(patch, ParamOptions(hole_policy="fill"))
    assert len(system.center_ids) == 1
    param = solve(patch, system)
    assert param.injective
    (cuv,) = param.center_uv.values()
    assert np.linalg.norm(cuv) < 1.0


def test_hole_policy_auto_threshold():
    m = concave_hole_plate()
    patch = Patch(m, np.arange(m.n_triangles))
    filled = assemble_system(patch, ParamOptions(hole_policy="auto", hole_threshold=100))
    assert len(filled.center_ids) == 1
    left = assemble_system(patch, ParamOptions(hole_policy="auto", hole_threshold=2))
    assert len(left.center_ids) == 0


def test_unknown_hole_policy():
    m = concave_hole_plate()
    patch = Patch(m, np.arange(m.n_triangles))
    with pytest.raises(MeshError):
        assemble_system(patch, ParamOptions(hole_policy="maybe"))


def test_outer_loop_is_longest():
    m = concave_hole_plate()
    patch = Patch(m, np.arange(m.n_triangles))
    outer = select_outer_loop(patch)
    perims = []
    for loop in patch.loops:
        pts = patch.tri.vertices[np.asarray(loop)]
        perims.append(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())
    assert perims[outer] == max(perims)


def test_check_injectivity_reports_folds():
    m = random_disk_fixture(0)
    patch = Patch(m, np.arange(m.n_triangles))
    param = parametrize(patch)
    assert param.injective
    assert (param.signed_areas > 0.0).all()
    assert np.array_equal(
        param.signed_areas, signed_uv_areas(patch.tri.triangles, param.uv)
    )
    # artificially fold one triangle
    bad = param.uv.copy()
    t0 = patch.tri.triangles[0]
    bad[t0[0]] = bad[t0[1]] + (bad[t0[1]] - bad[t0[0]]) * 2.0
    areas = signed_uv_areas(patch.tri.triangles, bad)
    assert (areas <= 0.0).any()


# -- assembly against the per-entry loop it replaced ---------------------------

def _loop_assembly(patch, scheme, hole_policy):
    """Reference: (A, rhs) assembled one W entry and one hole edge at a time."""
    outer_loop, boundary_uv = apply_boundary(patch)
    n = patch.tri.n_vertices
    W = scheme_weight_matrix(patch.tri.vertices, patch.tri.triangles, scheme)
    fill = [k for k in range(len(patch.loops))
            if k != outer_loop and hole_policy != "neumann"
            and (hole_policy == "fill" or len(patch.loops[k]) <= 100)]
    unknown = np.full(n, -1, dtype=np.int64)
    free = np.setdiff1d(np.arange(n), np.fromiter(boundary_uv, dtype=np.int64))
    unknown[free] = np.arange(len(free))
    m = len(free) + len(fill)
    rows, cols, vals = [], [], []
    rhs = np.zeros((m, 2))

    def add(i_unk, j_col, j_vert, lam):
        rows.append(i_unk)
        cols.append(i_unk)
        vals.append(lam)
        if j_col is None:
            rhs[i_unk] += lam * np.asarray(boundary_uv[j_vert])
        else:
            rows.append(i_unk)
            cols.append(j_col)
            vals.append(-lam)

    def vertex_col(j):
        return unknown[j] if unknown[j] >= 0 else None

    Wc = W.tocoo()
    for i, j, lam in zip(Wc.row.tolist(), Wc.col.tolist(), Wc.data.tolist()):
        if unknown[i] >= 0:
            add(unknown[i], vertex_col(j), j, lam)
    for c, k in enumerate(fill):
        loop = [int(v) for v in patch.loops[k]]
        alpha, beta, r_hole, base = _virtual_hole_triangles(patch, loop)
        cid = len(free) + c
        for e, (vj, vj1) in enumerate(zip(loop, loop[1:] + loop[:1])):
            if scheme == "mvc":
                w_center = np.tan(alpha[e] / 2.0) / r_hole
                w_ring = np.tan(beta[e] / 2.0) / base[e]
                w_back = np.tan(beta[e] / 2.0) / r_hole
            else:
                w_center = w_back = 0.5 / np.tan(beta[e])
                w_ring = 0.5 / np.tan(alpha[e])
            add(cid, vertex_col(vj), vj, w_center)
            add(cid, vertex_col(vj1), vj1, w_center)
            for a, b in ((vj, vj1), (vj1, vj)):
                if unknown[a] >= 0:
                    add(unknown[a], cid, None, w_back)
                    add(unknown[a], vertex_col(b), b, w_ring)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsc()
    A.sum_duplicates()
    return A, rhs


def _assembly_cases():
    for seed in range(50):
        for scheme in ("mvc", "fem"):
            yield random_disk_fixture(seed), scheme, "auto"
    for policy in ("fill", "neumann"):
        yield concave_hole_plate(), "mvc", policy


def test_assembly_equals_entry_loop():
    for mesh, scheme, policy in _assembly_cases():
        patch = Patch(mesh, np.arange(mesh.n_triangles))
        system = assemble_system(patch, ParamOptions(scheme=scheme, hole_policy=policy))
        A, rhs = _loop_assembly(patch, scheme, policy)
        assert np.array_equal(system.A.indptr, A.indptr)
        assert np.array_equal(system.A.indices, A.indices)
        assert np.array_equal(system.A.data, A.data)
        assert np.array_equal(system.rhs, rhs)


FALLBACK_CASES = {
    "plate-auto": (concave_hole_plate, "auto"),
    "plate-neumann": (concave_hole_plate, "neumann"),
    "cylinder": (cylinder_shell, "auto"),
    "disk0": (lambda: random_disk_fixture(0), "auto"),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_iterative_fallback_matches_the_direct_solve(monkeypatch, name):
    make, policy = FALLBACK_CASES[name]
    mesh = make()
    patch = Patch(mesh, np.arange(mesh.n_triangles))
    opt = ParamOptions(hole_policy=policy)
    direct = parametrize(patch, opt)

    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    calls = []
    fallback = param_module._iterative_fallback
    monkeypatch.setattr(spla, "splu", singular)
    monkeypatch.setattr(param_module, "_iterative_fallback",
                        lambda *a: calls.append(1) or fallback(*a))
    iterative = parametrize(patch, opt)
    assert calls == [1]
    assert iterative.injective
    assert np.abs(iterative.uv - direct.uv).max() <= 1e-10


# -- planar patches: the orthogonal projection --------------------------------


def _whole(mesh):
    return Patch(mesh, np.arange(mesh.n_triangles))


PLANAR_MODELS = {
    "cube": cube,
    "plate": concave_hole_plate,
    "disk0": lambda: random_disk_fixture(0),
    "disk1": lambda: random_disk_fixture(1),
    "frame": lambda: Triangulation(*models.square_frame(10)),
}


def _edge_lengths(points, triangles):
    p = points[triangles]
    return np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2)


@pytest.mark.parametrize("placement", [None, 0, 1, 2])
@pytest.mark.parametrize("name", sorted(PLANAR_MODELS))
def test_planar_faces_are_projected_isometrically(name, placement):
    mesh = PLANAR_MODELS[name]()
    if placement is not None:
        mesh = Triangulation(models.place(mesh.vertices, 77, placement), mesh.triangles)
    atlas = build_atlas(mesh)
    for patch, param, face in zip(atlas.patches, atlas.params, atlas.summary["faces"]):
        assert face["refine"] is None and param.residual == 0.0 and param.isometry
        assert np.array_equal(projection(patch).uv, param.uv)
        assert param.injective and (param.signed_areas > 0.0).all()
        uv_len = _edge_lengths(param.uv, patch.tri.triangles)
        xyz_len = _edge_lengths(patch.tri.vertices, patch.tri.triangles)
        assert (np.abs(uv_len - xyz_len) <= 1e-12 * xyz_len).all()


def test_projection_outer_loop_has_the_largest_area():
    mesh = concave_hole_plate()
    patch = _whole(mesh)
    param = projection(patch)
    assert param.outer_loop == select_outer_loop(patch)
    assert param.center_uv == {}
    # the UV origin is the mean vertex, wherever the plate lies
    moved = _whole(Triangulation(mesh.vertices + 1e6, mesh.triangles))
    assert np.allclose(projection(moved).uv.mean(axis=0), 0.0, atol=1e-6)


CURVED_MODELS = {
    "strip": lambda: planar_fixture(
        [(0, 0), (8, 0), (8, 0.4), (0, 0.4)], spacing=0.2, z=lambda x, y: 0.2 * np.sin(x / 2.0)),
    "disk2": lambda: random_disk_fixture(2),
    "shell": lambda: random_disk_fixture(3),
    "cylinder": cylinder_shell,
}


@pytest.mark.parametrize("name", sorted(CURVED_MODELS))
def test_curved_patches_take_the_disk_map(name):
    assert projection(_whole(CURVED_MODELS[name]())) is None


def test_torus_projects_its_flat_bands_only():
    # the 12 x 6 torus has two flat annular bands; its four conical bands
    # are refined and take the disk map
    atlas = build_atlas(torus(nu=12, nv=6))
    planar = [projection(p) is not None for p in atlas.patches]
    assert planar == [False, True, False, False, True, False]
    assert [f["refine"] is None for f in atlas.summary["faces"]] == planar
    assert [pr.residual == 0.0 for pr in atlas.params] == planar
    assert [pr.isometry for pr in atlas.params] == planar


def test_parametrize_maps_the_plate_onto_the_unit_disk():
    # projection is the pipeline's choice; parametrize is always the disk map
    patch = _whole(concave_hole_plate())
    param = parametrize(patch)
    r = np.linalg.norm(param.uv, axis=1)
    assert np.allclose(r[patch.loops[param.outer_loop]], 1.0, atol=1e-12)
    assert (r <= 1.0 + 1e-9).all()
    assert param.injective and not param.isometry
