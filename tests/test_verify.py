import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from atlasmesh.mesh import MeshError
import atlasmesh.param as param_module
from atlasmesh.param import scheme_weight_matrix
from atlasmesh.verify import (
    boundary_vertices,
    build_square_mesh,
    convergence_study,
    error_norms,
    manufactured_gradient,
    manufactured_solution,
    scheme_residual,
    solve_laplace,
    _fit_slope,
)


def test_manufactured_solution_is_harmonic():
    # finite-difference Laplacian vanishes up to truncation error
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    eps = 1e-4
    for x, y in pts:
        lap = (
            manufactured_solution(x + eps, y)
            + manufactured_solution(x - eps, y)
            + manufactured_solution(x, y + eps)
            + manufactured_solution(x, y - eps)
            - 4.0 * manufactured_solution(x, y)
        ) / eps**2
        assert abs(lap) < 1e-3 * max(1.0, abs(manufactured_solution(x, y)))


def test_gradient_matches_finite_differences():
    eps = 1e-6
    x, y = 0.3, 0.4
    gx, gy = manufactured_gradient(x, y)
    fx = (manufactured_solution(x + eps, y) - manufactured_solution(x - eps, y)) / (2 * eps)
    fy = (manufactured_solution(x, y + eps) - manufactured_solution(x, y - eps)) / (2 * eps)
    assert gx == pytest.approx(fx, rel=1e-6)
    assert gy == pytest.approx(fy, rel=1e-6)


def test_structured_mesh_counts():
    n = 4
    m = build_square_mesh("structured", n)
    assert m.n_vertices == (n + 1) ** 2
    assert m.n_triangles == 2 * n * n
    assert (m.triangle_areas() > 0).all()


def test_delaunay_mesh_is_seeded_and_valid():
    a = build_square_mesh("delaunay", 8, seed=3)
    b = build_square_mesh("delaunay", 8, seed=3)
    c = build_square_mesh("delaunay", 8, seed=4)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert not np.array_equal(a.vertices, c.vertices)
    # boundary grid points are never jittered
    bnd = boundary_vertices(a)
    on_edge = (
        np.isclose(a.vertices[bnd, 0], 0) | np.isclose(a.vertices[bnd, 0], 1)
        | np.isclose(a.vertices[bnd, 1], 0) | np.isclose(a.vertices[bnd, 1], 1)
    )
    assert on_edge.all()


def test_mesh_kind_and_resolution_validated():
    with pytest.raises(MeshError):
        build_square_mesh("hexagonal", 8)
    with pytest.raises(MeshError):
        build_square_mesh("structured", 1)


def test_solver_reproduces_boundary_data():
    m = build_square_mesh("structured", 8)
    field = solve_laplace(m, "fem")
    bnd = boundary_vertices(m)
    exact = manufactured_solution(m.vertices[bnd, 0], m.vertices[bnd, 1])
    assert np.allclose(field[bnd], exact)
    r = scheme_residual(m, "fem", field)
    assert np.abs(r).max() < 1e-9


def test_error_norms_zero_for_exact_linear_field():
    # the 3-point rule integrates the interpolation residual of the
    # manufactured solution; feeding the exact nodal values must give a
    # small but nonzero L2 and a first-order H1 error
    m_coarse = build_square_mesh("structured", 8)
    m_fine = build_square_mesh("structured", 32)
    errs = []
    for m in (m_coarse, m_fine):
        f = manufactured_solution(m.vertices[:, 0], m.vertices[:, 1])
        errs.append(error_norms(m, f))
    assert errs[1][0] < errs[0][0] / 10.0  # ~h^2 interpolation error
    assert errs[1][1] < errs[0][1] / 3.0  # ~h gradient error


def test_fit_slope_exact_on_synthetic_data():
    hs = [0.5, 0.25, 0.125, 0.0625]
    errs = [3.0 * h**1.7 for h in hs]
    assert _fit_slope(hs, errs) == pytest.approx(1.7, abs=1e-12)


def test_convergence_study_levels_decrease():
    res = convergence_study("fem", "structured", resolutions=(8, 16, 32))
    hs = [lv[0] for lv in res.levels]
    l2 = [lv[1] for lv in res.levels]
    assert hs == sorted(hs, reverse=True)
    assert l2 == sorted(l2, reverse=True)
    assert 1.7 < res.l2_slope < 2.3


def _reference_operator(mesh, scheme):
    W = scheme_weight_matrix(mesh.vertices, mesh.triangles, scheme)
    return (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()


def reference_solve_laplace(mesh, scheme):
    """The operator-slicing solve: L = diag(rowsum W) - W, restricted to the
    interior rows and columns, boundary columns moved to the rhs."""
    n = mesh.n_vertices
    L = _reference_operator(mesh, scheme)
    bnd = boundary_vertices(mesh)
    g = manufactured_solution(mesh.vertices[bnd, 0], mesh.vertices[bnd, 1])
    mask = np.ones(n, dtype=bool)
    mask[bnd] = False
    free = np.nonzero(mask)[0]
    x = spla.splu(L[free][:, free].tocsc()).solve(-L[free][:, bnd] @ g)
    field = np.empty(n)
    field[bnd] = g
    field[free] = x
    return field


def reference_scheme_residual(mesh, scheme, field):
    r = _reference_operator(mesh, scheme) @ field
    r[boundary_vertices(mesh)] = 0.0
    return r


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("kind", ["structured", "delaunay"])
@pytest.mark.parametrize("scheme", ["mvc", "fem"])
def test_laplace_harness_equals_the_operator_slicing_reference(scheme, kind, n):
    m = build_square_mesh(kind, n)
    field = solve_laplace(m, scheme)
    ref = reference_solve_laplace(m, scheme)
    assert np.abs(field - ref).max() <= 1e-12 * np.abs(ref).max()
    # the residual of the solve, and of the exact nodal values (truncation error)
    exact = manufactured_solution(m.vertices[:, 0], m.vertices[:, 1])
    for f in (field, exact):
        r = scheme_residual(m, scheme, f)
        assert np.abs(r - reference_scheme_residual(m, scheme, f)).max() <= 1e-9
    assert np.abs(scheme_residual(m, scheme, exact)).max() > 1e-6


@pytest.mark.parametrize("kind", ["structured", "delaunay"])
def test_laplace_harness_falls_back_when_the_factor_fails(monkeypatch, kind):
    m = build_square_mesh(kind, 16)
    direct = solve_laplace(m, "mvc")

    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    calls = []
    fallback = param_module._iterative_fallback
    monkeypatch.setattr(spla, "splu", singular)
    monkeypatch.setattr(param_module, "_iterative_fallback",
                        lambda *a: calls.append(1) or fallback(*a))
    iterative = solve_laplace(m, "mvc")
    assert calls == [1]
    # relative to the field's scale, cosh(2 pi) ~ 268 on the top edge
    assert np.abs(iterative - direct).max() <= 1e-10 * np.abs(direct).max()
