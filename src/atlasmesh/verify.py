"""Numerical harness: Laplace convergence of the two weight schemes.

Solves the Laplace equation on the unit square with a harmonic
manufactured solution as Dirichlet data, on structured and Delaunay mesh
families, and fits log-log error slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Adjacency, MeshError, Triangulation
from .param import dirichlet_system, scheme_weight_matrix, solve_system
from .planar import delaunay

TWO_PI = 2.0 * np.pi


def manufactured_solution(x, y):
    """sin(2 pi x) cosh(2 pi y): harmonic on the plane."""
    return np.sin(TWO_PI * np.asarray(x)) * np.cosh(TWO_PI * np.asarray(y))


def manufactured_gradient(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (
        TWO_PI * np.cos(TWO_PI * x) * np.cosh(TWO_PI * y),
        TWO_PI * np.sin(TWO_PI * x) * np.sinh(TWO_PI * y),
    )


def build_square_mesh(kind, n, seed=1) -> Triangulation:
    """Unit-square test mesh.

    structured: an n x n grid with every cell cut by the same
    anti-diagonal, so each interior vertex sees four axis neighbours and
    two diagonal ones.  delaunay: the same boundary points with jittered
    interior points, triangulated by scipy; the jitter is seeded, so the
    mesh is identical across runs.
    """
    if n < 2:
        raise MeshError("resolution must be at least 2")
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    if kind == "structured":
        tris = []
        for i in range(n):
            for j in range(n):
                p00, p10 = vid(i, j), vid(i + 1, j)
                p01, p11 = vid(i, j + 1), vid(i + 1, j + 1)
                tris.append([p00, p10, p01])  # anti-diagonal p10 -> p01
                tris.append([p10, p11, p01])
        verts = np.column_stack([pts, np.zeros(len(pts))])
        return Triangulation(verts, np.asarray(tris, dtype=np.int64))
    if kind == "delaunay":
        interior = (pts[:, 0] > 0.0) & (pts[:, 0] < 1.0) & \
                   (pts[:, 1] > 0.0) & (pts[:, 1] < 1.0)
        rng = np.random.default_rng(seed)
        jitter = rng.uniform(-0.3 * h, 0.3 * h, size=(int(interior.sum()), 2))
        pts = pts.copy()
        pts[interior] += jitter
        verts = np.column_stack([pts, np.zeros(len(pts))])
        return Triangulation(verts, delaunay(pts))
    raise MeshError(f"unknown mesh kind: {kind}")


def boundary_vertices(mesh: Triangulation):
    """Sorted ids of the vertices on boundary edges."""
    adj = Adjacency(mesh)
    return np.unique(adj.edges[adj.edge_count == 1])


def _laplace_system(mesh: Triangulation, scheme):
    """(A, rhs, unknown, boundary data) of the scheme for the manufactured
    solution; the boundary vertices are the nodes with unknown -1."""
    W = scheme_weight_matrix(mesh.vertices, mesh.triangles, scheme).tocoo()
    bnd = boundary_vertices(mesh)
    g = manufactured_solution(mesh.vertices[bnd, 0], mesh.vertices[bnd, 1])
    return (*dirichlet_system(mesh.n_vertices, W.row, W.col, W.data, bnd, g), g)


def solve_laplace(mesh: Triangulation, scheme) -> np.ndarray:
    """Nodal field with manufactured Dirichlet data on the whole boundary.

    Assembled and solved as the disk map is: `dirichlet_system`, then
    `solve_system` with its iterative fallback.
    """
    A, rhs, unknown, g = _laplace_system(mesh, scheme)
    field = np.empty(mesh.n_vertices)
    field[unknown < 0] = g
    field[unknown >= 0] = solve_system(A, rhs)[0][:, 0]
    return field


def scheme_residual(mesh: Triangulation, scheme, field):
    """Interior-row residuals A @ field - rhs of the assembled scheme; 0 on the boundary."""
    A, rhs, unknown, _ = _laplace_system(mesh, scheme)
    free = unknown >= 0
    r = np.zeros(mesh.n_vertices)
    r[free] = A @ np.asarray(field)[free] - rhs[:, 0]
    return r


def error_norms(mesh: Triangulation, field):
    """(L2, H1-seminorm) error of the piecewise-linear field.

    Both integrals use the 3-point mid-edge rule, which is exact for
    quadratics; the discrete gradient is constant per triangle.
    """
    t = mesh.triangles
    p = mesh.vertices[t][:, :, :2]
    f = np.asarray(field)[t]
    # constant gradient of the linear interpolant
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * np.abs(det)
    gx = ((f[:, 1] - f[:, 0]) * d2[:, 1] - (f[:, 2] - f[:, 0]) * d1[:, 1]) / det
    gy = (-(f[:, 1] - f[:, 0]) * d2[:, 0] + (f[:, 2] - f[:, 0]) * d1[:, 0]) / det
    l2 = np.zeros(len(t))
    h1 = np.zeros(len(t))
    for a, b in ((0, 1), (1, 2), (0, 2)):
        mid = 0.5 * (p[:, a] + p[:, b])
        fh = 0.5 * (f[:, a] + f[:, b])
        fe = manufactured_solution(mid[:, 0], mid[:, 1])
        l2 += (fh - fe) ** 2
        ex, ey = manufactured_gradient(mid[:, 0], mid[:, 1])
        h1 += (gx - ex) ** 2 + (gy - ey) ** 2
    l2 = float(np.sqrt(np.sum(areas / 3.0 * l2)))
    h1 = float(np.sqrt(np.sum(areas / 3.0 * h1)))
    return l2, h1


@dataclass
class ConvergenceResult:
    scheme: str
    kind: str
    levels: list  # (h, l2, h1) per level, h strictly decreasing
    l2_slope: float
    h1_slope: float


def _fit_slope(hs, errs):
    hs = np.log(np.asarray(hs))
    errs = np.log(np.maximum(np.asarray(errs), 1e-300))
    A = np.column_stack([hs, np.ones_like(hs)])
    sol, *_ = np.linalg.lstsq(A, errs, rcond=None)
    return float(sol[0])


def convergence_study(scheme, kind, resolutions=(16, 24, 32, 48, 64, 96, 128), seed=1):
    """Errors and fitted slopes; each distinct resolution once, coarse to fine."""
    resolutions = sorted(set(resolutions))
    if len(resolutions) < 2:
        raise MeshError("a convergence slope needs at least two distinct resolutions")
    levels = []
    for n in resolutions:
        mesh = build_square_mesh(kind, n, seed=seed)
        field = solve_laplace(mesh, scheme)
        l2, h1 = error_norms(mesh, field)
        levels.append((1.0 / n, l2, h1))
    hs = [lv[0] for lv in levels]
    return ConvergenceResult(
        scheme=scheme,
        kind=kind,
        levels=levels,
        l2_slope=_fit_slope(hs, [lv[1] for lv in levels]),
        h1_slope=_fit_slope(hs, [lv[2] for lv in levels]),
    )
