"""One-to-one mapping of a disk-topology patch onto the unit disk.

The map solves a difference scheme: every interior vertex is a weighted
average of its neighbours, with mean-value or cotangent weights, and the
outer boundary pinned to the unit circle.  Interior holes are either left
free (homogeneous Neumann) or closed by a pseudo-center auxiliary unknown
built from virtual isosceles triangles that are never materialized.

A planar patch has a simpler one-to-one map: its orthogonal projection
onto its own plane (`projection`), an isometry that needs no solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .mesh import MeshError, signed_uv_areas
from .patch import Patch

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

ANGLE_CLAMP = 1e-12
RESIDUAL_TOL = 1e-10  # relative to the unit-circle boundary scale
PLANAR_COS = 1.0 - 1e-10  # smallest cosine of a planar patch's normals to their mean


def triangle_angles(la, lb, lc):
    """Angles opposite sides (la, lb, lc), elementwise.

    Uses the half-angle arctangent form, which stays accurate for needle
    triangles where the law of cosines cancels.
    """
    la, lb, lc = np.asarray(la), np.asarray(lb), np.asarray(lc)

    def one(a, b, c):
        # angle opposite side a
        num = (a + (b - c)) * (a - (b - c))
        den = (a + (b + c)) * ((b + c) - a)
        return 2.0 * np.arctan2(np.sqrt(np.maximum(num, 0.0)),
                                np.sqrt(np.maximum(den, 0.0)))

    return one(la, lb, lc), one(lb, lc, la), one(lc, la, lb)


def _clamp_angles(theta):
    lo, hi = ANGLE_CLAMP, np.pi - ANGLE_CLAMP
    clipped = np.clip(theta, lo, hi)
    if np.any(clipped != theta):
        logger.warning("clamped %d near-degenerate triangle angles",
                       int(np.count_nonzero(clipped != theta)))
    return clipped


# the six (row, column) corner pairs of a triangle, in weight order
PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def corner_weights(angles, sides, scheme):
    """The six weights lambda_ij of triangles, one array per pair in PAIRS.

    `angles[i]` is the angle at corner i and `sides[i]` the side opposite
    it, so corners i and j share side 3 - i - j.  MVC: tan(angle_i / 2)
    over that side; FEM: half the cotangent of the third corner's angle.
    """
    if scheme == "mvc":
        h = [np.tan(t / 2.0) for t in angles]
        return [h[i] / sides[3 - i - j] for i, j in PAIRS]
    if scheme == "fem":
        c = [0.5 / np.tan(t) for t in angles]
        return [c[3 - i - j] for i, j in PAIRS]
    raise MeshError(f"unknown scheme: {scheme}")


def scheme_weight_matrix(vertices, triangles, scheme):
    """Sparse matrix W with W[i, j] = lambda_ij summed over adjacent triangles.

    `vertices` may be 3D or 2D.  MVC rows are generally asymmetric, FEM
    rows symmetric.
    """
    import scipy.sparse as sp

    tri = np.asarray(triangles, dtype=np.int64)
    p = np.asarray(vertices, dtype=np.float64)[tri]
    n = len(vertices)
    # side lengths: l[.,0] opposite corner 0 etc.
    l0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    l1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    l2 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    angles = [_clamp_angles(t) for t in triangle_angles(l0, l1, l2)]
    vals = np.concatenate(corner_weights(angles, (l0, l1, l2), scheme))
    rows = np.concatenate([tri[:, i] for i, _ in PAIRS])
    cols = np.concatenate([tri[:, j] for _, j in PAIRS])
    W = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    W.sum_duplicates()
    return W


@dataclass
class ParamOptions:
    scheme: str = "mvc"
    hole_policy: str = "auto"
    hole_threshold: int = 100


@dataclass
class AssembledSystem:
    A: sp.csc_matrix
    rhs: np.ndarray  # (n_unknowns, 2)
    unknown_of_vertex: np.ndarray  # local vertex -> unknown index or -1
    boundary_uv: dict  # dirichlet local vertex -> (u, v)
    outer_loop: int
    center_ids: dict  # filled hole loop index -> its pseudo-center's unknown


@dataclass
class Parametrization:
    """Per-vertex disk coordinates of a patch."""

    uv: np.ndarray  # (n_local, 2)
    signed_areas: np.ndarray  # per local triangle, in the (u, v) plane
    injective: bool
    residual: float
    outer_loop: int
    center_uv: dict = field(default_factory=dict)  # filled hole loop -> (u, v)


def loop_lengths(patch: Patch, loop):
    pts = patch.tri.vertices[np.asarray(loop, dtype=np.int64)]
    nxt = np.roll(pts, -1, axis=0)
    return np.linalg.norm(nxt - pts, axis=1)


def select_outer_loop(patch: Patch):
    """The loop with the largest 3D perimeter bounds the disk."""
    if not patch.loops:
        raise MeshError("patch has no boundary loop; cut it first")
    perims = [float(loop_lengths(patch, l).sum()) for l in patch.loops]
    return int(np.argmax(perims))


def apply_boundary(patch: Patch):
    """Pin the outer loop to the unit circle by cumulative 3D arc length.

    Returns (outer loop index, dict local vertex -> (u, v)).
    """
    outer_loop = select_outer_loop(patch)
    loop = patch.loops[outer_loop]
    if len(loop) < 3:
        raise MeshError("outer loop shorter than 3 vertices")
    lens = loop_lengths(patch, loop)
    total = float(lens.sum())
    if total <= 0.0:
        raise MeshError("outer loop has zero length")
    s = np.concatenate([[0.0], np.cumsum(lens)[:-1]])
    ang = 2.0 * np.pi * s / total
    uv = {int(v): (float(np.cos(a)), float(np.sin(a))) for v, a in zip(loop, ang)}
    return outer_loop, uv


def _virtual_hole_triangles(patch: Patch, loop):
    """Isosceles fan geometry closing a hole loop.

    The hole is treated as a circle whose circumference equals the loop
    perimeter; every loop vertex sits on it at radius r and consecutive
    vertices subtend the angle of their 3D edge length.  Returns per-edge
    (apex angle, base angle, radius, base length) arrays.
    """
    lens = loop_lengths(patch, loop)
    perim = float(lens.sum())
    r = perim / (2.0 * np.pi)
    alpha = lens / r
    alpha = np.clip(alpha, ANGLE_CLAMP, np.pi - ANGLE_CLAMP)
    beta = 0.5 * (np.pi - alpha)
    base = 2.0 * r * np.sin(alpha / 2.0)
    return alpha, beta, r, base


def dirichlet_system(n, row, col, lam, fixed, value):
    """A and rhs of a weighted-average scheme with Dirichlet nodes.

    Coupling k makes node row[k] average node col[k] with weight lam[k]
    (nodes 0..n-1); the `fixed` nodes hold the rows of `value`.  A free
    row's coupling emits a diagonal triplet, then its off-diagonal twin,
    or an rhs term if the column is fixed, in coupling order: the summed
    entries are bit for bit those of a per-coupling loop.  Returns
    (A, rhs, unknown), free nodes numbered ascending and fixed ones -1.
    """
    import scipy.sparse as sp

    fixed = np.asarray(fixed, dtype=np.int64)
    unknown = np.full(n, -1, dtype=np.int64)
    free = np.setdiff1d(np.arange(n), fixed)
    unknown[free] = np.arange(len(free))
    keep = unknown[row] >= 0
    r, j, lam = unknown[row[keep]], col[keep], lam[keep]
    twin = unknown[j] >= 0
    emit = np.column_stack([np.ones_like(twin), twin]).ravel()
    rows = np.repeat(r, 2)[emit]
    cols = np.column_stack([r, unknown[j]]).ravel()[emit]
    vals = np.column_stack([lam, -lam]).ravel()[emit]
    value = np.asarray(value, dtype=np.float64).reshape(len(fixed), -1)
    at = np.zeros((n, value.shape[1]))
    at[fixed] = value
    rhs = np.zeros((len(free), value.shape[1]))
    np.add.at(rhs, r[~twin], lam[~twin, None] * at[j[~twin]])
    A = sp.coo_matrix((vals, (rows, cols)), shape=(len(free), len(free))).tocsc()
    A.sum_duplicates()
    return A, rhs, unknown


def assemble_system(patch: Patch, opt: ParamOptions) -> AssembledSystem:
    """Build the sparse linear system for both disk coordinates.

    One row per non-Dirichlet vertex (holes included), plus one auxiliary
    row per filled hole: its pseudo-center, node n + c, averages the hole
    vertices with the weights of the virtual isosceles fan, whose triangles
    (center, vj, vj+1) also couple the hole vertices to the center.  The
    couplings run in W's COO order, then hole by hole, so runs are bit
    reproducible.
    """
    if opt.hole_policy not in ("auto", "neumann", "fill"):
        raise MeshError(f"unknown hole policy: {opt.hole_policy}")
    outer_loop, boundary_uv = apply_boundary(patch)
    n = patch.tri.n_vertices
    W = scheme_weight_matrix(patch.tri.vertices, patch.tri.triangles, opt.scheme).tocoo()

    fill = [k for k in range(len(patch.loops)) if k != outer_loop and (
        opt.hole_policy == "fill"
        or opt.hole_policy == "auto" and len(patch.loops[k]) <= opt.hole_threshold)]

    rows, cols, lams = [W.row], [W.col], [W.data]
    row_corner, col_corner = np.array(PAIRS).T
    for c, k in enumerate(fill):
        loop = np.asarray(patch.loops[k], dtype=np.int64)
        alpha, beta, r_hole, base = _virtual_hole_triangles(patch, loop)
        fan = np.column_stack([np.full(len(loop), n + c), loop, np.roll(loop, -1)])
        rows.append(fan[:, row_corner].ravel())
        cols.append(fan[:, col_corner].ravel())
        lams.append(np.column_stack(corner_weights(
            (alpha, beta, beta), (base, r_hole, r_hole), opt.scheme)).ravel())
    A, rhs, unknown = dirichlet_system(
        n + len(fill), np.concatenate(rows), np.concatenate(cols), np.concatenate(lams),
        list(boundary_uv), list(boundary_uv.values()))
    centers = {k: int(unknown[n + c]) for c, k in enumerate(fill)}
    return AssembledSystem(A, rhs, unknown[:n], boundary_uv, outer_loop, centers)


def solve_system(A, rhs):
    """(x, max residual) of A x = rhs: one LU for all columns, bicgstab if it fails."""
    import scipy.sparse.linalg as spla

    if not A.shape[0]:
        return np.zeros(rhs.shape), 0.0
    try:
        x = spla.splu(A).solve(rhs)
    except RuntimeError:
        x = _iterative_fallback(A, rhs)
    return x, float(np.abs(A @ x - rhs).max())


def solve(patch: Patch, system: AssembledSystem) -> Parametrization:
    """Solve both coordinates, and verify residual/injectivity."""
    x, res = solve_system(system.A, system.rhs)
    uv = np.zeros((patch.tri.n_vertices, 2))
    uv[list(system.boundary_uv)] = list(system.boundary_uv.values())
    free = system.unknown_of_vertex >= 0
    uv[free] = x[system.unknown_of_vertex[free]]
    areas = signed_uv_areas(patch.tri.triangles, uv)
    if res > RESIDUAL_TOL:
        logger.warning("parametrization residual %.3e exceeds tolerance", res)
    return Parametrization(
        uv=uv, signed_areas=areas, injective=bool((areas > 0.0).all()), residual=res,
        outer_loop=system.outer_loop,
        center_uv={k: tuple(x[cid]) for k, cid in system.center_ids.items()})


def _iterative_fallback(A, rhs):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    d = A.diagonal()
    d[d == 0.0] = 1.0
    M = sp.diags(1.0 / d)
    cols = []
    for k in range(rhs.shape[1]):
        x, info = spla.bicgstab(A, rhs[:, k], rtol=1e-12, M=M, maxiter=20000)
        if info != 0:
            raise MeshError(f"linear solver failed to converge (info={info})")
        cols.append(x)
    return np.column_stack(cols)


def projection(patch: Patch) -> Parametrization | None:
    """The orthogonal projection of a planar patch onto its plane; None if not planar.

    A patch is planar when every unit normal is within cosine PLANAR_COS
    of their mean and every triangle projects with positive area.  The
    UV axes are an orthonormal basis (e1, e2) of the plane with e1 x e2
    along the mean normal, and the origin is the mean vertex, so the UV
    coordinates are as large as the patch is, wherever it lies.  The map
    is an isometry: its residual is 0, no hole is filled, and the outer
    loop is the loop of largest signed area.
    """
    v, t = patch.tri.vertices, patch.tri.triangles
    p = v[t]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    n /= np.linalg.norm(n, axis=1)[:, None]
    mean = n.sum(axis=0)
    mean /= np.linalg.norm(mean)
    if not (n @ mean >= PLANAR_COS).all():
        return None
    axis = np.eye(3)[np.argmin(np.abs(mean))]
    e1 = axis - (axis @ mean) * mean
    e1 /= np.linalg.norm(e1)
    uv = (v - v.mean(axis=0)) @ np.column_stack([e1, np.cross(mean, e1)])
    areas = signed_uv_areas(t, uv)
    if not (areas > 0.0).all():
        return None
    loop_areas = []
    for lp in patch.loops:
        (x, y), (nx, ny) = uv[lp].T, uv[np.roll(lp, -1)].T
        loop_areas.append(float((x * ny - nx * y).sum()))  # twice the shoelace area
    return Parametrization(uv=uv, signed_areas=areas, injective=True, residual=0.0,
                           outer_loop=int(np.argmax(loop_areas)))


def parametrize(patch: Patch, options: ParamOptions | None = None) -> Parametrization:
    """Boundary placement, assembly, solve and injectivity check in one go."""
    opt = options or ParamOptions()
    info, ok = patch.topology()
    if not ok:
        raise MeshError(
            f"patch not parametrizable (g={info.g}, b={info.b}); split it first"
        )
    return solve(patch, assemble_system(patch, opt))
