"""One-to-one mapping of a disk-topology patch onto the unit disk.

The map solves a difference scheme: every interior vertex is a weighted
average of its neighbours, with mean-value or cotangent weights, and the
outer boundary pinned to the unit circle.  Interior holes are either left
free (homogeneous Neumann) or closed by a pseudo-center auxiliary unknown
built from virtual isosceles triangles that are never materialized.
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


def assemble_system(patch: Patch, opt: ParamOptions) -> AssembledSystem:
    """Build the sparse linear system for both disk coordinates.

    One row per non-Dirichlet vertex (holes included), plus one auxiliary
    row per filled hole.  Assembly order is sorted by vertex id so runs
    are bit reproducible.
    """
    import scipy.sparse as sp

    if opt.hole_policy not in ("auto", "neumann", "fill"):
        raise MeshError(f"unknown hole policy: {opt.hole_policy}")
    outer_loop, boundary_uv = apply_boundary(patch)
    n = patch.tri.n_vertices
    W = scheme_weight_matrix(patch.tri.vertices, patch.tri.triangles, opt.scheme)

    hole_loops = [k for k in range(len(patch.loops)) if k != outer_loop]
    fill = []
    if opt.hole_policy != "neumann":
        for k in hole_loops:
            if opt.hole_policy == "fill" or len(patch.loops[k]) <= opt.hole_threshold:
                fill.append(k)

    unknown = np.full(n, -1, dtype=np.int64)
    free = np.setdiff1d(np.arange(n), np.fromiter(boundary_uv, dtype=np.int64, count=len(boundary_uv)))
    unknown[free] = np.arange(len(free))
    center_ids = {k: len(free) + c for c, k in enumerate(fill)}
    m = len(free) + len(fill)

    # W part, in W's COO order: each weight of a free row gives a diagonal
    # triplet, followed by its off-diagonal twin when the neighbour is free;
    # a Dirichlet neighbour moves to the rhs.  This triplet order keeps the
    # summed entries of A bit for bit those of a per-entry loop.
    Wc = W.tocoo()
    keep = unknown[Wc.row] >= 0
    r, j, lam = unknown[Wc.row[keep]], Wc.col[keep], Wc.data[keep]
    twin = unknown[j] >= 0
    emit = np.column_stack([np.ones_like(twin), twin]).ravel()
    rows = [np.repeat(r, 2)[emit]]
    cols = [np.column_stack([r, unknown[j]]).ravel()[emit]]
    vals = [np.column_stack([lam, -lam]).ravel()[emit]]
    uv_fixed = np.zeros((n, 2))
    uv_fixed[list(boundary_uv)] = list(boundary_uv.values())
    rhs = np.zeros((m, 2))
    np.add.at(rhs, r[~twin], lam[~twin, None] * uv_fixed[j[~twin]])

    # pseudo-center rows: the center averages the hole vertices with the
    # weights of the virtual isosceles fan, and hole-vertex rows gain the
    # corresponding couplings (center column plus the second ring-edge side).
    # The fan triangle (center, vj, vj1) gives six couplings (row, column,
    # vertex, weight) in PAIRS order:
    #   center-vj, center-vj1, vj-center, vj-vj1, vj1-center, vj1-vj,
    # the last four only for rows of free vertices.  Each gives a diagonal
    # triplet, then an off-diagonal one, or an rhs term for a Dirichlet
    # column; emitting them in this order keeps the summed entries of A and
    # rhs bit for bit those of a per-coupling loop.
    row_corner, col_corner = np.array(PAIRS).T
    for k in fill:
        loop = np.asarray(patch.loops[k], dtype=np.int64)
        alpha, beta, r_hole, base = _virtual_hole_triangles(patch, loop)
        w = np.column_stack(corner_weights((alpha, beta, beta), (base, r_hole, r_hole), opt.scheme))
        vj, vj1 = loop, np.roll(loop, -1)
        fan = np.column_stack([np.full(len(loop), center_ids[k]), unknown[vj], unknown[vj1]])
        # the center's vertex slot is never read: its column is never Dirichlet
        row, col = fan[:, row_corner], fan[:, col_corner]
        vert = np.column_stack([vj, vj, vj1])[:, col_corner]
        on = row >= 0
        pair_on = np.stack([on, on & (col >= 0)], axis=-1)
        rows.append(np.stack([row, row], axis=-1)[pair_on])
        cols.append(np.stack([row, col], axis=-1)[pair_on])
        vals.append(np.stack([w, -w], axis=-1)[pair_on])
        to_rhs = on & (col < 0)
        np.add.at(rhs, row[to_rhs], w[to_rhs, None] * uv_fixed[vert[to_rhs]])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    A = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsc()
    A.sum_duplicates()
    return AssembledSystem(
        A=A,
        rhs=rhs,
        unknown_of_vertex=unknown,
        boundary_uv=boundary_uv,
        outer_loop=outer_loop,
        center_ids=center_ids,
    )


def solve(patch: Patch, system: AssembledSystem) -> Parametrization:
    """Factor once, solve both coordinates, and verify residual/injectivity."""
    import scipy.sparse.linalg as spla

    A = system.A
    if A.shape[0]:
        try:
            lu = spla.splu(A)
            x = np.column_stack([lu.solve(system.rhs[:, 0]),
                                 lu.solve(system.rhs[:, 1])])
        except RuntimeError:
            x = _iterative_fallback(A, system.rhs)
        res = np.abs(A @ x - system.rhs).max()
    else:
        x = np.zeros((0, 2))
        res = 0.0

    n = patch.tri.n_vertices
    uv = np.zeros((n, 2))
    for v, val in system.boundary_uv.items():
        uv[v] = val
    free = system.unknown_of_vertex >= 0
    uv[free] = x[system.unknown_of_vertex[free]]
    areas = signed_uv_areas(patch.tri.triangles, uv)
    param = Parametrization(
        uv=uv,
        signed_areas=areas,
        injective=bool((areas > 0.0).all()),
        residual=float(res),
        outer_loop=system.outer_loop,
    )
    for k, cid in system.center_ids.items():
        param.center_uv[k] = tuple(x[cid])
    if res > RESIDUAL_TOL:
        logger.warning("parametrization residual %.3e exceeds tolerance", res)
    return param


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


def parametrize(patch: Patch, options: ParamOptions | None = None) -> Parametrization:
    """Boundary placement, assembly, solve and injectivity check in one go."""
    opt = options or ParamOptions()
    info, ok = patch.topology()
    if not ok:
        raise MeshError(
            f"patch not parametrizable (g={info.g}, b={info.b}); split it first"
        )
    return solve(patch, assemble_system(patch, opt))
