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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshError
from .patch import Patch

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


def scheme_weight_matrix(vertices, triangles, scheme="mvc"):
    """Sparse matrix W with W[i, j] = lambda_ij summed over adjacent triangles.

    `vertices` may be 3D or 2D.  MVC rows are generally asymmetric, FEM
    rows symmetric.
    """
    tri = np.asarray(triangles, dtype=np.int64)
    p = np.asarray(vertices, dtype=np.float64)[tri]
    n = len(vertices)
    # side lengths: l[.,0] opposite corner 0 etc.
    l0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    l1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    l2 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    t0, t1, t2 = triangle_angles(l0, l1, l2)
    t0, t1, t2 = _clamp_angles(t0), _clamp_angles(t1), _clamp_angles(t2)
    i0, i1, i2 = tri[:, 0], tri[:, 1], tri[:, 2]
    if scheme == "mvc":
        h0, h1, h2 = np.tan(t0 / 2.0), np.tan(t1 / 2.0), np.tan(t2 / 2.0)
        rows = np.concatenate([i0, i0, i1, i1, i2, i2])
        cols = np.concatenate([i1, i2, i0, i2, i0, i1])
        vals = np.concatenate([h0 / l2, h0 / l1, h1 / l2, h1 / l0, h2 / l1, h2 / l0])
    elif scheme == "fem":
        c0, c1, c2 = 0.5 / np.tan(t0), 0.5 / np.tan(t1), 0.5 / np.tan(t2)
        rows = np.concatenate([i1, i2, i0, i2, i0, i1])
        cols = np.concatenate([i2, i1, i2, i0, i1, i0])
        vals = np.concatenate([c0, c0, c1, c1, c2, c2])
    else:
        raise MeshError(f"unknown scheme: {scheme}")
    W = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    W.sum_duplicates()
    return W


@dataclass
class SchemeWeights:
    """Assembled per-edge coefficients plus hole-filling metadata."""

    W: sp.csr_matrix
    scheme: str
    filled_holes: list = field(default_factory=list)  # loop indices with centers
    center_ids: dict = field(default_factory=dict)  # loop index -> unknown column


@dataclass
class AssembledSystem:
    A: sp.csc_matrix
    rhs: np.ndarray  # (n_unknowns, 2)
    unknown_of_vertex: np.ndarray  # local vertex -> unknown index or -1
    boundary_uv: dict  # dirichlet local vertex -> (u, v)
    weights: SchemeWeights
    outer_loop: int
    n_centers: int


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


def apply_boundary(patch: Patch, outer_loop=None):
    """Pin the outer loop to the unit circle by cumulative 3D arc length.

    Returns (outer loop index, dict local vertex -> (u, v)).
    """
    if outer_loop is None:
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


def assemble_system(
    patch: Patch,
    scheme="mvc",
    hole_policy="auto",
    hole_threshold=100,
    outer_loop=None,
) -> AssembledSystem:
    """Build the sparse linear system for both disk coordinates.

    One row per non-Dirichlet vertex (holes included), plus one auxiliary
    row per filled hole.  Assembly order is sorted by vertex id so runs
    are bit reproducible.
    """
    if hole_policy not in ("auto", "neumann", "fill"):
        raise MeshError(f"unknown hole policy: {hole_policy}")
    outer_loop, boundary_uv = apply_boundary(patch, outer_loop)
    n = patch.tri.n_vertices
    W = scheme_weight_matrix(patch.tri.vertices, patch.tri.triangles, scheme)
    weights = SchemeWeights(W=W, scheme=scheme)

    hole_loops = [k for k in range(len(patch.loops)) if k != outer_loop]
    fill = []
    if hole_policy != "neumann":
        for k in hole_loops:
            if hole_policy == "fill" or len(patch.loops[k]) <= hole_threshold:
                fill.append(k)
    weights.filled_holes = fill

    unknown = np.full(n, -1, dtype=np.int64)
    free = np.setdiff1d(np.arange(n), np.fromiter(boundary_uv, dtype=np.int64, count=len(boundary_uv)))
    unknown[free] = np.arange(len(free))
    n_centers = len(fill)
    for c, k in enumerate(fill):
        weights.center_ids[k] = len(free) + c
    m = len(free) + n_centers

    # W part, in W's COO order: each weight of a free row gives a diagonal
    # triplet, followed by its off-diagonal twin when the neighbour is free;
    # a Dirichlet neighbour moves to the rhs.  This triplet order keeps the
    # summed entries of A bit for bit those of a per-entry loop.
    Wc = W.tocoo()
    keep = unknown[Wc.row] >= 0
    r, j, lam = unknown[Wc.row[keep]], Wc.col[keep], Wc.data[keep]
    twin = unknown[j] >= 0
    emit = np.column_stack([np.ones_like(twin), twin]).ravel()
    rows = np.repeat(r, 2)[emit].tolist()
    cols = np.column_stack([r, unknown[j]]).ravel()[emit].tolist()
    vals = np.column_stack([lam, -lam]).ravel()[emit].tolist()
    uv_fixed = np.zeros((n, 2))
    uv_fixed[list(boundary_uv)] = list(boundary_uv.values())
    rhs = np.zeros((m, 2))
    np.add.at(rhs, r[~twin], lam[~twin, None] * uv_fixed[j[~twin]])

    # pseudo-center rows: the center averages the hole vertices with the
    # weights of the virtual isosceles fan, and hole-vertex rows gain the
    # corresponding couplings (center column plus the second ring-edge side).
    for k in fill:
        loop = [int(v) for v in patch.loops[k]]
        nn = len(loop)
        alpha, beta, r_hole, base = _virtual_hole_triangles(patch, loop)
        cid = weights.center_ids[k]

        def add(i_unk, j_vert, lam):
            rows.append(i_unk)
            cols.append(i_unk)
            vals.append(lam)
            if j_vert is None:
                jcol = cid
            else:
                jcol = unknown[j_vert] if unknown[j_vert] >= 0 else None
            if jcol is None:
                rhs[i_unk] += lam * np.asarray(boundary_uv[j_vert])
            else:
                rows.append(i_unk)
                cols.append(jcol)
                vals.append(-lam)

        for e in range(nn):
            vj, vj1 = loop[e], loop[(e + 1) % nn]
            if scheme == "mvc":
                w_center = np.tan(alpha[e] / 2.0) / r_hole
                w_ring = np.tan(beta[e] / 2.0) / base[e]
                w_back = np.tan(beta[e] / 2.0) / r_hole
            else:
                w_center = 0.5 / np.tan(beta[e])
                w_ring = 0.5 / np.tan(alpha[e])
                w_back = 0.5 / np.tan(beta[e])
            # center row, unknown cid
            add(cid, vj, w_center)
            add(cid, vj1, w_center)
            # ring rows
            if unknown[vj] >= 0:
                add(unknown[vj], None, w_back)
                add(unknown[vj], vj1, w_ring)
            if unknown[vj1] >= 0:
                add(unknown[vj1], None, w_back)
                add(unknown[vj1], vj, w_ring)

    A = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsc()
    A.sum_duplicates()
    return AssembledSystem(
        A=A,
        rhs=rhs,
        unknown_of_vertex=unknown,
        boundary_uv=boundary_uv,
        weights=weights,
        outer_loop=outer_loop,
        n_centers=n_centers,
    )


def signed_uv_areas(triangles, uv):
    t = np.asarray(triangles, dtype=np.int64)
    p = np.asarray(uv, dtype=np.float64)[t]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def solve(patch: Patch, system: AssembledSystem) -> Parametrization:
    """Factor once, solve both coordinates, and verify residual/injectivity."""
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
    for k, cid in system.weights.center_ids.items():
        param.center_uv[k] = tuple(x[cid])
    if res > RESIDUAL_TOL:
        logger.warning("parametrization residual %.3e exceeds tolerance", res)
    return param


def _iterative_fallback(A, rhs):
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


@dataclass
class ParamOptions:
    scheme: str = "mvc"
    hole_policy: str = "auto"
    hole_threshold: int = 100


def parametrize(patch: Patch, options: ParamOptions | None = None) -> Parametrization:
    """Boundary placement, assembly, solve and injectivity check in one go."""
    opt = options or ParamOptions()
    info, ok = patch.topology()
    if not ok:
        raise MeshError(
            f"patch not parametrizable (g={info.g}, b={info.b}); split it first"
        )
    system = assemble_system(
        patch, scheme=opt.scheme, hole_policy=opt.hole_policy,
        hole_threshold=opt.hole_threshold,
    )
    return solve(patch, system)
