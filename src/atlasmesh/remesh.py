"""Indirect meshing: new triangles in the parameter plane, mapped back to 3D.

Curves are discretized first (once, globally) so adjacent faces share
identical boundary samples and the stitched result is conforming by
construction.  Each face is meshed in its UV domain under the metric
J^T J / h^2 by local operations, then every vertex is mapped back onto
the input surface through barycentric coordinates, so output vertices
lie exactly on the input triangulation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, Triangulation, first_occurrence, signed_uv_areas
from .planar import clip_to_loops, constrained_triangulation
from .quality import metric_tensor, triangle_jacobian

METRIC_LONG = 1.4
METRIC_SHORT = 0.7
GAUSS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


class UVLocator:
    """Point location over a patch's UV triangles with barycentric output.

    A query's answer is the triangle whose smallest barycentric weight
    (its margin) is largest, the lowest triangle id winning ties; a point
    is inside when that margin is at least -tol.

    A grid narrows the candidates.  Its cell walls sit at quantiles of
    the triangle centroids, so the triangles a mean-value map clusters
    spread over many cells.  Each triangle is listed in every cell that
    its bounding box, grown by `pad`, touches.  If a triangle's margin at
    q is at least -tol, q lies within 2 tol times the box's width of the
    box on each axis, so the triangle is listed in q's own cell.  A query
    therefore scans its own cell only; a query whose cell holds no
    triangle with margin >= -tol (a point outside the domain) scans every
    non-degenerate triangle.  `locate` scans one point's cell in Python
    floats with the same expressions as `locate_many`, so both give the
    same answer.
    """

    BLOCK = 1 << 12  # (query, triangle) pairs evaluated at once: bounds the temporaries
    tol = 1e-9

    def __init__(self, uv, triangles):
        self.uv = np.asarray(uv, dtype=np.float64)
        self.tris = np.asarray(triangles, dtype=np.int64)
        p = self.uv[self.tris]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        d = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self._degenerate = d == 0.0
        self._valid = np.flatnonzero(~self._degenerate)
        # rows: corner 0 (x, y), edge 1 (x, y), edge 2 (x, y), determinant
        self._coef = np.vstack([p[:, 0].T, e1.T, e2.T, np.where(self._degenerate, 1.0, d)])
        m = len(self.tris)
        lo = self.uv.min(axis=0)
        ext = np.maximum(self.uv.max(axis=0) - lo, 1e-30)
        ncell = max(1, int(np.sqrt(m)))
        self.ncell = ncell
        self.cell = ext / ncell  # mean cell size
        cen = p.mean(axis=1)
        self._walls = np.sort(cen, axis=0)[np.arange(1, ncell) * m // ncell].T
        self._wall_lists = self._walls.tolist()
        pad = (2.0 * self.tol + 1e-6) * ext  # the 1e-6 covers rounding in the margins
        clo = self._cell_ij(p.min(axis=1) - pad)
        chi = self._cell_ij(p.max(axis=1) + pad)
        span = chi - clo + 1
        # a degenerate triangle's margin is -inf: it is listed in no cell
        count = np.where(self._degenerate, 0, span[:, 0] * span[:, 1])
        tri = np.repeat(np.arange(m), count)
        k = np.arange(len(tri)) - np.repeat(np.cumsum(count) - count, count)
        cell = (clo[tri, 0] + k // span[tri, 1]) * ncell + clo[tri, 1] + k % span[tri, 1]
        order = np.argsort(cell, kind="stable")  # ascending triangle ids per cell
        self._cell_tris = tri[order]
        self._cell_start = np.concatenate(
            [[0], np.cumsum(np.bincount(cell, minlength=ncell * ncell))]
        )

    def _cell_ij(self, X):
        """(n, 2) grid cell indices of (n, 2) points; outside points clamp."""
        return np.column_stack([
            np.searchsorted(self._walls[0], X[:, 0], side="right"),
            np.searchsorted(self._walls[1], X[:, 1], side="right"),
        ])

    @staticmethod
    def _weights(qx, qy, ax, ay, e1x, e1y, e2x, e2y, d):
        """Barycentric weights (w0, w1, w2) of points (qx, qy) in triangles
        given by their columns of `_coef`: floats or broadcasting arrays."""
        rx = qx - ax
        ry = qy - ay
        w1 = (rx * e2y - ry * e2x) / d
        w2 = (e1x * ry - e1y * rx) / d
        return 1.0 - w1 - w2, w1, w2

    def _best(self, Q, lists, start, cnt):
        """Per query q, the best triangle of lists[start[q]:start[q] + cnt[q]].

        Returns (t, margin, weights); t is -1 and the margin -inf where the
        list is empty.  Lists must hold ascending ids of non-degenerate
        triangles.
        """
        n = len(Q)
        t = np.full(n, -1, dtype=np.int64)
        top = np.full(n, -np.inf)
        w = np.zeros((n, 3))
        ends = np.cumsum(cnt)
        lo = 0
        while lo < n:
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + self.BLOCK, side="right")))
            rows = lo + np.flatnonzero(cnt[lo:hi])
            lo = hi
            if rows.size == 0:
                continue
            c = cnt[rows]
            first = np.cumsum(c) - c
            cand = lists[np.arange(first[-1] + c[-1]) - np.repeat(first - start[rows], c)]
            w0, w1, w2 = self._weights(*Q[np.repeat(rows, c)].T, *self._coef[:, cand])
            margin = np.minimum(np.minimum(w0, w1), w2)
            mx = np.maximum.reduceat(margin, first)
            hit = np.flatnonzero(margin == np.repeat(mx, c))
            k = hit[np.searchsorted(hit, first)]  # first maximum of each list
            t[rows] = cand[k]
            top[rows] = mx
            w[rows] = np.column_stack([w0[k], w1[k], w2[k]])
        return t, top, w

    def locate_many(self, Q, clamp=False):
        """((n,) triangle ids, (n, 3) barycentric weights) of (n, 2) points.

        With clamp=True a point outside the domain is attached to the
        best available triangle with clipped weights (boundary-chord
        queries near holes fall slightly outside the triangulated UV
        region); otherwise the first such point is an error.
        """
        Q = np.asarray(Q, dtype=np.float64).reshape(-1, 2)
        ij = self._cell_ij(Q)
        cell = ij[:, 0] * self.ncell + ij[:, 1]
        start = self._cell_start[cell]
        t, top, w = self._best(Q, self._cell_tris, start, self._cell_start[cell + 1] - start)
        far = np.flatnonzero(top < -self.tol)
        if far.size:
            t[far], top[far], w[far] = self._best(
                Q[far], self._valid, np.zeros(far.size, dtype=np.int64),
                np.full(far.size, self._valid.size),
            )
        ok = (top >= -self.tol) | (clamp & (t >= 0))
        if not ok.all():
            i = int(np.argmin(ok))
            raise MeshError(
                f"UV point {Q[i]} outside parametric domain (margin {top[i]:.2e})"
            )
        w = np.clip(w, 0.0, None)
        return t, w / ((w[:, 0] + w[:, 1]) + w[:, 2])[:, None]

    def locate(self, q, clamp=False):
        """(triangle id, barycentric weights) of one point; see locate_many."""
        x, y = np.asarray(q, dtype=np.float64).reshape(2).tolist()
        i = bisect_right(self._wall_lists[0], x)
        j = bisect_right(self._wall_lists[1], y)
        lo, hi = self._cell_start[i * self.ncell + j: i * self.ncell + j + 2].tolist()
        cand = self._cell_tris[lo:hi]
        t, top = -1, -np.inf
        for k, coef in enumerate(self._coef[:, cand].T.tolist()):
            weights = self._weights(x, y, *coef)
            margin = min(weights)
            if margin > top:  # the first maximum
                t, top, w = k, margin, weights
        if top < -self.tol:  # outside the domain: locate_many scans every non-degenerate triangle
            t, w = self.locate_many(q, clamp)
            return int(t[0]), w[0]
        w = np.clip(w, 0.0, None)
        return int(cand[t]), w / ((w[0] + w[1]) + w[2])


class FaceMetric:
    """Piecewise-constant metric of a parametrized patch at target size h."""

    def __init__(self, patch, param, h):
        tris = patch.tri.triangles
        self.locator = UVLocator(param.uv, tris)
        J = triangle_jacobian(patch.tri.vertices[tris], param.uv[tris])
        self.tensors = metric_tensor(J, h)  # (m, 2, 2), one per triangle

    def at(self, X):
        """(n, 2, 2) metric tensors at (n, 2) points."""
        t, _ = self.locator.locate_many(X, clamp=True)
        return self.tensors[t]

    def edge_lengths(self, P, Q):
        """(n,) metric lengths of segments P[k] -> Q[k], two Gauss points each."""
        P = np.asarray(P, dtype=np.float64).reshape(-1, 2)
        D = np.asarray(Q, dtype=np.float64).reshape(-1, 2) - P
        D2 = np.concatenate([D, D])
        M = self.at(np.concatenate([P + g * D for g in GAUSS]))
        half = 0.5 * np.sqrt(np.maximum((D2[:, None, :] @ M @ D2[:, :, None])[:, 0, 0], 0.0))
        return half[:len(P)] + half[len(P):]


def metric_angles(M, U, V):
    """(n,) angles between U[k] and V[k] under the (n, 2, 2) tensors M[k].

    A zero-length vector gives the angle 0.  The products are stacked
    `@`, which rounds as `u @ M @ v` of one pair of vectors does; an
    explicit `u0 * M00 + u1 * M10` may not, where `@` fuses a multiply
    and an add.
    """
    UM = U[:, None, :] @ M
    nu = np.sqrt(np.maximum((UM @ U[:, :, None])[:, 0, 0], 0.0))
    nv = np.sqrt(np.maximum(((V[:, None, :] @ M) @ V[:, :, None])[:, 0, 0], 0.0))
    zero = (nu == 0.0) | (nv == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (UM @ V[:, :, None])[:, 0, 0] / (nu * nv)
        return np.where(zero, 0.0, np.arccos(np.minimum(np.maximum(c, -1.0), 1.0)))


def flip_wanted(M, P):
    """(n,) metric Delaunay test of the (n, 4, 2) quads (a, b, c, d) of edges
    ab with opposite vertices c and d: the angles at c and d under the
    (n, 2, 2) tensors M sum to more than pi."""
    D = P[:, :2, None] - P[:, None, 2:]  # D[:, i, j] = P[:, i] - P[:, 2 + j]
    U = D[:, 0].reshape(-1, 2)  # a - c, a - d
    V = D[:, 1].reshape(-1, 2)  # b - c, b - d
    ang = metric_angles(np.repeat(M, 2, axis=0), U, V).reshape(-1, 2)
    return ang[:, 0] + ang[:, 1] > np.pi + 1e-9


def discretize_curve(points3d, h, closed=False):
    """Subdivide a polyline at 3D spacing ~h.

    Returns (seg, frac, xyz): per sample its segment index, the fraction
    along that segment and its 3D position.  Every sample lies on an
    original segment and the end points of an open curve are kept
    exactly.  Closed curves keep at least 3 samples.
    """
    pts = np.asarray(points3d, dtype=np.float64)
    nseg = len(pts) if closed else len(pts) - 1
    if nseg < 1:
        raise MeshError("empty curve")
    vec = np.roll(pts, -1, axis=0)[:nseg] - pts[:nseg]
    seg_len = np.asarray([float(np.linalg.norm(v)) for v in vec])
    total = float(seg_len.sum())
    n = max(1, int(round(total / h)))
    if closed:
        n = max(3, n)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    s = total * np.arange(n if closed else n + 1) / n
    seg = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, nseg - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(seg_len[seg] > 0.0, (s - cum[seg]) / seg_len[seg], 0.0)
    xyz = pts[seg] + frac[:, None] * vec[seg]
    if not closed:  # pts[-1] itself: the formula above can miss it by an ulp
        seg[-1], frac[-1], xyz[-1] = nseg - 1, 1.0, pts[-1]
    return seg, frac, xyz


@dataclass
class FaceMeshResult:
    uv_points: np.ndarray
    triangles: np.ndarray
    sample_ids: np.ndarray  # (n,) boundary-sample id of each vertex, -1 inside
    passes: int = 0  # adaptation passes run
    converged: bool = False  # the last pass changed nothing
    # accepted adaptation edits, summed over passes
    splits: int = 0
    collapses: int = 0
    flips: int = 0
    moves: int = 0
    xyz: np.ndarray | None = None  # (n, 3) positions from map_to_3d, for stitch


def mesh_patch_uv(
    patch,
    param,
    loops,
    h,
    passes=10,
) -> tuple[FaceMeshResult, UVLocator]:
    """Triangulate the UV domain bounded by the given sample loops.

    `loops` is a list of boundary loops in walk order (domain on the
    left), each a pair of (k,) boundary-sample ids and (k, 2) UV points.
    The boundary is kept exactly; the interior is filled and adapted so
    metric edge lengths at target size h approach 1.  Returns the face
    mesh and the locator of the patch's parametric triangles that the
    metric built, for `map_to_3d`.
    """
    if not param.injective:
        raise MeshError("cannot remesh a non-injective parametrization")
    metric = FaceMetric(patch, param, h)

    ids = np.concatenate([loop_ids for loop_ids, _ in loops])
    points = np.concatenate([uv for _, uv in loops])
    constraints = []
    start = 0
    for loop_ids, _ in loops:
        nn = len(loop_ids)
        constraints += [(start + k, start + (k + 1) % nn) for k in range(nn)]
        start += nn

    mesh = constrained_triangulation(points, constraints)
    clip_to_loops(mesh, [uv for _, uv in loops])

    n_fixed = len(points)

    def ends(edges):
        pts = np.asarray(mesh.points)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return pts[e[:, 0]], pts[e[:, 1]]

    def quad(e):
        """(a, b, c, d): edge e = (a, b) and its opposite vertices, or None
        unless e has two triangles."""
        tids = mesh.e2t.get(e, ())
        if len(tids) != 2:
            return None
        return (*e, *(sum(mesh.tris[t]) - e[0] - e[1] for t in tids))

    def retest(rows):
        """Set quads[i] and want[i] for the given rows of the flip sweep from
        the mesh as it is now."""
        for i in rows:
            quads[i] = quad(edges[i])
            want[i] = False
        rows = [i for i in rows if quads[i] is not None]
        P = np.asarray([mesh.points[v] for i in rows for v in quads[i]])
        for i, w in zip(rows, flip_wanted(tensors[rows], P.reshape(-1, 4, 2)).tolist()):
            want[i] = w

    # Split, collapse and flip each read the metric in one call at their
    # start.  Splits act on the lengths they start with, and collapses and
    # flips move no vertex that survives, so every edge they visit still
    # has the ends it had then.  The flip test of every edge is made at the
    # start too; a flip changes the quads of the four edges around it, and
    # those not yet visited are tested again, together, when the sweep
    # reaches the first of them.  Smoothing moves vertices and stays
    # serial.  Vertices past n_fixed are interior: no constrained edge is
    # split.
    counts = dict.fromkeys(("splits", "collapses", "flips", "moves"), 0)
    done = 0
    converged = False
    while done < passes and not converged:
        done += 1
        before = sum(counts.values())
        # split long edges, longest first
        edges = [e for e in mesh.edges() if e not in mesh.constrained]
        lens = sorted(zip(metric.edge_lengths(*ends(edges)).tolist(), edges),
                      key=lambda x: (-x[0], x[1]))
        for ln, e in lens:
            if ln > METRIC_LONG and e in mesh.e2t and mesh.split_edge(e) is not None:
                counts["splits"] += 1
        # collapse short interior edges
        edges = [
            e for e in sorted(mesh.edges())
            if e not in mesh.constrained and (e[0] >= n_fixed or e[1] >= n_fixed)
        ]
        short = metric.edge_lengths(*ends(edges)) < METRIC_SHORT
        for e, is_short in zip(edges, short):
            if is_short and e in mesh.e2t and mesh.collapse(e):
                counts["collapses"] += 1
        # metric Delaunay flips
        edges = [e for e in sorted(mesh.edges()) if e not in mesh.constrained]
        pa, pb = ends(edges)
        tensors = metric.at(0.5 * (pa + pb))
        position = {e: i for i, e in enumerate(edges)}
        quads = [None] * len(edges)
        want = [False] * len(edges)
        retest(range(len(edges)))
        pending = set()  # unvisited edges whose quad a flip of this sweep changed
        for i, e in enumerate(edges):
            if e in pending:
                retest([position[f] for f in pending])
                pending.clear()
            if want[i] and mesh.flip(e):
                counts["flips"] += 1
                a, b, c, d = quads[i]
                for f in ((a, c), (c, b), (b, d), (d, a)):
                    f = mesh._ekey(*f)
                    if position.get(f, -1) > i:
                        pending.add(f)
        # smooth interior vertices
        pts = mesh.points
        for v in range(n_fixed, len(pts)):
            if not mesh.v2t[v]:
                continue
            nbrs = sorted(
                {w for tid in mesh.v2t[v] for w in mesh.tris[tid] if w != v}
            )
            if not nbrs:
                continue
            # the sequential sum np.mean(axis=0) makes, in floats
            x, y = pts[nbrs[0]]
            for w in nbrs[1:]:
                x += pts[w][0]
                y += pts[w][1]
            target = (x / len(nbrs), y / len(nbrs))
            try:
                metric.locator.locate(target)
            except MeshError:
                continue
            if mesh.move_vertex(v, target):
                counts["moves"] += 1
        converged = sum(counts.values()) == before

    pts, tris, used = mesh.compact()
    if (signed_uv_areas(tris, pts) <= 0.0).any():
        raise MeshError("remesher produced an inverted UV triangle")
    # vertices added by adaptation are not boundary samples
    vertex_ids = np.concatenate([ids, np.full(len(mesh.points) - n_fixed, -1)])
    return FaceMeshResult(
        uv_points=pts,
        triangles=tris,
        sample_ids=vertex_ids[used],
        passes=done,
        converged=converged,
        **counts,
    ), metric.locator


def map_to_3d(result: FaceMeshResult, locator: UVLocator, patch, sample_xyz) -> np.ndarray:
    """3D positions of the face mesh vertices, exactly on the input surface.

    Boundary samples take their rows of the run's sample table
    `sample_xyz` (points on original curve segments); interior vertices
    are barycentric images on the containing parametric triangle, found
    by `locator`, the one the face's metric built.
    """
    out = np.empty((len(result.uv_points), 3))
    boundary = result.sample_ids >= 0
    out[boundary] = sample_xyz[result.sample_ids[boundary]]
    inner = np.flatnonzero(~boundary)
    t, bary = locator.locate_many(result.uv_points[inner], clamp=True)
    corners = patch.tri.vertices[patch.tri.triangles[t]]
    out[inner] = (bary[:, None, :] @ corners)[:, 0]
    return out


def stitch(faces) -> Triangulation:
    """Merge the face meshes, `xyz` set, into one conforming triangulation.

    Vertices of the same boundary sample (shared curve samples and corner
    points) are emitted once, where they first occur; every interior
    vertex stays its face's own.  Triangles are tagged with their face.
    """
    keys = np.concatenate([f.sample_ids for f in faces])
    inner = keys < 0
    keys[inner] = keys.max() + 1 + np.arange(inner.sum())  # past every sample id
    first, index = first_occurrence(keys)
    offsets = np.cumsum([0] + [len(f.sample_ids) for f in faces])
    tris = np.concatenate([f.triangles + off for f, off in zip(faces, offsets)])
    tags = np.repeat(np.arange(len(faces)), [len(f.triangles) for f in faces])
    xyz = np.concatenate([f.xyz for f in faces])
    return Triangulation(xyz[first], index[tris], patch_tags=tags)
