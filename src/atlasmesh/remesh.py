"""Indirect meshing: new triangles in the parameter plane, mapped back to 3D.

Curves are discretized first (once, globally) so adjacent faces share
identical boundary samples and the stitched result is conforming by
construction.  Each face is meshed in its UV domain under the metric
J^T J / h^2 by local operations, then every vertex is mapped back onto
the input surface through barycentric coordinates, so output vertices
lie exactly on the input triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, Triangulation, first_occurrence, signed_uv_areas
from .planar import clip_to_loops, constrained_triangulation
from .quality import metric_tensor, triangle_jacobian

METRIC_LONG = 1.4
METRIC_SHORT = 0.7
PATIENCE = 2  # passes in a row without a better score that stop a face


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
    non-degenerate triangle.
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
        # (m, 7) rows: corner 0 (x, y), edge 1 (x, y), edge 2 (x, y), determinant
        self._coef = np.column_stack([p[:, 0], e1, e2, np.where(self._degenerate, 1.0, d)])
        m = len(self.tris)
        lo = self.uv.min(axis=0)
        ext = np.maximum(self.uv.max(axis=0) - lo, 1e-30)
        ncell = max(1, int(np.sqrt(m)))
        self.ncell = ncell
        self.cell = ext / ncell  # mean cell size
        cen = p.mean(axis=1)
        self._walls = np.sort(cen, axis=0)[np.arange(1, ncell) * m // ncell].T
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
        given by the columns of their rows of `_coef`, all broadcasting
        arrays."""
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
            w0, w1, w2 = self._weights(*Q[np.repeat(rows, c)].T, *self._coef[cand].T)
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
        t, w = self.locate_many(q, clamp)
        return int(t[0]), w[0]


class FaceMetric:
    """The metric J^T J / h^2 of a parametrized patch at target size h.

    Piecewise constant, one tensor per parametric triangle, read at a
    point by locating it.  `locate_many` answers a point the same way in
    any batch, so `at` keeps the triangle of every point it has located
    and locates each point once.  A projection (`param.isometry`) has
    J^T J = I, so `tensors` is None and every point reads `uniform`,
    I / h^2, without point location.  `locator` also serves `min_angles`
    and `map_to_3d`.
    """

    def __init__(self, patch, param, h):
        tris = patch.tri.triangles
        self.locator = UVLocator(param.uv, tris)
        self.uniform = metric_tensor(np.eye(3, 2), h) if param.isometry else None
        self.tensors = None if param.isometry else metric_tensor(  # (m, 2, 2)
            triangle_jacobian(patch.tri.vertices[tris], param.uv[tris]), h)
        self._located = {}  # UV point -> the triangle it was located in

    def at(self, X):
        """(n, 2, 2) metric tensors at (n, 2) points."""
        if self.uniform is not None:
            return np.broadcast_to(self.uniform, (np.size(X) // 2, 2, 2))
        keys = list(map(tuple, np.asarray(X, dtype=np.float64).reshape(-1, 2).tolist()))
        new = [x for x in keys if x not in self._located]
        if new:
            t, _ = self.locator.locate_many(np.array(new), clamp=True)
            self._located.update(zip(new, t.tolist()))
        return self.tensors[[self._located[x] for x in keys]]

    def edge_lengths(self, P, Q):
        """(n,) metric lengths of segments P[k] -> Q[k], each under the
        tensor at its midpoint: the point a split of it inserts."""
        P = np.asarray(P, dtype=np.float64).reshape(-1, 2)
        Q = np.asarray(Q, dtype=np.float64).reshape(-1, 2)
        D = Q - P
        M = self.at(0.5 * (P + Q))
        return np.sqrt(np.maximum((D[:, None, :] @ M @ D[:, :, None])[:, 0, 0], 0.0))

    def min_angles(self, P):
        """(m,) smallest angles in degrees of triangles P (m, 3, 2) under the
        tensors at their centroids, located here: smoothing moves most of
        them each pass.  Elementwise, so no fused multiply-add rounds it."""
        m = self.uniform
        if m is None:
            m = self.tensors[self.locator.locate_many(P.mean(axis=1), clamp=True)[0]]
        m00, m01, m10, m11 = m.reshape(-1, 4).T[:, :, None]
        x, y = (P[:, [1, 2, 0]] - P).transpose(2, 0, 1)  # edge k leaves corner k
        Mx, My = x * m00 + y * m10, x * m01 + y * m11  # rows of E^T M
        norm2, prev = Mx * x + My * y, [2, 0, 1]  # corner k: edges k and k - 1
        cos = -(Mx * x[:, prev] + My * y[:, prev]) / np.sqrt(norm2 * norm2[:, prev])
        return np.degrees(np.arccos(np.minimum(cos.max(axis=1), 1.0)))


def percentile5(values):
    """np.percentile(values, 5), linear, in the same bits and much faster."""
    v, r = np.sort(values), 0.05 * (len(values) - 1)
    a, b, t = float(v[int(r)]), float(v[min(int(r) + 1, len(v) - 1)]), r - int(r)
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def flip_wanted(m, a, b, c, d):
    """Metric Delaunay test of edge ab with opposite vertices c and d, all
    (x, y) points of Python floats, under the tensor m = (m00, m01, m10,
    m11): the angles at c and d sum to more than pi.

    At o = c, d with u, v = a - o, b - o, the angle's cosine and sine are
    `u^T M v` and `|u x v| sqrt(det M)` over the same positive product of
    metric norms, so sin(alpha + beta) has the sign of
    `cross_c * dot_d + dot_c * cross_d`, each `u^T M v` summed as
    (u^T M) v.  Swapping c and d gives the same bits; swapping a and b
    need not.
    """
    m00, m01, m10, m11 = m
    ux, uy, vx, vy = a[0] - c[0], a[1] - c[1], b[0] - c[0], b[1] - c[1]
    dot_c = (ux * m00 + uy * m10) * vx + (ux * m01 + uy * m11) * vy
    cross_c = abs(ux * vy - uy * vx)
    ux, uy, vx, vy = a[0] - d[0], a[1] - d[1], b[0] - d[0], b[1] - d[1]
    dot_d = (ux * m00 + uy * m10) * vx + (ux * m01 + uy * m11) * vy
    cross_d = abs(ux * vy - uy * vx)
    s = cross_c * dot_d + dot_c * cross_d
    return s < -1e-9 * (cross_c * abs(dot_d) + abs(dot_c) * cross_d)


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
    seg_len = np.sqrt((vec[:, None, :] @ vec[:, :, None])[:, 0, 0])
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
    converged: bool = False  # stopped by PATIENCE passes without a better score
    best_pass: int = 0  # the pass returned: the first with the best score
    min_angle_p5: float = 0.0  # its score, in degrees
    # accepted adaptation edits, summed over the passes run
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
    The boundary is kept exactly; the interior is adapted so metric edge
    lengths at target size h approach 1, for at most `passes` passes, and
    the first pass of best score (5th-percentile minimum angle) is kept;
    adaptation stops after PATIENCE passes in a row without a better score.
    Returns the face mesh and the locator of the patch's parametric
    triangles, for `map_to_3d`.
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
    clip_to_loops(mesh, constraints)

    n_fixed = len(points)

    def ends(edges, xy):
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return xy[e[:, 0]], xy[e[:, 1]]

    # Split, collapse and flip each read the metric in at most one call, one
    # tensor per edge at its midpoint; on a curved face the call locates
    # only the midpoints the face has not read before.  No vertex moves before
    # smoothing, so an edge keeps its length for the pass: splits act on
    # the lengths they start with, and collapses measure only the edges
    # that splits made.  The flip sweep reads every edge's tensor in one
    # call at its start, then tests each edge on its quad as it stands
    # when the sweep reaches it: a flip changes the quads of the four
    # edges around it.
    # Smoothing moves vertices and stays serial.  Vertices past n_fixed
    # are interior: no constrained edge is split.  A smoothing target is
    # not located, as a split's midpoint is not: `move_vertex`'s
    # orientation test is the one guard on a move, and the one-to-one map
    # puts every point of the domain on the input surface.
    # The score reads the points smoothing left, as the next pass's splits do.
    counts = dict.fromkeys(("splits", "collapses", "flips", "moves"), 0)
    done = stale = 0
    best = (-np.inf, 0, None, None)  # score, pass, points, triangles
    xy = np.asarray(mesh.points)
    while done < passes and stale < PATIENCE:
        done += 1
        # split long edges, longest first
        edges = [e for e in mesh.edges() if e not in mesh.constrained]
        lens = metric.edge_lengths(*ends(edges, xy))
        lens = dict(zip(edges, lens.tolist()))
        n_old = len(mesh.points)
        for _, e in sorted((-ln, e) for e, ln in lens.items() if ln > METRIC_LONG):
            if mesh.has_edge(e) and mesh.split_edge(e) is not None:
                counts["splits"] += 1
        # collapse short interior edges; collapses and flips move no point
        xy = np.asarray(mesh.points)
        edges = [
            e for e in sorted(mesh.edges())
            if e not in mesh.constrained and (e[0] >= n_fixed or e[1] >= n_fixed)
        ]
        new = [e for e in edges if e[1] >= n_old]  # made by a split
        if new:
            measured = metric.edge_lengths(*ends(new, xy))
            lens.update(zip(new, measured.tolist()))
        for e in edges:
            if lens[e] < METRIC_SHORT and mesh.has_edge(e) and mesh.collapse(e):
                counts["collapses"] += 1
        # metric Delaunay flips
        edges = [e for e in sorted(mesh.edges()) if e not in mesh.constrained]
        pa, pb = ends(edges, xy)
        tensors = metric.at(0.5 * (pa + pb)).reshape(-1, 4).tolist()
        pts = mesh.points
        for e, m in zip(edges, tensors):
            q = mesh.quad(e)  # the rule takes a, b as e has them: low first
            if q and flip_wanted(m, pts[e[0]], pts[e[1]], pts[q[2]], pts[q[3]]) and mesh.flip(e):
                counts["flips"] += 1
        # smooth interior vertices
        for v in range(n_fixed, len(pts)):
            if not mesh.v2t[v]:
                continue
            nbrs = sorted(
                {w for tid in mesh.v2t[v] for w in mesh.tris[tid] if w != v}
            )
            # the sequential sum np.mean(axis=0) makes, in floats
            x, y = pts[nbrs[0]]
            for w in nbrs[1:]:
                x += pts[w][0]
                y += pts[w][1]
            target = (x / len(nbrs), y / len(nbrs))
            if mesh.move_vertex(v, target):
                counts["moves"] += 1
        xy = np.asarray(pts)
        score = percentile5(metric.min_angles(xy[[t for t in mesh.tris if t is not None]]))
        if score > best[0]:
            best, stale = (score, done, list(pts), list(mesh.tris)), -1
        stale += 1

    score, best_pass, mesh.points, mesh.tris = best  # compact reads only these two
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
        converged=stale >= PATIENCE,
        best_pass=best_pass,
        min_angle_p5=score,
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
