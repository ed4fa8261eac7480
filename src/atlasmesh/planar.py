"""Editable planar triangulation: flips, splits, collapses, CDT.

Supports the parametric-plane remesher: a Delaunay triangulation of the
boundary samples whose constraint edges are recovered by flipping,
clipped by spreading from the left of the directed loop edges, then
locally modified (split / collapse / flip / smooth) under a metric.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshError


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_cross(p, q, a, b):
    """Strict proper crossing of open segments pq and ab."""
    d1 = _orient(p, q, a)
    d2 = _orient(p, q, b)
    d3 = _orient(a, b, p)
    d4 = _orient(a, b, q)
    return (d1 * d2 < 0.0) and (d3 * d4 < 0.0)


def point_on_segment(p, a, b, tol):
    if abs(_orient(a, b, p)) > tol:
        return False
    lo = np.minimum(a, b) - tol
    hi = np.maximum(a, b) + tol
    return bool(np.all(p >= lo) and np.all(p <= hi))


ON_SEGMENT_TOL = 1e-12  # relative to the largest coordinate; see constrained_triangulation


class PlanarMesh:
    """Mutable 2D triangulation, consistently counter-clockwise.

    Points are (x, y) pairs of Python floats; the predicates use the same
    expressions as on numpy scalars, so they round the same.  Deleted
    triangles are tombstoned with None; `compact()` returns clean arrays.
    At most one live triangle holds each directed edge: the CDT keeps
    Qhull's orientation and every edit keeps it.  A sliver over nearly
    collinear samples may round to area <= 0; next to one, `flip` and
    `collapse` refuse an edit that would give a directed edge a second
    triangle.  `fan[a]` maps each directed edge (a, b) to the live
    triangle that winds a -> b, so its values are the triangles around a;
    an edge with a triangle on each side has a `quad`.
    Constrained edges (domain boundary) are never flipped, split, or
    collapsed by the editing helpers.  `constrain` marks an edge;
    `boundary` holds every vertex of a constrained edge.
    """

    def __init__(self, points, triangles):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        self.points = list(map(tuple, pts.tolist()))
        self.tris: list = []
        self.fan: list[dict[int, int]] = [{} for _ in self.points]
        self.constrained: set[tuple[int, int]] = set()
        self.boundary: set[int] = set()
        for t in np.asarray(triangles, dtype=np.int64).reshape(-1, 3).tolist():
            self._add_tri(tuple(t))

    # -- bookkeeping --------------------------------------------------------

    @staticmethod
    def _ekey(a, b):
        return (a, b) if a < b else (b, a)

    def _add_tri(self, tri):
        tid = len(self.tris)
        self.tris.append(tri)
        a, b, c = tri
        fan = self.fan
        fan[a][b] = fan[b][c] = fan[c][a] = tid
        return tid

    def _remove_tri(self, tid):
        a, b, c = self.tris[tid]
        fan = self.fan
        # a collapse may already have handed a key to the triangle replacing
        # a neighbour; it stays with that triangle
        for x, y in ((a, b), (b, c), (c, a)):
            if fan[x][y] == tid:
                del fan[x][y]
        self.tris[tid] = None

    def area(self, tid):
        a, b, c = self.tris[tid]
        return 0.5 * _orient(self.points[a], self.points[b], self.points[c])

    def has_edge(self, edge):
        a, b = edge
        return b in self.fan[a] or a in self.fan[b]

    def edges(self):
        """Every edge once, as (low, high)."""
        fan = self.fan
        return [(a, b) if a < b else (b, a)
                for a, out in enumerate(fan) for b in out if a < b or a not in fan[b]]

    def quad(self, edge):
        """(a, b, c, d) of an edge with a triangle on each side: the lower
        triangle id winds (a, b, c), the other (b, a, d).  None otherwise."""
        a, b = edge
        t0, t1 = self.fan[a].get(b), self.fan[b].get(a)
        if t0 is None or t1 is None:
            return None
        if t1 < t0:
            a, b, t0, t1 = b, a, t1, t0
        x, y, z = self.tris[t0]
        u, v, w = self.tris[t1]
        return a, b, x + y + z - a - b, u + v + w - a - b

    def constrain(self, a, b):
        key = self._ekey(a, b)
        self.constrained.add(key)
        self.boundary.update(key)

    # -- local operations ---------------------------------------------------

    def flip(self, edge):
        """Replace edge (a,b) of quad acbd by (c,d).  False if either new
        triangle would lose its orientation, or if c and d are already
        joined."""
        if edge in self.constrained:
            return False
        q = self.quad(edge)
        if q is None:
            return False
        a, b, c, d = q  # c == d fails the orientation test
        pa, pb, pc, pd = (self.points[v] for v in q)
        if _orient(pa, pd, pc) <= 0.0 or _orient(pd, pb, pc) <= 0.0 or self.has_edge((c, d)):
            return False
        fan = self.fan
        self._remove_tri(fan[a][b])
        self._remove_tri(fan[b][a])
        self._add_tri((a, d, c))
        self._add_tri((d, b, c))
        return True

    def split_edge(self, edge):
        """Insert the midpoint of an edge, bisecting its adjacent triangles."""
        a, b = edge
        sides = sorted((tid, x, y) for x, y in ((a, b), (b, a))
                       if (tid := self.fan[x].get(y)) is not None)
        if not sides:
            return None
        (ax, ay), (bx, by) = self.points[a], self.points[b]
        m = len(self.points)
        self.points.append((0.5 * (ax + bx), 0.5 * (ay + by)))
        self.fan.append({})
        for tid, x, y in sides:  # ascending id; the triangle winds x -> y -> z
            u, v, w = self.tris[tid]
            z = u + v + w - x - y
            self._remove_tri(tid)
            self._add_tri((x, m, z))
            self._add_tri((m, y, z))
        if edge in self.constrained:
            self.constrained.discard(edge)
            self.constrain(a, m)
            self.constrain(m, b)
        return m

    def collapse(self, edge):
        """Merge vertex a of (a,b) into b; a must be interior.  False if a
        triangle would lose its orientation, or if a directed edge at b
        would gain a second triangle: a and b share a neighbour besides
        the corners of the triangles on ab."""
        a, b = edge
        if a in self.boundary:
            if b in self.boundary:
                return False
            a, b = b, a
        tris, fan, pts = self.tris, self.fan, self.points
        ring = sorted(fan[a].values())  # ascending ids; _remove_tri shrinks fan[a]
        new = []
        for tid in ring:
            x, y, z = tris[tid]
            if x == b or y == b or z == b:
                new.append(None)
                continue
            x, y, z = tri = (b if x == a else x, b if y == a else y, b if z == a else z)
            if _orient(pts[x], pts[y], pts[z]) <= 0.0:
                return False
            for u, v in ((x, y), (y, z), (z, x)):
                t = fan[u].get(v)
                if t is not None and a not in tris[t]:
                    return False
            new.append(tri)
        for tid, tri in zip(ring, new):
            self._remove_tri(tid)
            if tri is not None:
                self._add_tri(tri)
        return True

    def move_vertex(self, v, point):
        """Relocate an interior vertex if all incident triangles stay positive."""
        old = self.points[v]
        self.points[v] = (float(point[0]), float(point[1]))
        for tid in self.fan[v].values():
            if self.area(tid) <= 0.0:
                self.points[v] = old
                return False
        return True

    def compact(self):
        """(points (n,2), triangles (m,3)) without tombstones or orphans."""
        live = [t for t in self.tris if t is not None]
        used = sorted({v for t in live for v in t})
        remap = {v: i for i, v in enumerate(used)}
        pts = np.asarray([self.points[v] for v in used])
        tris = np.asarray([[remap[v] for v in t] for t in live], dtype=np.int64)
        return pts, tris, used


def delaunay(points):
    """Delaunay triangles of (n, 2) points as Qhull orients them:
    counter-clockwise, no directed edge in two triangles, though a sliver
    over nearly collinear points may round to area <= 0.  A MeshError if
    Qhull drops a point (a duplicate, say), which no triangle would use."""
    from scipy.spatial import Delaunay

    dt = Delaunay(points)
    if len(dt.coplanar):
        raise MeshError("degenerate points dropped by Delaunay")
    return dt.simplices.astype(np.int64)


def constrained_triangulation(points, constraint_edges):
    """Delaunay triangulation honouring the given edges.

    Missing constraints are recovered by flipping crossing edges.  A
    vertex within ON_SEGMENT_TOL of a constraint splits it in two
    sub-constraints (the polyline geometry is unchanged).  Returns a
    PlanarMesh with the recovered edges marked constrained.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 3:
        raise MeshError("need at least 3 boundary points")
    mesh = PlanarMesh(pts, delaunay(pts))
    scale = float(np.abs(pts).max()) or 1.0
    eps = ON_SEGMENT_TOL * scale

    queue = [tuple(sorted((int(a), int(b)))) for a, b in constraint_edges]
    guard = 0
    while queue:
        guard += 1
        if guard > 100000:
            raise MeshError("constraint recovery did not terminate")
        a, b = queue.pop(0)  # low first
        if mesh.has_edge((a, b)):
            mesh.constrain(a, b)
            continue
        pa, pb = mesh.points[a], mesh.points[b]
        # a vertex sitting on the constraint splits it
        on_seg = [
            v for v in range(len(mesh.points))
            if v not in (a, b) and point_on_segment(mesh.points[v], pa, pb, eps)
        ]
        if on_seg:
            v = min(on_seg, key=lambda v: float(np.linalg.norm(np.subtract(mesh.points[v], pa))))
            queue.insert(0, mesh._ekey(v, b))
            queue.insert(0, mesh._ekey(a, v))
            continue
        crossing = sorted(
            e for e in mesh.edges()
            if a not in e and b not in e
            and segments_cross(pa, pb, mesh.points[e[0]], mesh.points[e[1]])
        )
        progress = False
        for e in crossing:
            if e in mesh.constrained:
                raise MeshError("constraints cross each other")
            if mesh.flip(e):
                progress = True
                break
        if not progress:
            raise MeshError(f"cannot recover constraint edge {(a, b)}")
        queue.insert(0, (a, b))
    return mesh


def clip_to_loops(mesh: PlanarMesh, loop_edges):
    """Keep the triangles reached from the left of the directed loop edges
    (a, b) without crossing a constrained edge; remove the rest in
    ascending id.  A loop edge the CDT split seeds nothing."""
    tris, fan = mesh.tris, mesh.fan
    stack = [t for t in (fan[a].get(b) for a, b in loop_edges) if t is not None]
    keep = set(stack)
    while stack:
        a, b, c = tris[stack.pop()]
        for x, y in ((a, b), (b, c), (c, a)):
            t = fan[y].get(x)
            if t is not None and t not in keep and mesh._ekey(x, y) not in mesh.constrained:
                keep.add(t)
                stack.append(t)
    for tid, tri in enumerate(tris):
        if tri is not None and tid not in keep:
            mesh._remove_tri(tid)
