"""The UV adaptation loop as it was before its predicates were batched.

`mesh_patch_uv` reads one metric tensor per edge for a whole phase,
tests flips with one elementwise sign test, moves a vertex to its
smoothing target without locating the target, clips by one spread from
the directed loop edges and reads vertex boundary flags from a set; its
`PlanarMesh` keeps points as Python floats.  The copies below do the
same work one item at a time: a `locate` call per edge midpoint (none
on a projected face, whose one tensor is `FaceMetric.uniform`), a
scalar sign test per quad, a `locate_many` domain test per smoothing
target, a clip that scans every triangle until the kept set stops
growing, a boundary test that scans the vertex's edges, and a planar
mesh with numpy points.  Each pass's score is one `locate` per triangle
centroid, a scalar cosine per corner and `np.percentile`.  The batched
loop must make the same edits in the same order and return the same
pass, so both give the same arrays; equal arrays also show that no
smoothing target of these cases leaves the domain.

`reference_build_brep` is the BREP builder as it was before it became
one walk over the face loops: edge and vertex-star dicts, a chain from
each corner, a second walk for closed curves (which repeats the start
vertex at the end), then a pass matching every face loop to its curves.
"""

import numpy as np

from atlasmesh import planar
from atlasmesh.atlas import BRep, Curve, Face
from atlasmesh.mesh import MeshError, signed_uv_areas
from atlasmesh.planar import _orient
from atlasmesh.remesh import METRIC_LONG, METRIC_SHORT, PATIENCE, FaceMetric


def scalar_flip_wanted(M, p):
    """Metric Delaunay test of one quad p = (a, b, c, d) of edge ab under
    the 2x2 tensor M: the sign of sin(alpha + beta) from the cosine and
    sine numerators of the angles at c and d, each `u^T M v` summed as
    (u^T M) v."""
    (m00, m01), (m10, m11) = np.asarray(M, dtype=np.float64).tolist()
    dot, cross = [], []
    for o in (p[2], p[3]):
        (ux, uy), (vx, vy) = (p[0] - o).tolist(), (p[1] - o).tolist()
        dot.append((ux * m00 + uy * m10) * vx + (ux * m01 + uy * m11) * vy)
        cross.append(abs(ux * vy - uy * vx))
    s = cross[0] * dot[1] + dot[0] * cross[1]
    return s < -1e-9 * (cross[0] * abs(dot[1]) + abs(dot[0]) * cross[1])


def scalar_winding_number(point, loops):
    """Total winding of `loops` (lists of 2D points) around `point`."""
    wn = 0
    x, y = point
    for loop in loops:
        n = len(loop)
        for i in range(n):
            ax, ay = loop[i]
            bx, by = loop[(i + 1) % n]
            if ay <= y:
                if by > y and (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0:
                    wn += 1
            elif by <= y and (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0.0:
                wn -= 1
    return wn


class ReferencePlanarMesh:
    """`planar.PlanarMesh` as it was, with numpy points and helper calls.

    `flip` and `collapse` refuse an edit that would give a directed edge
    a second live triangle, as `PlanarMesh`'s do.

    Deleted triangles are tombstoned with None; `compact()` returns clean
    arrays.  Constrained edges (domain boundary) are never flipped,
    split, or collapsed by the editing helpers.  `constrain` marks an
    edge; `boundary` holds every vertex of a constrained edge.
    """

    def __init__(self, points, triangles):
        self.points = [np.asarray(p, dtype=np.float64) for p in points]
        self.tris: list = []
        self.e2t: dict[tuple[int, int], list[int]] = {}
        self.v2t: dict[int, set[int]] = {i: set() for i in range(len(self.points))}
        self.constrained: set[tuple[int, int]] = set()
        self.boundary: set[int] = set()
        for t in triangles:
            self._add_tri(tuple(int(v) for v in t))

    # -- bookkeeping --------------------------------------------------------

    @staticmethod
    def _ekey(a, b):
        return (a, b) if a < b else (b, a)

    def _add_tri(self, tri):
        tid = len(self.tris)
        self.tris.append(tri)
        for k in range(3):
            key = self._ekey(tri[k], tri[(k + 1) % 3])
            self.e2t.setdefault(key, []).append(tid)
            self.v2t.setdefault(tri[k], set()).add(tid)
        return tid

    def _remove_tri(self, tid):
        tri = self.tris[tid]
        for k in range(3):
            key = self._ekey(tri[k], tri[(k + 1) % 3])
            self.e2t[key].remove(tid)
            if not self.e2t[key]:
                del self.e2t[key]
            self.v2t[tri[k]].discard(tid)
        self.tris[tid] = None

    def add_point(self, p):
        vid = len(self.points)
        self.points.append(np.asarray(p, dtype=np.float64))
        self.v2t[vid] = set()
        return vid

    def area(self, tid):
        a, b, c = (self.points[v] for v in self.tris[tid])
        return 0.5 * _orient(a, b, c)

    def has_edge(self, edge):
        return self._ekey(*edge) in self.e2t

    def edges(self):
        return list(self.e2t)

    def constrain(self, a, b):
        key = self._ekey(a, b)
        self.constrained.add(key)
        self.boundary.update(key)

    def is_boundary_vertex(self, v):
        return v in self.boundary

    # -- local operations ---------------------------------------------------

    def flip(self, edge, check=True):
        """Replace edge (a,b) of quad acbd by (c,d).  False if invalid."""
        if edge in self.constrained:
            return False
        tids = self.e2t.get(edge)
        if tids is None or len(tids) != 2:
            return False
        a, b = edge
        t0, t1 = tids
        c = next(v for v in self.tris[t0] if v not in edge)
        d = next(v for v in self.tris[t1] if v not in edge)
        if c == d or self._ekey(c, d) in self.e2t:
            return False
        # t0 must wind a->b; ensure consistent naming
        tri0 = self.tris[t0]
        if (tri0[0], tri0[1], tri0[2]) in (
            (b, a, c), (a, c, b), (c, b, a)
        ):
            a, b = b, a
        new0 = (a, d, c)
        new1 = (d, b, c)
        if check:
            pa, pb, pc, pd = (self.points[v] for v in (a, b, c, d))
            if _orient(pa, pd, pc) <= 0.0 or _orient(pd, pb, pc) <= 0.0:
                return False
        self._remove_tri(t0)
        self._remove_tri(t1)
        self._add_tri(new0)
        self._add_tri(new1)
        return True

    def split_edge(self, edge, point=None):
        """Insert a vertex on an edge, bisecting its adjacent triangles."""
        tids = list(self.e2t.get(edge, ()))
        if not tids:
            return None
        a, b = edge
        if point is None:
            point = 0.5 * (self.points[a] + self.points[b])
        m = self.add_point(point)
        was_constrained = edge in self.constrained
        for tid in tids:
            tri = self.tris[tid]
            # rotate so the split edge is (x, y) in winding order
            for k in range(3):
                x, y, z = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
                if {x, y} == {a, b}:
                    break
            self._remove_tri(tid)
            self._add_tri((x, m, z))
            self._add_tri((m, y, z))
        if was_constrained:
            self.constrained.discard(edge)
            self.constrain(a, m)
            self.constrain(m, b)
        return m

    def collapse(self, edge):
        """Merge vertex a of (a,b) into b; a must be interior.  False if invalid."""
        a, b = edge
        if self.is_boundary_vertex(a):
            if self.is_boundary_vertex(b):
                return False
            a, b = b, a
        if self.is_boundary_vertex(a):
            return False
        ring = sorted(self.v2t[a])
        pb = self.points[b]
        for tid in ring:
            tri = self.tris[tid]
            if b in tri:
                continue
            pts = [pb if v == a else self.points[v] for v in tri]
            if _orient(*pts) <= 0.0:
                return False
            new = tuple(b if v == a else v for v in tri)
            for u, v in zip(new, new[1:] + new[:1]):
                held = [self.tris[t] for t in self.e2t.get(self._ekey(u, v), ())]
                if any(a not in t and (u, v) in zip(t, t[1:] + t[:1]) for t in held):
                    return False
        for tid in ring:
            tri = self.tris[tid]
            self._remove_tri(tid)
            if b in tri:
                continue
            self._add_tri(tuple(b if v == a else v for v in tri))
        return True

    def move_vertex(self, v, point):
        """Relocate an interior vertex if all incident triangles stay positive."""
        old = self.points[v]
        self.points[v] = np.asarray(point, dtype=np.float64)
        for tid in self.v2t[v]:
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


def triangulate_with(cls, points, constraint_edges):
    """`planar.constrained_triangulation` building a `cls` mesh."""
    saved = planar.PlanarMesh
    planar.PlanarMesh = cls
    try:
        return planar.constrained_triangulation(points, constraint_edges)
    finally:
        planar.PlanarMesh = saved


class EdgeScanMesh(ReferencePlanarMesh):
    """A PlanarMesh whose boundary test scans the vertex's live edges."""

    def is_boundary_vertex(self, v):
        edges = {self._ekey(v, w) for tid in self.v2t[v] for w in self.tris[tid] if w != v}
        return any(e in self.constrained for e in edges)


def scalar_clip(mesh, loop_edges):
    """Keep the triangles left of a directed loop edge and those that share
    an unconstrained edge with a kept one, scanning all triangles until a
    scan keeps no more; remove the rest."""
    def directed(t):
        a, b, c = mesh.tris[t]
        return [(a, b), (b, c), (c, a)]

    live = [t for t, tri in enumerate(mesh.tris) if tri is not None]
    loop_edges = {(int(a), int(b)) for a, b in loop_edges}
    keep = {t for t in live if loop_edges.intersection(directed(t))}
    grown = True
    while grown:
        open_edges = {mesh._ekey(*e) for t in keep for e in directed(t)} - mesh.constrained
        new = {t for t in live if t not in keep
               and any(mesh._ekey(*e) in open_edges for e in directed(t))}
        keep |= new
        grown = bool(new)
    for t in live:
        if t not in keep:
            mesh._remove_tri(t)


def edge_tensor(metric, p, q):
    """The metric tensor of edge pq: the uniform tensor of a projected
    face, else one `locate` at its midpoint."""
    if metric.uniform is not None:
        return metric.uniform
    return metric.tensors[metric.locator.locate(0.5 * (p + q), clamp=True)[0]]


def edge_lengths(metric, P, Q):
    """Metric lengths, one edge at a time."""
    out = []
    for p, q in zip(P, Q):
        d = q - p
        out.append(float(np.sqrt(max(d @ edge_tensor(metric, p, q) @ d, 0.0))))
    return np.asarray(out)


def largest_cosine(metric, corners):
    """The cosine of one triangle's smallest angle under the tensor at its
    centroid: the uniform tensor, or one `locate`."""
    a, b, c = corners
    M = metric.uniform
    if M is None:
        M = metric.tensors[metric.locator.locate((a + b + c) / 3.0, clamp=True)[0]]
    m00, m01, m10, m11 = M.ravel().tolist()
    edges = [(float(x), float(y)) for x, y in (b - a, c - b, a - c)]
    cosines = []
    for (px, py), (x, y) in zip(edges[-1:] + edges[:-1], edges):  # edges k - 1, k
        mx, my = x * m00 + y * m10, x * m01 + y * m11
        qx, qy = px * m00 + py * m10, px * m01 + py * m11
        cosines.append(-(mx * px + my * py) / np.sqrt((mx * x + my * y) * (qx * px + qy * py)))
    return min(max(cosines), 1.0)


def reference_score(metric, mesh):
    """The 5th percentile of the live triangles' smallest metric angles, in degrees."""
    cos = [largest_cosine(metric, [mesh.points[v] for v in t]) for t in mesh.tris if t is not None]
    return float(np.percentile(np.degrees(np.arccos(np.array(cos))), 5))


def reference_mesh_patch_uv(patch, param, loops, h, passes=10):
    """(uv points, triangles, sample ids, passes, converged, accepted
    edits, best pass, its score) of the best pass."""
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
    mesh = triangulate_with(EdgeScanMesh, points, constraints)
    scalar_clip(mesh, constraints)
    n_fixed = len(points)

    def ends(edges):
        pts = np.asarray(mesh.points)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return pts[e[:, 0]], pts[e[:, 1]]

    counts = dict.fromkeys(("splits", "collapses", "flips", "moves"), 0)
    done = stale = best_pass = 0
    best_score = -np.inf
    while done < passes and stale < PATIENCE:
        done += 1
        edges = mesh.edges()
        lens = sorted(zip(edge_lengths(metric, *ends(edges)).tolist(), edges),
                      key=lambda x: (-x[0], x[1]))
        for ln, e in lens:
            if ln <= METRIC_LONG or e in mesh.constrained:
                continue
            if e in mesh.e2t and mesh.split_edge(e) is not None:
                counts["splits"] += 1
        edges = [
            e for e in sorted(mesh.edges())
            if e not in mesh.constrained and (e[0] >= n_fixed or e[1] >= n_fixed)
        ]
        short = edge_lengths(metric, *ends(edges)) < METRIC_SHORT
        for e, is_short in zip(edges, short):
            if is_short and e in mesh.e2t and mesh.collapse(e):
                counts["collapses"] += 1
        edges = [e for e in sorted(mesh.edges()) if e not in mesh.constrained]
        for e, M in [(e, edge_tensor(metric, *(mesh.points[v] for v in e))) for e in edges]:
            tids = mesh.e2t.get(e, ())
            if len(tids) != 2:
                continue
            opp = [next(v for v in mesh.tris[t] if v not in e) for t in tids]
            quad = np.asarray([mesh.points[v] for v in (*e, *opp)])
            if scalar_flip_wanted(M, quad) and mesh.flip(e):
                counts["flips"] += 1
        for v in range(n_fixed, len(mesh.points)):
            if not mesh.v2t[v] or mesh.is_boundary_vertex(v):
                continue
            nbrs = sorted({w for tid in mesh.v2t[v] for w in mesh.tris[tid] if w != v})
            if not nbrs:
                continue
            target = np.mean([mesh.points[w] for w in nbrs], axis=0)
            try:
                metric.locator.locate_many(target)
            except MeshError:
                continue
            if mesh.move_vertex(v, target):
                counts["moves"] += 1
        score = reference_score(metric, mesh)
        stale += 1
        if score > best_score:
            best_score, best_pass, stale = score, done, 0
            best_points, best_tris = list(mesh.points), list(mesh.tris)

    mesh.points, mesh.tris = best_points, best_tris
    pts, tris, used = mesh.compact()
    if (signed_uv_areas(tris, pts) <= 0.0).any():
        raise MeshError("remesher produced an inverted UV triangle")
    vertex_ids = np.concatenate([ids, np.full(len(mesh.points) - n_fixed, -1)])
    return pts, tris, vertex_ids[used], done, stale >= PATIENCE, counts, best_pass, best_score


# -- the BREP chained from edge dicts ------------------------------------------


def reference_build_brep(model, patches):
    """`atlas.build_brep` as it was: chain patch-boundary edges into curves.

    The curve network is the union of all patch boundary edges (feature
    edges, cuts and model boundary alike).  Vertices of network valence
    other than two, or where the adjacent-face pair changes, become
    corner points; edges between corners chain into open curves and the
    remaining cycles into closed curves.
    """
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for fid, p in enumerate(patches):
        for loop in p.global_loops():
            nn = len(loop)
            for k in range(nn):
                a, b = loop[k], loop[(k + 1) % nn]
                key = (a, b) if a < b else (b, a)
                edge_faces.setdefault(key, [])
                if fid not in edge_faces[key]:
                    edge_faces[key].append(fid)

    star: dict[int, list[tuple[int, int]]] = {}
    for e in edge_faces:
        star.setdefault(e[0], []).append(e)
        star.setdefault(e[1], []).append(e)

    def is_corner(v):
        edges = star[v]
        if len(edges) != 2:
            return True
        return sorted(edge_faces[edges[0]]) != sorted(edge_faces[edges[1]])

    corners = sorted(v for v in star if is_corner(v))
    corner_set = set(corners)

    curves: list[Curve] = []
    edge_curve: dict[tuple[int, int], int] = {}
    unused = set(edge_faces)

    def other_end(edge, v):
        return edge[0] if edge[1] == v else edge[1]

    def chain_from(start, first_edge):
        verts = [start, other_end(first_edge, start)]
        edges = [first_edge]
        while verts[-1] not in corner_set:
            v = verts[-1]
            nxt = [e for e in star[v] if e != edges[-1]]
            if len(nxt) != 1:
                raise MeshError("inconsistent curve network")  # bug guard
            edges.append(nxt[0])
            verts.append(other_end(nxt[0], v))
        return verts, edges

    for c in corners:
        for e in sorted(star[c]):
            if e not in unused:
                continue
            verts, edges = chain_from(c, e)
            if any(x not in unused for x in edges):
                continue
            cid = len(curves)
            curves.append(Curve(vertices=verts, closed=False,
                                faces=sorted(edge_faces[edges[0]])))
            for x in edges:
                edge_curve[x] = cid
                unused.discard(x)

    while unused:  # closed curves without corners
        start_edge = min(unused)
        v0 = start_edge[0]
        verts = [v0, other_end(start_edge, v0)]
        edges = [start_edge]
        while True:
            v = verts[-1]
            nxt = [e for e in star[v] if e != edges[-1]]
            if len(nxt) != 1:
                raise MeshError("inconsistent curve network")
            if nxt[0] == start_edge:
                break
            edges.append(nxt[0])
            verts.append(other_end(nxt[0], v))
        cid = len(curves)
        curves.append(Curve(vertices=verts, closed=True,
                            faces=sorted(edge_faces[start_edge])))
        for x in edges:
            edge_curve[x] = cid
            unused.discard(x)

    faces = []
    for fid, p in enumerate(patches):
        face = Face(patch=p)
        for loop in p.global_loops():
            nn = len(loop)
            cyc = []
            # rotate so the loop starts at a corner if it has one
            starts = [k for k in range(nn) if loop[k] in corner_set]
            if starts:
                k0 = starts[0]
                seq = [loop[(k0 + k) % nn] for k in range(nn)] + [loop[k0]]
                run = [seq[0]]
                for v in seq[1:]:
                    run.append(v)
                    if v in corner_set:
                        e0 = (run[0], run[1]) if run[0] < run[1] else (run[1], run[0])
                        cid = edge_curve[e0]
                        cur = curves[cid]
                        forward = run == cur.vertices
                        if not forward and list(reversed(run)) != cur.vertices:
                            raise MeshError("face loop does not match curve")
                        cyc.append((cid, forward))
                        run = [v]
            else:
                e0 = (
                    (loop[0], loop[1]) if loop[0] < loop[1] else (loop[1], loop[0])
                )
                cid = edge_curve[e0]
                cur = curves[cid]
                i0 = cur.vertices.index(loop[0])
                forward = (
                    cur.vertices[(i0 + 1) % len(cur.vertices)] == loop[1]
                )
                cyc.append((cid, forward))
            face.loops.append(cyc)
        faces.append(face)

    return BRep(faces=faces, curves=curves, points=corners)
