"""The UV adaptation loop as it was before its predicates were batched.

`mesh_patch_uv` tests each flip with stacked metric angles, locates a
smoothing target by scanning its cell in Python floats, clips with one
vectorised winding-number evaluation and reads vertex boundary flags
from a set.  The copies below do the same work one item at a time: a
scalar angle per opposite vertex, a `locate_many` call per smoothed
vertex, a winding-number loop per triangle and a boundary test that
scans the vertex's edges.  The batched loop must make the same edits in
the same order, so both give the same arrays.
"""

import numpy as np

from atlasmesh.mesh import MeshError, signed_uv_areas
from atlasmesh.planar import PlanarMesh, constrained_triangulation
from atlasmesh.remesh import GAUSS, METRIC_LONG, METRIC_SHORT, FaceMetric


def scalar_angle(M, u, v):
    """Angle between u and v under the 2x2 tensor M; 0 for a zero vector."""
    nu = float(np.sqrt(max(u @ M @ u, 0.0)))
    nv = float(np.sqrt(max(v @ M @ v, 0.0)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = float(u @ M @ v) / (nu * nv)
    return float(np.arccos(min(max(c, -1.0), 1.0)))


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


class EdgeScanMesh(PlanarMesh):
    """A PlanarMesh whose boundary test scans the vertex's live edges."""

    def is_boundary_vertex(self, v):
        edges = {self._ekey(v, w) for tid in self.v2t[v] for w in self.tris[tid] if w != v}
        return any(e in self.constrained for e in edges)


def scalar_clip(mesh, loops_xy):
    for tid, tri in enumerate(mesh.tris):
        if tri is None:
            continue
        cen = (mesh.points[tri[0]] + mesh.points[tri[1]] + mesh.points[tri[2]]) / 3.0
        if scalar_winding_number(cen, loops_xy) == 0:
            mesh._remove_tri(tid)


def edge_lengths(metric, P, Q):
    """Metric lengths with one tensor lookup per Gauss point."""
    P = np.asarray(P, dtype=np.float64).reshape(-1, 2)
    D = np.asarray(Q, dtype=np.float64).reshape(-1, 2) - P
    total = 0.0
    for g in GAUSS:
        sq = (D[:, None, :] @ metric.at(P + g * D) @ D[:, :, None])[:, 0, 0]
        total = total + 0.5 * np.sqrt(np.maximum(sq, 0.0))
    return total


def reference_mesh_patch_uv(patch, param, loops, h, passes=10):
    """(uv points, triangles, sample ids, passes, converged, accepted edits)."""
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
    mesh.__class__ = EdgeScanMesh
    scalar_clip(mesh, [uv for _, uv in loops])
    n_fixed = len(points)

    def ends(edges):
        pts = np.asarray(mesh.points)
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        return pts[e[:, 0]], pts[e[:, 1]]

    counts = dict.fromkeys(("splits", "collapses", "flips", "moves"), 0)
    done = 0
    converged = False
    while done < passes and not converged:
        done += 1
        changed = False
        edges = mesh.edges()
        lens = sorted(zip(edge_lengths(metric, *ends(edges)).tolist(), edges),
                      key=lambda x: (-x[0], x[1]))
        for ln, e in lens:
            if ln <= METRIC_LONG or e in mesh.constrained:
                continue
            if e in mesh.e2t and mesh.split_edge(e) is not None:
                changed = True
                counts["splits"] += 1
        edges = [
            e for e in sorted(mesh.edges())
            if e not in mesh.constrained and (e[0] >= n_fixed or e[1] >= n_fixed)
        ]
        short = edge_lengths(metric, *ends(edges)) < METRIC_SHORT
        for e, is_short in zip(edges, short):
            if is_short and e in mesh.e2t and mesh.collapse(e):
                changed = True
                counts["collapses"] += 1
        edges = [e for e in sorted(mesh.edges()) if e not in mesh.constrained]
        a, b = ends(edges)
        for e, M in zip(edges, metric.at(0.5 * (a + b))):
            tids = mesh.e2t.get(e, ())
            if len(tids) != 2:
                continue
            opp = [next(v for v in mesh.tris[t] if v not in e) for t in tids]
            pa, pb = mesh.points[e[0]], mesh.points[e[1]]
            ang = sum(scalar_angle(M, pa - mesh.points[o], pb - mesh.points[o]) for o in opp)
            if ang > np.pi + 1e-9 and mesh.flip(e):
                changed = True
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
                changed = True
                counts["moves"] += 1
        converged = not changed

    pts, tris, used = mesh.compact()
    if (signed_uv_areas(tris, pts) <= 0.0).any():
        raise MeshError("remesher produced an inverted UV triangle")
    vertex_ids = np.concatenate([ids, np.full(len(mesh.points) - n_fixed, -1)])
    return pts, tris, vertex_ids[used], done, converged, counts
