"""Atlas creation: split patches until parametrizable, assemble the BREP."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .mesh import MeshError, Triangulation
# not called here: bench/spans.py wraps `atlas.parametrize` by name, and
# its Tracer.install raises AttributeError without it
from .param import parametrize  # noqa: F401
from .patch import Patch


MIN_AREA_FACTOR = 1e-12  # smallest parametric area, vs the mean parametric area
MAX_ASPECT = 1e6  # largest width ratio of the parametric bounding box


@dataclass
class SplitRecord:
    patch_size: int
    reason: str  # genus | size | degenerate-area | aspect | non-injective


def _dual_graph(patch: Patch):
    """Sorted neighbour lists of the triangles across two-triangle edges."""
    adj = patch.adj
    pairs = adj.edge_tri[adj.edge_count == 2]
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    ends = np.cumsum(np.bincount(src, minlength=patch.n_triangles)).tolist()
    dst = dst[order].tolist()
    return [dst[s:e] for s, e in zip([0] + ends[:-1], ends)]


def _bfs_farthest(nbrs, seed):
    dist = {seed: 0}
    q = deque([seed])
    far = seed
    while q:
        t = q.popleft()
        for o in nbrs[t]:
            if o not in dist:
                dist[o] = dist[t] + 1
                # farthest triangle, smallest id on ties
                if dist[o] > dist[far] or (dist[o] == dist[far] and o < far):
                    far = o
                q.append(o)
    return far, dist


def bisect_patch(patch: Patch):
    """Split a patch in two balanced edge-connected halves.

    Seeds are an approximate dual-graph diameter pair (double BFS); the
    halves then grow breadth-first, alternating one triangle at a time.
    """
    n = patch.n_triangles
    if n < 2:
        raise MeshError("cannot bisect a patch with fewer than 2 triangles")
    nbrs = _dual_graph(patch)
    a, _ = _bfs_farthest(nbrs, 0)
    b, _ = _bfs_farthest(nbrs, a)
    if a == b:  # disconnected dual graph should not happen for valid patches
        b = next(t for t in range(n) if t != a)
    label = np.full(n, -1, dtype=np.int8)
    label[a], label[b] = 0, 1
    fronts = [deque([a]), deque([b])]
    counts = [1, 1]
    side = 0
    while counts[0] + counts[1] < n:
        progressed = False
        for _ in range(2):
            q = fronts[side]
            claimed = False
            while q and not claimed:
                t = q.popleft()
                for o in nbrs[t]:
                    if label[o] < 0:
                        label[o] = side
                        counts[side] += 1
                        fronts[side].append(o)
                        claimed = True
                if claimed:
                    q.appendleft(t)  # t may still have unlabeled neighbours
            side = 1 - side
            if claimed:
                progressed = True
                break
        if not progressed:
            # leftover component not reachable; shouldn't occur on manifolds
            rest = np.nonzero(label < 0)[0]
            label[rest] = 0
            counts[0] += len(rest)
    ids0 = np.nonzero(label == 0)[0]
    ids1 = np.nonzero(label == 1)[0]
    return patch.subpatch(ids0), patch.subpatch(ids1)


def split_reason(param):
    """None if a parametrization is acceptable, else the split reason."""
    if not param.injective:
        return "non-injective"
    areas = param.signed_areas
    if areas.min() < MIN_AREA_FACTOR * (areas.sum() / len(areas)):
        return "degenerate-area"
    ext = param.uv.max(axis=0) - param.uv.min(axis=0)
    if ext.min() <= 0.0 or ext.max() / ext.min() > MAX_ASPECT:
        return "aspect"
    return None


def make_parametrizable(patches, max_triangles, prepare):
    """Split patches until every part maps one-to-one onto the disk.

    Checks run in order on each part: topology (genus 0, at least one
    boundary), size (at most `max_triangles`), then `prepare(part)`,
    which returns (refined part, parametrization, refine report); the
    parametrization must pass `split_reason`.  Parts are checked
    depth-first, so the splits of one patch end before the next patch
    starts.  Returns (parts, the `prepare` result of each part, split
    records); parts are ordered by smallest contained model triangle id.
    """
    done = []
    records: list[SplitRecord] = []
    queue = list(reversed(patches))
    while queue:
        p = queue.pop()
        _, ok = p.topology()
        if not ok:
            reason = "genus"
        elif p.n_triangles > max_triangles:
            reason = "size"
        else:
            prepared = prepare(p)
            reason = split_reason(prepared[1])
        if reason is None:
            done.append((p, prepared))
            continue
        if p.n_triangles < 2:
            raise MeshError(
                f"single-triangle patch still fails ({reason}); cannot split"
            )
        records.append(SplitRecord(patch_size=p.n_triangles, reason=reason))
        queue.extend(bisect_patch(p))
    done.sort(key=lambda d: int(d[0].triangle_ids.min()))
    return [d[0] for d in done], [d[1] for d in done], records


# ---------------------------------------------------------------------------
# Boundary representation


@dataclass
class Curve:
    """A feature/cut/boundary polyline shared by at most two faces."""

    vertices: list  # global vertex ids, ordered; closed curves omit the repeat
    closed: bool
    faces: list = field(default_factory=list)


@dataclass
class Face:
    patch: Patch
    # boundary loops as cycles of (curve id, forward) in walk order
    loops: list = field(default_factory=list)


@dataclass
class BRep:
    faces: list
    curves: list
    points: list  # corner global vertex ids

    def curve_points(self, model: Triangulation, cid):
        return model.vertices[np.asarray(self.curves[cid].vertices, dtype=np.int64)]


def build_brep(model: Triangulation, patches: list[Patch]) -> BRep:
    """Chain patch-boundary edges into curves and corners.

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
