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
    starts.  Returns (the `prepare` result of each part, split records);
    parts are ordered by smallest contained model triangle id.
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
            done.append(prepared)
            continue
        if p.n_triangles < 2:
            raise MeshError(
                f"single-triangle patch still fails ({reason}); cannot split"
            )
        records.append(SplitRecord(patch_size=p.n_triangles, reason=reason))
        queue.extend(bisect_patch(p))
    done.sort(key=lambda d: int(d[0].triangle_ids.min()))
    return done, records


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


def build_brep(model: Triangulation, patches: list[Patch], sharp=()) -> BRep:
    """Cut the patch boundary loops into curves at the corners.

    The curve network is the union of all patch boundary edges (feature
    edges, cuts and model boundary alike).  A network vertex is a corner
    if it is in `sharp` (the pipeline passes `feature_corners`, where a
    feature curve turns), or unless it has valence two and both its
    edges border the same faces.
    Each loop, rotated to its first corner, is cut at every corner into
    runs; a loop without a corner is one closed run, cut at its smallest
    vertex.  A curve starts at its smaller end, towards the smaller
    neighbour when both ends are one vertex; curves are numbered by
    (closed, start, second vertex), so open curves come first.
    """
    loops = [[np.asarray(lp) for lp in p.global_loops()] for p in patches]
    flat = [(fid, lp) for fid, lps in enumerate(loops) for lp in lps]
    a = np.concatenate([lp for _, lp in flat])
    b = np.concatenate([np.roll(lp, -1) for _, lp in flat])
    face = np.concatenate([np.full(len(lp), fid) for fid, lp in flat])
    n, nf = model.n_vertices, len(patches)
    key, edge = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    first, last = np.full(len(key), nf), np.full(len(key), -1)
    np.minimum.at(first, edge, face)
    np.maximum.at(last, edge, face)
    ends = np.concatenate([key // n, key % n])
    valence = np.bincount(ends, minlength=n)
    # distinct face pairs (first * nf + last face) among a vertex's edges
    n_pairs = np.bincount(
        np.unique(ends * nf * nf + np.tile(first * nf + last, 2)) // (nf * nf), minlength=n
    )
    is_corner = (valence > 0) & ((valence != 2) | (n_pairs > 1) | np.isin(np.arange(n), sharp))

    runs: dict[tuple, tuple[list, list]] = {}  # curve key -> (vertices, faces)
    walks = []  # per face, per loop: (curve key, forward) of each run
    for fid, lps in enumerate(loops):
        walks.append([])
        for lp in lps:
            cuts = np.flatnonzero(is_corner[lp])
            closed = len(cuts) == 0
            if closed:
                cuts = np.argmin(lp)[None]
            seq = np.roll(lp, -cuts[0]).tolist()
            seq.append(seq[0])
            bounds = (cuts - cuts[0]).tolist() + [len(lp)]
            cyc = []
            for s, e in zip(bounds, bounds[1:]):
                run = seq[s:e + 1]
                forward = (run[0], run[1]) < (run[-1], run[-2])
                verts = run if forward else run[::-1]
                k = (closed, verts[0], verts[1])
                runs.setdefault(k, (verts[:-1] if closed else verts, []))[1].append(fid)
                cyc.append((k, forward))
            walks[-1].append(cyc)
    keys = sorted(runs)
    cid = {k: i for i, k in enumerate(keys)}
    curves = [Curve(vertices=runs[k][0], closed=k[0], faces=runs[k][1]) for k in keys]
    faces = [
        Face(patch=p, loops=[[(cid[k], fw) for k, fw in cyc] for cyc in walk])
        for p, walk in zip(patches, walks)
    ]
    return BRep(faces=faces, curves=curves, points=np.flatnonzero(is_corner).tolist())
