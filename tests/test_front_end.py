"""The array front end against the per-triangle dict code it replaced.

The reference functions below are the dict implementations of adjacency,
boundary loops, feature detection, segmentation, welding and longest-edge
bisection.  The array code must reproduce them exactly: the same edges,
loops, labels, angles and coordinates bit for bit, the refined triangles
as a set of rows, and the same errors.
"""

import numpy as np
import pytest

from fixtures import (
    concave_hole_plate,
    cube,
    cylinder_shell,
    random_disk_fixture,
    sphere,
    torus,
)

from atlasmesh.features import detect_feature_edges, segment_patches
from atlasmesh.io import _weld
from atlasmesh.mesh import Adjacency, MeshError, Triangulation, boundary_loops
from atlasmesh.patch import Patch
from atlasmesh.refine import default_threshold, longest_edge_bisection

# -- reference: the dict code ------------------------------------------------


class DictAdjacency:
    def __init__(self, tri):
        edge_tris, directed = {}, {}
        for t, (a, b, c) in enumerate(tri.triangles):
            a, b, c = int(a), int(b), int(c)
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                edge_tris.setdefault(key, []).append(t)
                directed.setdefault((u, v), []).append(t)
        self.edge_tris = edge_tris
        self.directed = directed
        self.boundary_edges = {e for e, ts in edge_tris.items() if len(ts) == 1}

    def is_manifold(self):
        return all(len(ts) <= 2 for ts in self.edge_tris.values())

    def is_oriented(self):
        return all(len(ts) == 1 for ts in self.directed.values())

    def other_triangle(self, edge, t):
        ts = self.edge_tris[edge]
        if len(ts) != 2:
            return None
        return ts[0] if ts[1] == t else ts[1]


def ref_boundary_loops(tri, adj):
    out = {}
    for (u, v), ts in adj.directed.items():
        key = (u, v) if u < v else (v, u)
        if len(adj.edge_tris[key]) == 1:
            out.setdefault(u, []).append((u, v))

    def third(tv, a, b):
        return next(int(v) for v in tv if v != a and v != b)

    def successor(a, b):
        t = adj.edge_tris[(a, b) if a < b else (b, a)][0]
        prev = a
        while True:
            c = third(tri.triangles[t], prev, b)
            nxt = adj.other_triangle((b, c) if b < c else (c, b), t)
            if nxt is None:
                return (b, c)
            t = nxt
            prev = c

    unused = {e for lst in out.values() for e in lst}
    loops = []
    while unused:
        start = min(unused)
        loop = [start[0]]
        cur = start
        while True:
            unused.discard(cur)
            nxt = successor(*cur)
            if nxt == start:
                break
            if nxt not in unused:
                raise MeshError("open boundary chain: boundary edges do not close")
            loop.append(nxt[0])
            cur = nxt
        loops.append(loop)
    return loops


def ref_detect(tri, adj, threshold_deg):
    normals = tri.triangle_normals()
    edges, angles = set(), {}
    for edge, ts in adj.edge_tris.items():
        if len(ts) == 1:
            edges.add(edge)
            angles[edge] = 0.0
            continue
        if len(ts) != 2:
            raise MeshError("non-manifold edge in feature detection")
        d = float(np.clip(np.dot(normals[ts[0]], normals[ts[1]]), -1.0, 1.0))
        ang = float(np.degrees(np.arccos(d)))
        if ang > threshold_deg:
            edges.add(edge)
            angles[edge] = ang
    return edges, angles


def ref_segment(tri, adj, feature_edges):
    pid = np.full(tri.n_triangles, -1, dtype=np.int64)
    n = 0
    for seed in range(tri.n_triangles):
        if pid[seed] >= 0:
            continue
        stack = [seed]
        pid[seed] = n
        while stack:
            t = stack.pop()
            a, b, c = (int(v) for v in tri.triangles[t])
            for u, v in ((a, b), (b, c), (c, a)):
                edge = (u, v) if u < v else (v, u)
                if edge in feature_edges:
                    continue
                o = adj.other_triangle(edge, t)
                if o is not None and pid[o] < 0:
                    pid[o] = n
                    stack.append(o)
        n += 1
    return pid, n


def ref_weld(raw_vertices, raw_triangles, tolerance=0.0):
    """Exact-equality dict weld; with a positive tolerance, single linkage:
    points at most `tolerance` apart share a vertex, and so do chains of
    such points.  A vertex is its group's first occurrence."""
    raw = np.asarray(raw_vertices, dtype=np.float64)
    group = list(range(len(raw)))

    def root(i):
        while group[i] != i:
            i = group[i]
        return i

    if tolerance > 0.0:
        for i in range(len(raw)):
            gap = raw[i + 1:] - raw[i]
            for j in i + 1 + np.flatnonzero((gap * gap).sum(axis=1) <= tolerance * tolerance):
                a, b = root(i), root(int(j))
                group[max(a, b)] = min(a, b)
    else:
        seen = {}
        for i, p in enumerate(raw):
            group[i] = seen.setdefault((float(p[0]), float(p[1]), float(p[2])), i)
    seen = {}
    index = np.empty(len(raw), dtype=np.int64)
    verts = []
    for i, p in enumerate(raw):
        r = root(i)
        if r not in seen:
            seen[r] = len(verts)
            verts.append(p)
        index[i] = seen[r]
    tris = index[np.asarray(raw_triangles, dtype=np.int64)]
    return np.asarray(verts, dtype=np.float64), tris


def _edge_map(tris):
    em = {}
    for t, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            em.setdefault(key, []).append(t)
    return em


def ref_default_threshold(patch):
    if patch.loops:
        lens = []
        for loop in patch.loops:
            pts = patch.tri.vertices[np.asarray(loop)]
            lens.append(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1))
        return float(np.concatenate(lens).mean())
    em = _edge_map([tuple(int(v) for v in t) for t in patch.tri.triangles])
    v = patch.tri.vertices
    return float(np.mean([np.linalg.norm(v[a] - v[b]) for a, b in em]))


def ref_bisection(patch, length_threshold=None, max_rounds=10):
    """Returns (vertices, triangles, global ids, model triangle of each
    triangle, (rounds, splits, max, converged))."""
    if length_threshold is None:
        length_threshold = ref_default_threshold(patch)
    verts = [tuple(v) for v in patch.tri.vertices]
    tris = [tuple(int(v) for v in t) for t in patch.tri.triangles]
    em = _edge_map(tris)
    gverts = list(int(g) for g in patch.global_vertices)
    parent = patch.triangle_ids.tolist()

    def length(edge):
        pa, pb = verts[edge[0]], verts[edge[1]]
        dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
        return float(np.sqrt((dx * dx + dy * dy) + dz * dz))

    def splittable(edge):
        return len(em[edge]) != 1

    def split(edge):
        a, b = edge
        pa, pb = verts[a], verts[b]
        mid = ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0, (pa[2] + pb[2]) / 2.0)
        m = len(verts)
        verts.append(mid)
        gverts.append(-1)
        for t in list(em.pop(edge)):
            ta, tb, tc = tris[t]
            for u, v, w in ((ta, tb, tc), (tb, tc, ta), (tc, ta, tb)):
                if {u, v} == {a, b}:
                    x, y, z = u, v, w
                    break
            for e2 in ((y, z), (z, x)):
                em[(e2[0], e2[1]) if e2[0] < e2[1] else (e2[1], e2[0])].remove(t)
            t1, t2 = (x, m, z), (m, y, z)
            tris[t] = t1
            tid2 = len(tris)
            tris.append(t2)
            parent.append(parent[t])
            for tid, tt in ((t, t1), (tid2, t2)):
                for u, v in ((tt[0], tt[1]), (tt[1], tt[2]), (tt[2], tt[0])):
                    em.setdefault((u, v) if u < v else (v, u), []).append(tid)

    n_splits = rounds = 0
    converged = False
    for rounds in range(1, max_rounds + 1):
        tagged = [e for e in em if splittable(e) and length(e) > length_threshold]
        if not tagged:
            rounds -= 1
            converged = True
            break
        tagged.sort(key=lambda e: (-length(e), e))
        for e in tagged:
            if e in em:
                split(e)
                n_splits += 1
    else:
        converged = not any(splittable(e) and length(e) > length_threshold for e in em)
    max_int = max((length(e) for e in em if len(em[e]) == 2), default=0.0)
    return (np.asarray(verts), np.asarray(tris, dtype=np.int64),
            np.asarray(gverts, dtype=np.int64), np.asarray(parent, dtype=np.int64),
            (rounds, n_splits, max_int, converged))


# -- cases ---------------------------------------------------------------------

CASES = [
    ("cube", cube),
    ("sphere", lambda: sphere(3)),
    ("torus", torus),
    ("cylinder", cylinder_shell),
    ("plate", concave_hole_plate),
] + [(f"disk{s}", lambda s=s: random_disk_fixture(s)) for s in range(8)]
IDS = [name for name, _ in CASES]
BUILDS = [build for _, build in CASES]


def _flipped_grid(flip):
    """A planar 4x2 grid of quads, two triangles each, with triangle `flip`
    wound the other way.  Triangle 5 has no boundary edge, triangle 4 has
    one."""
    v = np.array([[x, y, 0.0] for y in range(3) for x in range(5)])
    tris = []
    for j in range(2):
        for i in range(4):
            a, b = 5 * j + i, 5 * j + i + 1
            c, d = b + 5, a + 5
            tris += [[a, b, c], [a, c, d]]
    tris[flip] = tris[flip][::-1]
    return Triangulation(v, tris)


FLIPPED = [lambda: _flipped_grid(5), lambda: _flipped_grid(4)]


def _pinched_fans():
    """Two fans of two triangles that share only vertex 0, a pinch vertex
    that starts and ends two boundary half-edges."""
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                  [-1, 0, 0], [-1, -1, 0], [0, -1, 0]], dtype=float)
    return Triangulation(v, [[0, 1, 2], [0, 2, 3], [0, 4, 5], [0, 5, 6]])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MeshError as exc:
        return ("MeshError", str(exc))


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "build", BUILDS + FLIPPED + [_pinched_fans],
    ids=IDS + ["flipped-inner", "flipped-boundary", "pinch"],
)
def test_adjacency_and_loops_equal_dict_code(build):
    mesh = build()
    adj, ref = Adjacency(mesh), DictAdjacency(mesh)
    assert adj.edges.tolist() == [list(e) for e in sorted(ref.edge_tris)]
    ts = [ref.edge_tris[e] for e in sorted(ref.edge_tris)]
    assert adj.edge_count.tolist() == [len(t) for t in ts]
    assert adj.edge_tri.tolist() == [(t + [-1])[:2] for t in ts]
    edge_of = {e: i for i, e in enumerate(sorted(ref.edge_tris))}
    for h, (u, v) in enumerate(zip(mesh.triangles.ravel(),
                                   mesh.triangles[:, [1, 2, 0]].ravel())):
        assert adj.half_edge[h] == edge_of[(min(u, v), max(u, v))]
    assert adj.boundary_edges == ref.boundary_edges
    assert adj.is_manifold() == ref.is_manifold()
    assert adj.is_oriented() == ref.is_oriented()
    assert _outcome(boundary_loops, mesh, adj) == _outcome(ref_boundary_loops, mesh, ref)


def test_walk_ignores_orientation_as_the_dict_code_does():
    # `atlasmesh info` walks the loops of input that is not oriented; the
    # fan around vertex 2 crosses the flipped triangle 5
    mesh = _flipped_grid(5)
    assert not Adjacency(mesh).is_oriented()
    loops = boundary_loops(mesh, Adjacency(mesh))
    assert loops == ref_boundary_loops(mesh, DictAdjacency(mesh))
    assert loops == [[0, 1, 2, 3, 4, 9, 14, 13, 12, 11, 10, 5]]
    # a flipped triangle on the boundary breaks the chain in both
    mesh = _flipped_grid(4)
    for walk, adj in ((boundary_loops, Adjacency), (ref_boundary_loops, DictAdjacency)):
        with pytest.raises(MeshError, match="open boundary chain"):
            walk(mesh, adj(mesh))


@pytest.mark.parametrize("threshold", [5.0, 20.0, 40.0, 180.0])
@pytest.mark.parametrize("build", BUILDS, ids=IDS)
def test_features_and_segments_equal_dict_code(build, threshold):
    mesh = build()
    adj, ref = Adjacency(mesh), DictAdjacency(mesh)
    feats = detect_feature_edges(mesh, adj, threshold)
    edges, angles = ref_detect(mesh, ref, threshold)
    assert feats.edges == edges
    assert feats.angles == angles  # exact float equality
    seg = segment_patches(mesh, adj, feats)
    pid, n = ref_segment(mesh, ref, edges)
    assert seg.n_patches == n
    assert np.array_equal(seg.patch_of_triangle, pid)


def test_segments_are_numbered_by_smallest_triangle():
    # the torus split at 5 degrees has patches of 2 and of 48 triangles
    mesh = torus()
    adj = Adjacency(mesh)
    seg = segment_patches(mesh, adj, detect_feature_edges(mesh, adj, 5.0))
    firsts = [int(seg.triangles_of(p)[0]) for p in range(seg.n_patches)]
    assert firsts == sorted(firsts)
    sizes = [len(seg.triangles_of(p)) for p in range(seg.n_patches)]
    assert len(set(sizes)) > 1


def test_non_manifold_edge_still_raises_in_detection():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], dtype=float)
    mesh = Triangulation(v, [[0, 1, 2], [0, 3, 1], [0, 1, 4]])
    with pytest.raises(MeshError, match="non-manifold edge in feature detection"):
        ref_detect(mesh, DictAdjacency(mesh), 40.0)
    with pytest.raises(MeshError, match="non-manifold edge in feature detection"):
        detect_feature_edges(mesh, Adjacency(mesh), 40.0)


@pytest.mark.parametrize("tolerance", [0.0, 1e-6, 0.05, 0.2])
@pytest.mark.parametrize("build", BUILDS, ids=IDS)
def test_weld_equals_dict_code(build, tolerance):
    mesh = build()
    raw = mesh.vertices[mesh.triangles].reshape(-1, 3)
    tris = np.arange(len(raw)).reshape(-1, 3)
    v, t = _weld(raw, tris, tolerance)
    rv, rt = ref_weld(raw, tris, tolerance)
    assert np.array_equal(_bits(v), _bits(rv))
    assert np.array_equal(t, rt)


def test_weld_merges_signed_zeros_and_keeps_the_first():
    raw = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0 + 1e-9]])
    tris = np.array([[0, 2, 3], [1, 3, 2], [4, 5, 2]])
    for tolerance in (0.0, 1e-6):
        v, t = _weld(raw, tris, tolerance)
        rv, rt = ref_weld(raw, tris, tolerance)
        assert np.array_equal(_bits(v), _bits(rv))
        assert np.array_equal(t, rt)
    v, t = _weld(raw, tris)
    assert len(v) == 5 and t[0, 0] == t[1, 0]
    assert np.signbit(v[0, 2])  # the first occurrence's -0.0 is kept


def test_weld_merges_by_distance_not_by_grid_cell():
    # 2e-8 apart across a grid line at 1e-6 ...
    raw = np.array([[0.49e-6, 0.0, 0.0], [0.51e-6, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0], [1.49e-6, 0.0, 0.0], [3.0e-6, 0.0, 0.0]])
    tris = np.array([[0, 2, 3], [1, 3, 2], [4, 5, 3]])
    v, t = _weld(raw, tris, 1e-6)
    # ... and 0.98e-6 apart within one cell merge alike; the chain
    # 0.49e-6 - 0.51e-6 - 1.49e-6 is one vertex, 3e-6 stays apart
    assert t.tolist() == [[0, 1, 2], [0, 2, 1], [0, 3, 2]]
    assert np.array_equal(v, raw[[0, 2, 3, 5]])
    rv, rt = ref_weld(raw, tris, 1e-6)
    assert np.array_equal(_bits(v), _bits(rv)) and np.array_equal(t, rt)


# "-False": boundary edges are not split; the suffix keeps these ids
# comparable with earlier runs of the suite
@pytest.mark.parametrize("build", BUILDS, ids=[f"{name}-False" for name in IDS])
def test_bisection_equals_dict_code(build):
    patch = Patch(build(), np.arange(build().n_triangles))
    assert default_threshold(patch) == ref_default_threshold(patch)
    half = 0.5 * ref_default_threshold(patch)
    for thr, rounds in ((None, 10), (half, 3), (half, 1), (half, 0)):
        refined, rep = longest_edge_bisection(patch, length_threshold=thr, max_rounds=rounds)
        v, t, g, p, report = ref_bisection(patch, length_threshold=thr, max_rounds=rounds)
        assert np.array_equal(_bits(refined.tri.vertices), _bits(v))
        # the same triangles in the same model triangles; their numbering
        # is not part of the result
        rows = np.column_stack([refined.tri.triangles, refined.triangle_ids]).tolist()
        assert len(rows) == len(t)
        assert set(map(tuple, rows)) == set(map(tuple, np.column_stack([t, p]).tolist()))
        assert np.array_equal(refined.global_vertices, g)
        assert (rep.rounds, rep.splits, rep.max_interior_edge, rep.converged) == report
