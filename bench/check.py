"""Independent checks of a remeshed surface against the surface it came from.

Uses numpy only: the output `.msh` is read by its own parser here and no
atlasmesh code is called, so a fault in the program's own validation or
quality code cannot hide a fault in its output.
"""

from __future__ import annotations

import numpy as np

ON_SURFACE = 1e-12  # vertex-to-input distance, times the input bbox diagonal
# Planar-faced models: relative output-vs-input area difference, and
# centroid-to-input distance times the bbox diagonal.  A float64 input
# keeps its rotated faces flat and its edges straight to rounding; a
# float32 STL input only to about 1e-7 of its size, which the output's
# chords across the kinks then show.
PLANAR_F64 = 1e-12
PLANAR_F32 = 1e-6
MIN_AREA = 1e-14  # smallest accepted triangle area, times diagonal squared


def parse_msh(path):
    """(vertices, triangles) of a Gmsh 4.1 text file; triangles 0-based."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    tags, coords, tris = [], [], []
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "$Nodes":
            nblocks = int(lines[i].split()[0])
            i += 1
            for _ in range(nblocks):
                cnt = int(lines[i].split()[3])
                i += 1
                tags.extend(int(s) for s in lines[i:i + cnt])
                coords.extend(lines[i + cnt:i + 2 * cnt])
                i += 2 * cnt
        elif line == "$Elements":
            nblocks = int(lines[i].split()[0])
            i += 1
            for _ in range(nblocks):
                _dim, _tag, etype, cnt = (int(s) for s in lines[i].split())
                i += 1
                if etype == 2:
                    tris.extend(lines[i:i + cnt])
                i += cnt
    if not tags or not tris:
        raise ValueError(f"{path}: no nodes or no triangles")
    xyz = np.array([c.split() for c in coords], dtype=np.float64)
    node_tags = np.asarray(tags, dtype=np.int64)
    order = np.argsort(node_tags)
    elems = np.array([t.split()[1:4] for t in tris], dtype=np.int64)
    pos = np.searchsorted(node_tags[order], elems)
    if (pos >= len(order)).any() or (node_tags[order][np.minimum(pos, len(order) - 1)] != elems).any():
        raise ValueError(f"{path}: triangle names an unknown node")
    return xyz, order[pos]


def bbox_diagonal(verts):
    return float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))


def normals(verts, tris):
    p = verts[tris]
    return np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def _pair_distance(q, p):
    """Distance from points q (n, 3) to triangles p (n, 3, 3), pairwise.

    The closest point is either the plane projection, when it falls inside
    the triangle, or the closest point of one of the three edges.
    """
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nlen = np.linalg.norm(n, axis=1)
    nhat = n / np.where(nlen > 0.0, nlen, 1.0)[:, None]
    inside = nlen > 0.0
    edge = np.full(len(q), np.inf)
    for k in range(3):
        s = p[:, k]
        e = p[:, (k + 1) % 3] - s
        r = q - s
        inside &= np.einsum("ij,ij->i", np.cross(e, r), nhat) >= 0.0
        t = np.einsum("ij,ij->i", r, e) / np.maximum(np.einsum("ij,ij->i", e, e), 1e-300)
        t = np.clip(t, 0.0, 1.0)
        edge = np.minimum(edge, np.linalg.norm(r - t[:, None] * e, axis=1))
    plane = np.abs(np.einsum("ij,ij->i", q - p[:, 0], nhat))
    return np.where(inside, np.minimum(plane, edge), edge)


def nearest_triangles(points, verts, tris):
    """Distance from each point to the triangle set, and the nearest triangle.

    Bounding spheres prune the pairs: a triangle is measured exactly only
    when its sphere could hold a point closer than the best upper bound.
    """
    p = verts[tris]
    centre = p.mean(axis=1)
    radius = np.linalg.norm(p - centre[:, None], axis=2).max(axis=1)
    slack = 1e-9 * (np.abs(verts).max() + 1.0)
    pairs_i, pairs_t = [], []
    step = max(1, 1_000_000 // len(tris))
    for s in range(0, len(points), step):
        q = points[s:s + step]
        dc = np.linalg.norm(q[:, None, :] - centre[None, :, :], axis=2)
        upper = (dc + radius).min(axis=1)
        i, t = np.nonzero(dc - radius <= upper[:, None] + slack)
        pairs_i.append(i + s)
        pairs_t.append(t)
    pi = np.concatenate(pairs_i)
    pt = np.concatenate(pairs_t)
    d = _pair_distance(points[pi], p[pt])
    order = np.lexsort((pt, d, pi))  # per point: nearest, then lowest id
    first = order[np.r_[True, pi[order][1:] != pi[order][:-1]]]
    return d[first], pt[first]


def topology(tris):
    """(Euler characteristic, boundary loops, manifold, oriented)."""
    half = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    und = np.sort(half, axis=1)
    edges, count = np.unique(und, axis=0, return_counts=True)
    directed = np.unique(half, axis=0)
    manifold = bool(count.max() <= 2)
    oriented = len(directed) == len(half)
    nverts = len(np.unique(tris))
    chi = nverts - len(edges) + len(tris)
    loops = _boundary_components(edges[count == 1])
    return chi, loops, manifold, oriented


def _boundary_components(bedges):
    if len(bedges) == 0:
        return 0
    verts, idx = np.unique(bedges, return_inverse=True)
    parent = np.arange(len(verts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in idx.reshape(-1, 2):
        parent[find(a)] = find(b)
    return len({find(x) for x in range(len(verts))})


def signed_volume(verts, tris):
    p = verts[tris]
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


def triangle_min_angles(verts, tris):
    """Smallest interior angle of each triangle, in degrees."""
    p = verts[tris]
    worst = np.full(len(tris), np.pi)
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        c = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        worst = np.minimum(worst, np.arccos(np.clip(c, -1.0, 1.0)))
    return np.degrees(worst)


def check_surface(out_v, out_t, model, float32_input=False):
    """Every property the output must have; returns a list of failures."""
    in_v, in_t = model.vertices, model.triangles
    diag = bbox_diagonal(in_v)
    bad = []
    if out_t.min() < 0 or out_t.max() >= len(out_v):
        return ["triangle index out of range"]
    if (out_t[:, 0] == out_t[:, 1]).any() or (out_t[:, 1] == out_t[:, 2]).any() \
            or (out_t[:, 2] == out_t[:, 0]).any():
        bad.append("triangle with a repeated vertex")

    used = np.unique(out_t)
    dist, _ = nearest_triangles(out_v[used], in_v, in_t)
    if dist.max() > ON_SURFACE * diag:
        bad.append("vertex %.3g off the input (limit %.3g)"
                   % (dist.max(), ON_SURFACE * diag))

    chi, loops, manifold, oriented = topology(out_t)
    if not manifold:
        bad.append("non-manifold edge")
    if not oriented:
        bad.append("inconsistent orientation")
    n_out = normals(out_v, out_t)
    area = 0.5 * np.linalg.norm(n_out, axis=1)
    if area.min() <= MIN_AREA * diag * diag:
        bad.append("zero-area triangle (%.3g)" % area.min())
    in_chi, in_loops, _, _ = topology(in_t)
    if (chi, loops) != (in_chi, in_loops):
        bad.append("topology chi=%d loops=%d, input chi=%d loops=%d"
                   % (chi, loops, in_chi, in_loops))

    centroids = out_v[out_t].mean(axis=1)
    cdist, near = nearest_triangles(centroids, in_v, in_t)
    n_in = normals(in_v, in_t)
    folded = np.einsum("ij,ij->i", n_out, n_in[near]) <= 0.0
    if folded.any():
        bad.append("%d triangles face away from the input" % int(folded.sum()))

    if model.closed:
        if np.sign(signed_volume(out_v, out_t)) != np.sign(signed_volume(in_v, in_t)):
            bad.append("signed volume changed sign")

    if model.planar_faces:
        in_area = 0.5 * np.linalg.norm(n_in, axis=1).sum()
        rel = abs(area.sum() - in_area) / in_area
        limit = PLANAR_F32 if float32_input else PLANAR_F64
        if rel > limit:
            bad.append("area differs from the input by %.3g (relative)" % rel)
        if cdist.max() > limit * diag:
            bad.append("centroid %.3g off the input (limit %.3g)"
                       % (cdist.max(), limit * diag))
    return bad
