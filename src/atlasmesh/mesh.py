"""Core triangulation container: adjacency, validation, topology."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(Exception):
    """Raised for invalid or unusable mesh input."""


class Triangulation:
    """An indexed triangle surface in 3D.

    Parameters
    ----------
    vertices : array_like
        (n, 3) float coordinates.
    triangles : array_like
        (m, 3) integer vertex indices, counter-clockwise when seen from
        the outward normal side.
    patch_tags : array_like, optional
        (m,) integer patch id per triangle.
    """

    def __init__(self, vertices, triangles, patch_tags=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64).reshape(-1, 3)
        if patch_tags is not None:
            patch_tags = np.ascontiguousarray(patch_tags, dtype=np.int64)
            if patch_tags.shape != (len(self.triangles),):
                raise MeshError("patch_tags must have one entry per triangle")
        self.patch_tags = patch_tags
        if len(self.triangles):
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise MeshError("triangle vertex index out of range")
            same = (
                (self.triangles[:, 0] == self.triangles[:, 1])
                | (self.triangles[:, 1] == self.triangles[:, 2])
                | (self.triangles[:, 0] == self.triangles[:, 2])
            )
            if same.any():
                raise MeshError("triangle with repeated vertex index")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite coordinate")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def bbox_diagonal(self):
        if not len(self.vertices):
            return 0.0
        ext = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(ext))

    def triangle_corners(self):
        """(m, 3, 3) corner coordinates."""
        return self.vertices[self.triangles]

    def triangle_normals(self):
        """(m, 3) unit normals; a zero-area triangle's normal is 0."""
        p = self.triangle_corners()
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        lens = np.linalg.norm(n, axis=1)
        lens[lens == 0.0] = 1.0
        return n / lens[:, None]

    def triangle_areas(self):
        p = self.triangle_corners()
        return 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
        )

    def total_area(self):
        return float(self.triangle_areas().sum())


def first_occurrence(keys):
    """Number equal keys by their first occurrence.

    `keys` is (n,) or (n, k); rows compare by value, so +0.0 and -0.0 are
    equal.  Returns (first, index): the position of each distinct key's
    first occurrence, ascending, and per key the rank of its first
    occurrence among them, so keys[first][index] equals keys.
    """
    cols = np.column_stack([keys])  # (n, k); (n,) keys are one column
    order = np.lexsort(cols.T)  # stable: each run of equal rows starts at its first occurrence
    new = np.ones(len(cols), dtype=bool)
    new[1:] = (cols[order[1:]] != cols[order[:-1]]).any(axis=1)
    first = order[new]
    index = np.empty(len(cols), dtype=np.int64)
    index[order] = np.argsort(np.argsort(first))[np.cumsum(new) - 1]
    return np.sort(first), index


def stable_order(keys):
    """np.argsort(keys, kind="stable") for integer keys in [0, 2**32).

    Two stable 16-bit passes, low half then high half, each a radix sort
    in numpy: linear time, where the int64 stable sort is a timsort.
    """
    keys = np.asarray(keys)
    low = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    return low[np.argsort((keys[low] >> 16).astype(np.uint16), kind="stable")]


def signed_uv_areas(triangles, uv):
    """(m,) signed areas of 2D triangles, positive when counter-clockwise."""
    t = np.asarray(triangles, dtype=np.int64)
    p = np.asarray(uv, dtype=np.float64)[t]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


class Adjacency:
    """Edge connectivity of a triangulation, as arrays over sorted edges.

    Half-edge `3t+k` runs from `triangles[t, k]` to `triangles[t, (k+1) % 3]`;
    orientation is recovered from it.

    Attributes
    ----------
    edges : ndarray
        (E, 2) sorted vertex pairs, in ascending order.
    half_edge : ndarray
        (3m,) edge id of each half-edge.
    edge_count : ndarray
        (E,) number of half-edges (triangles) on each edge.
    edge_tri : ndarray
        (E, 2) the first two triangles of each edge, in ascending id, with
        -1 where there is none.
    misoriented : ndarray
        (E,) True where both triangles of a two-triangle edge traverse it
        in the same direction.
    has_boundary : bool
        True when some edge has one triangle.
    """

    def __init__(self, tri: Triangulation):
        n = max(tri.n_vertices, 1)
        src = tri.triangles.ravel()
        dst = tri.triangles[:, [1, 2, 0]].ravel()
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")  # by edge, then by triangle id
        first = np.flatnonzero(np.diff(key[order], prepend=-1))  # each edge's first
        self.edge_count = np.diff(first, append=len(order))
        self.half_edge = np.empty_like(order)
        self.half_edge[order] = np.repeat(np.arange(len(first)), self.edge_count)
        self.edges = np.column_stack(np.divmod(key[order[first]], n))
        two = self.edge_count >= 2
        self.edge_tri = np.full((len(first), 2), -1, dtype=np.int64)
        self.edge_tri[:, 0] = order[first] // 3
        self.edge_tri[two, 1] = order[first[two] + 1] // 3
        self._manifold = bool((self.edge_count <= 2).all())
        # the two triangles of an oriented edge traverse it in opposite directions
        forward = np.bincount(self.half_edge, weights=src < dst, minlength=len(first))
        self.misoriented = (self.edge_count == 2) & (forward != 1)
        self._oriented = self._manifold and not self.misoriented.any()
        self.has_boundary = bool((self.edge_count == 1).any())

    @property
    def n_edges(self):
        return len(self.edges)

    def is_manifold(self):
        return self._manifold

    def is_oriented(self):
        return self._oriented


@dataclass
class ValidationReport:
    manifold: bool
    oriented: bool
    watertight: bool
    boundary_loop_count: int
    degenerate_triangles: list = field(default_factory=list)
    duplicate_triangles: list = field(default_factory=list)

    @property
    def ok(self):
        return (self.manifold and self.oriented and not self.degenerate_triangles
                and not self.duplicate_triangles)


@dataclass
class TopologyInfo:
    """Vertex/edge/triangle counts with boundary and genus data."""

    p: int
    e: int
    t: int
    b: int
    h: int
    g: int

    def formula_residual(self):
        """Difference between t and its value predicted from p, b, h, g."""
        return self.t - (2 * (self.p - 1) + 2 * (self.b - 1) - self.h + 4 * self.g)


def boundary_loops(tri: Triangulation, adj: Adjacency):
    """Extract boundary loops as ordered vertex cycles.

    Each directed boundary edge is oriented as traversed by its unique
    triangle, so loops wind consistently with the surface (surface to the
    left).  A loop starts at the smallest unused directed boundary edge.
    On an oriented patch, the successor of a directed edge (a, b) is the
    one boundary edge leaving b, where b has exactly one.  Elsewhere (at
    pinch vertices shared by several loops, and on unoriented input) it
    is found by rotating around b through the triangle fan, each step
    crossing the edge from b to the vertex that is neither b nor the
    previous one; this needs no consistent orientation of the fan.
    """
    tris, he, count = tri.triangles, adj.half_edge, adj.edge_count

    def ends(h):
        t, k = divmod(h, 3)
        tv = tris[t].tolist()
        return tv[k], tv[(k + 1) % 3]

    def successor(h):
        # walk the fan around b, starting from the triangle of (a, b)
        t = h // 3
        prev, b = ends(h)
        while True:
            tv = tris[t].tolist()
            k = (tv.index(prev) + 1) % 3  # the half-edge of t opposite prev
            c = tv[0] + tv[1] + tv[2] - prev - b
            h = 3 * t + k
            e = he[h]
            if count[e] != 2:
                return (b, c), h
            t0, t1 = adj.edge_tri[e].tolist()
            t = t0 if t1 == t else t1
            prev = c

    bnd = np.flatnonzero(count[he] == 1)  # boundary half-edges, by position
    src = tris.ravel()[bnd]
    dst = tris[:, [1, 2, 0]].ravel()[bnd]
    succ = np.full(len(bnd), -1)
    if adj.is_oriented():
        leaving = np.full(tri.n_vertices, -1)
        leaving[src] = np.arange(len(bnd))
        one = np.bincount(src, minlength=tri.n_vertices)[dst] == 1
        succ[one] = leaving[dst[one]]
    succ, head = succ.tolist(), src.tolist()
    used = [False] * len(bnd)
    loops = []
    for start in np.lexsort((dst, src)).tolist():
        if used[start]:
            continue
        loop, cur = [], start
        while True:
            used[cur] = True
            loop.append(head[cur])
            nxt = succ[cur]
            if nxt < 0:
                pair, h = successor(int(bnd[cur]))
                # (b, c) must be a boundary edge that its triangle
                # traverses from b to c
                if count[he[h]] == 1 and ends(h) == pair:
                    nxt = int(np.searchsorted(bnd, h))
            if nxt == start:
                break
            if nxt < 0 or used[nxt]:
                raise MeshError("open boundary chain: boundary edges do not close")
            cur = nxt
        loops.append(loop)
    return loops


def validate(tri: Triangulation, adj: Adjacency | None = None) -> ValidationReport:
    """Report manifoldness, orientation, watertightness, degenerate
    triangles and duplicates: triangles on the same three vertices."""
    if adj is None:
        adj = Adjacency(tri)
    manifold = adj.is_manifold()
    oriented = adj.is_oriented()
    watertight = manifold and oriented and not adj.has_boundary
    nloops = 0
    if manifold and oriented and adj.has_boundary:
        nloops = len(boundary_loops(tri, adj))
    scale = tri.bbox_diagonal()
    thresh = 1e-14 * scale * scale
    degen = np.nonzero(tri.triangle_areas() < thresh)[0].tolist()
    _, index = first_occurrence(np.sort(tri.triangles, axis=1))
    dup = np.flatnonzero(np.bincount(index)[index] > 1).tolist()
    return ValidationReport(manifold, oriented, watertight, nloops, degen, dup)


def euler_check(tri: Triangulation, adj: Adjacency | None = None, loops=None):
    """Topology counts of a manifold patch and its parametrizability.

    Returns (TopologyInfo, parametrizable).  The genus comes from the
    Euler characteristic; the patch maps one-to-one onto the disk iff
    g == 0 and it has at least one boundary loop.  `loops`, when given,
    are the boundary loops of `adj` already walked by the caller.
    """
    if adj is None:
        adj = Adjacency(tri)
    if not adj.is_manifold():
        raise MeshError("non-manifold patch")
    p = tri.n_vertices
    e = adj.n_edges
    t = tri.n_triangles
    if loops is None:
        loops = boundary_loops(tri, adj) if adj.has_boundary else []
    b = len(loops)
    h = sum(len(l) for l in loops)
    chi = p - e + t
    g2 = 2 - b - chi
    if g2 < 0 or g2 % 2:
        raise MeshError("inconsistent Euler characteristic (non-orientable input?)")
    info = TopologyInfo(p=p, e=e, t=t, b=b, h=h, g=g2 // 2)
    parametrizable = info.g == 0 and info.b >= 1
    return info, parametrizable
