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

    def triangle_normals(self, normalize=True):
        p = self.triangle_corners()
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        if normalize:
            lens = np.linalg.norm(n, axis=1)
            lens[lens == 0.0] = 1.0
            n = n / lens[:, None]
        return n

    def triangle_areas(self):
        p = self.triangle_corners()
        return 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
        )

    def total_area(self):
        return float(self.triangle_areas().sum())


class Adjacency:
    """Edge and star connectivity of a triangulation.

    Edges are keyed by sorted vertex pair.  Orientation is recovered from
    the triangle winding: a directed edge (a, b) belongs to the triangle
    that traverses a then b.
    """

    def __init__(self, tri: Triangulation):
        edge_tris: dict[tuple[int, int], list[int]] = {}
        directed: dict[tuple[int, int], list[int]] = {}
        stars: list[list[int]] = [[] for _ in range(tri.n_vertices)]
        for t, (a, b, c) in enumerate(tri.triangles):
            a, b, c = int(a), int(b), int(c)
            stars[a].append(t)
            stars[b].append(t)
            stars[c].append(t)
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                edge_tris.setdefault(key, []).append(t)
                directed.setdefault((u, v), []).append(t)
        self.edge_tris = edge_tris
        self.directed = directed
        self.vertex_stars = stars
        self.boundary_edges = {e for e, ts in edge_tris.items() if len(ts) == 1}

    @property
    def n_edges(self):
        return len(self.edge_tris)

    def is_manifold(self):
        return all(len(ts) <= 2 for ts in self.edge_tris.values())

    def is_oriented(self):
        # consistent orientation: no directed edge is traversed twice
        return all(len(ts) == 1 for ts in self.directed.values())

    def other_triangle(self, edge, t):
        ts = self.edge_tris[edge]
        if len(ts) != 2:
            return None
        return ts[0] if ts[1] == t else ts[1]


@dataclass
class ValidationReport:
    manifold: bool
    oriented: bool
    watertight: bool
    boundary_loop_count: int
    degenerate_triangles: list = field(default_factory=list)

    @property
    def ok(self):
        return self.manifold and self.oriented and not self.degenerate_triangles


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


def _third_vertex(tri_verts, a, b):
    for v in tri_verts:
        if v != a and v != b:
            return int(v)
    raise MeshError("degenerate triangle connectivity")


def boundary_loops(tri: Triangulation, adj: Adjacency):
    """Extract boundary loops as ordered vertex cycles.

    Each directed boundary edge is oriented as traversed by its unique
    triangle, so loops wind consistently with the surface (surface to the
    left).  The successor of a directed edge is found by rotating around
    its end vertex through the triangle fan, which stays correct at pinch
    vertices shared by several loops.
    """
    out: dict[int, list[tuple[int, int]]] = {}
    for (u, v), ts in adj.directed.items():
        key = (u, v) if u < v else (v, u)
        if len(adj.edge_tris[key]) == 1:
            out.setdefault(u, []).append((u, v))

    def successor(a, b):
        # walk the fan around b, starting from triangle of (a, b)
        key = (a, b) if a < b else (b, a)
        t = adj.edge_tris[key][0]
        prev = a
        while True:
            c = _third_vertex(tri.triangles[t], prev, b)
            key2 = (b, c) if b < c else (c, b)
            nxt = adj.other_triangle(key2, t)
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


def validate(tri: Triangulation, adj: Adjacency | None = None) -> ValidationReport:
    """Report manifoldness, orientation, watertightness and degeneracies."""
    if adj is None:
        adj = Adjacency(tri)
    manifold = adj.is_manifold()
    oriented = adj.is_oriented()
    watertight = manifold and oriented and not adj.boundary_edges
    nloops = 0
    if manifold and oriented and adj.boundary_edges:
        nloops = len(boundary_loops(tri, adj))
    scale = tri.bbox_diagonal()
    thresh = 1e-14 * scale * scale
    degen = np.nonzero(tri.triangle_areas() < thresh)[0].tolist()
    return ValidationReport(manifold, oriented, watertight, nloops, degen)


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
        loops = boundary_loops(tri, adj) if adj.boundary_edges else []
    b = len(loops)
    h = sum(len(l) for l in loops)
    chi = p - e + t
    g2 = 2 - b - chi
    if g2 < 0 or g2 % 2:
        raise MeshError("inconsistent Euler characteristic (non-orientable input?)")
    info = TopologyInfo(p=p, e=e, t=t, b=b, h=h, g=g2 // 2)
    parametrizable = info.g == 0 and info.b >= 1
    return info, parametrizable
