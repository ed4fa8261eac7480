"""Longest-edge bisection pre-refinement.

Splits never move existing vertices: every new vertex is the exact
midpoint of a surface edge, so the geometry (and total area) is
unchanged and the refined patch still lies on the input triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Adjacency, MeshError, Triangulation
from .patch import Patch


@dataclass
class RefineReport:
    rounds: int
    splits: int
    max_interior_edge: float
    converged: bool


def _lengths(vertices, a, b):
    """Lengths of the edges from vertices `a` to vertices `b`.

    Squares are taken with `**` (libm pow) on Python floats, not with
    `x * x`: the two round about one square in a thousand differently,
    and the lengths order the splits.
    """
    d = (vertices[a] - vertices[b]).ravel().tolist()
    sq = np.array([x ** 2 for x in d]).reshape(-1, 3)
    return np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])


def default_threshold(patch: Patch):
    """Mean boundary-edge length; falls back to mean edge length if closed."""
    if patch.loops:
        lens = []
        for loop in patch.loops:
            pts = patch.tri.vertices[np.asarray(loop)]
            lens.append(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1))
        return float(np.concatenate(lens).mean())
    # edges in order of first occurrence in the triangle list, each length
    # sqrt(d @ d) as np.linalg.norm takes it for one vector
    _, first = np.unique(patch.adj.half_edge, return_index=True)
    e = patch.adj.edges[np.argsort(first)]
    d = patch.tri.vertices[e[:, 0]] - patch.tri.vertices[e[:, 1]]
    return float(np.mean(np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])))


def _bisect(tris, side, mid):
    """Bisect in place each row (x, y, z) of `tris` whose `mid` is set.

    The split side (x, y) starts at corner `side` of the row.  The row
    becomes (x, m, z); returns the other halves (m, y, z) and the rows
    they came from.
    """
    r = np.nonzero(mid >= 0)[0]
    k = (side[r] if np.ndim(side) else side) + np.arange(3)[:, None]
    x, y, z = tris[r, k % 3]
    m = mid[r]
    tris[r] = np.column_stack([x, m, z])
    return np.column_stack([m, y, z]), r


def longest_edge_bisection(
    patch: Patch,
    length_threshold=None,
    max_rounds=10,
    split_boundary=True,
):
    """Split long edges in rounds until interior edges fit the threshold.

    Each round takes the edges longer than the threshold and numbers
    their midpoints longest first, ties by vertex pair.  Every triangle
    with a midpoint is bisected along its lowest-numbered one; each half
    then holds at most one more midpoint and is bisected along it.  Both
    triangles of a split edge are bisected, so no hanging nodes appear.
    With split_boundary=False boundary edges are never split.  The patch
    must be edge-manifold.  The numbering of the refined triangles is
    not part of the result.

    Returns (refined Patch, RefineReport).
    """
    if length_threshold is None:
        length_threshold = default_threshold(patch)
    if not 0.0 < length_threshold < np.inf:
        raise MeshError(
            f"refinement threshold must be finite and positive, got {length_threshold}"
        )
    if max_rounds < 0:
        raise MeshError(f"refinement rounds must be at least 0, got {max_rounds}")
    verts, tris, adj = patch.tri.vertices, patch.tri.triangles.copy(), patch.adj
    if not adj.is_manifold():
        raise MeshError("refinement needs an edge-manifold patch")

    for rounds in range(max_rounds + 1):
        lengths = _lengths(verts, adj.edges[:, 0], adj.edges[:, 1])
        long = lengths > length_threshold
        if not split_boundary:
            long &= adj.edge_count == 2
        if rounds == max_rounds or not long.any():
            break
        # edge ids ascend by vertex pair, so a stable sort breaks ties by it
        tagged = np.nonzero(long)[0]
        tagged = tagged[np.argsort(-lengths[tagged], kind="stable")]
        mid = np.full(len(long), -1)
        mid[tagged] = len(verts) + np.arange(len(tagged))
        a, b = adj.edges[tagged].T
        verts = np.concatenate([verts, (verts[a] + verts[b]) / 2.0])
        # m3[t, k]: the midpoint on the side from corner k of triangle t
        m3 = mid[adj.half_edge.reshape(-1, 3)]
        j = np.where(m3 < 0, len(verts), m3).argmin(axis=1)
        t = np.arange(len(tris))
        halves, r = _bisect(tris, j, m3[t, j])
        # (x, m, z) may still hold (z, x) as its side 2, (m, y, z) may
        # hold (y, z) as its side 1
        quarters, _ = _bisect(tris, 2, m3[t, (j + 2) % 3])
        rest, _ = _bisect(halves, 1, m3[r, (j[r] + 1) % 3])
        tris = np.concatenate([tris, halves, quarters, rest])
        adj = Adjacency(Triangulation(verts, tris))

    inner = adj.edge_count == 2
    max_int = float(lengths[inner].max()) if inner.any() else 0.0
    # each split adds one midpoint
    n_new = len(verts) - patch.tri.n_vertices
    refined = Patch.from_local(
        verts, tris,
        np.concatenate([patch.global_vertices, np.full(n_new, -1, dtype=np.int64)]),
    )
    return refined, RefineReport(
        rounds=rounds, splits=n_new, max_interior_edge=max_int,
        converged=not long.any(),
    )
