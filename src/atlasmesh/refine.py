"""Longest-edge bisection pre-refinement (Rivara, IJNME 1984).

Splits never move existing vertices: every new vertex is the exact
midpoint of an interior surface edge, so the geometry (and total area)
is unchanged, the refined patch still lies on the input triangulation,
and its boundary is the input patch's, shared with its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Adjacency, MeshError, Triangulation
from .param import loop_lengths
from .patch import Patch


@dataclass
class RefineReport:
    rounds: int
    splits: int
    max_interior_edge: float
    converged: bool


def _lengths(vertices, a, b):
    """Lengths of the edges from vertices `a` to vertices `b`.

    Squares are `d * d`, correctly rounded on every platform (a libm
    `pow` may not be), because the lengths order the splits.
    """
    d = vertices[a] - vertices[b]
    sq = d * d
    return np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2])


def default_threshold(patch: Patch):
    """Mean boundary-edge length; falls back to mean edge length if closed."""
    if patch.loops:
        return float(np.concatenate([loop_lengths(patch, lp) for lp in patch.loops]).mean())
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


def longest_edge_bisection(patch: Patch, length_threshold=None, max_rounds=10):
    """Split long interior edges in rounds until they fit the threshold.

    Each round takes the interior edges longer than the threshold and
    numbers their midpoints longest first, ties by vertex pair.  Every
    triangle with a midpoint is bisected along its lowest-numbered one;
    each half then holds at most one more midpoint and is bisected along
    it.  Both triangles of a split edge are bisected, so no hanging nodes
    appear.  Boundary edges are never split, so the refined patch keeps
    the input's boundary loops, in the same local vertex ids.  The patch
    must be edge-manifold.  The numbering of the refined triangles is
    not part of the result; each carries the model triangle it lies in
    as its `triangle_ids` entry.

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
    tri, adj, parent = patch.tri, patch.adj, patch.triangle_ids
    if not adj.is_manifold():
        raise MeshError("refinement needs an edge-manifold patch")

    for rounds in range(max_rounds + 1):
        lengths = _lengths(tri.vertices, adj.edges[:, 0], adj.edges[:, 1])
        long = (lengths > length_threshold) & (adj.edge_count == 2)
        if rounds == max_rounds or not long.any():
            break
        # edge ids ascend by vertex pair, so a stable sort breaks ties by it
        tagged = np.nonzero(long)[0]
        tagged = tagged[np.argsort(-lengths[tagged], kind="stable")]
        mid = np.full(len(long), -1)
        mid[tagged] = tri.n_vertices + np.arange(len(tagged))
        a, b = adj.edges[tagged].T
        verts = np.concatenate([tri.vertices, (tri.vertices[a] + tri.vertices[b]) / 2.0])
        tris = tri.triangles.copy()
        # m3[t, k]: the midpoint on the side from corner k of triangle t
        m3 = mid[adj.half_edge.reshape(-1, 3)]
        j = np.where(m3 < 0, len(verts), m3).argmin(axis=1)
        t = np.arange(len(tris))
        halves, r = _bisect(tris, j, m3[t, j])
        # (x, m, z) may still hold (z, x) as its side 2, (m, y, z) may
        # hold (y, z) as its side 1
        quarters, q = _bisect(tris, 2, m3[t, (j + 2) % 3])
        rest, s = _bisect(halves, 1, m3[r, (j[r] + 1) % 3])
        tris = np.concatenate([tris, halves, quarters, rest])
        parent = np.concatenate([parent, parent[r], parent[q], parent[r[s]]])
        tri = Triangulation(verts, tris)
        adj = Adjacency(tri)

    inner = adj.edge_count == 2
    max_int = float(lengths[inner].max()) if inner.any() else 0.0
    # each split adds one midpoint
    n_new = tri.n_vertices - patch.tri.n_vertices
    refined = Patch._refined(
        tri, adj, patch.loops,
        np.concatenate([patch.global_vertices, np.full(n_new, -1, dtype=np.int64)]),
        parent,
    )
    return refined, RefineReport(
        rounds=rounds, splits=n_new, max_interior_edge=max_int,
        converged=not long.any(),
    )
