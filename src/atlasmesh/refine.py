"""Longest-edge bisection pre-refinement.

Splits never move existing vertices: every new vertex is the exact
midpoint of a surface edge, so the geometry (and total area) is
unchanged and the refined patch still lies on the input triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError
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


def longest_edge_bisection(
    patch: Patch,
    length_threshold=None,
    max_rounds=10,
    split_boundary=True,
):
    """Split long edges, longest first, until interior edges fit the threshold.

    Each round tags the currently long edges, sorts them by length
    descending and splits them in that order; both triangles adjacent to
    a split edge are bisected so no hanging nodes appear.  With
    split_boundary=False boundary edges are never split.  The patch must
    be edge-manifold.

    Returns (refined Patch, RefineReport).
    """
    if length_threshold is None:
        length_threshold = default_threshold(patch)
    if not 0.0 < length_threshold < np.inf:
        raise MeshError(
            f"refinement threshold must be finite and positive, got {length_threshold}"
        )
    adj = patch.adj
    if not adj.is_manifold():
        raise MeshError("refinement needs an edge-manifold patch")

    # An edge (u, v), u < v, is keyed u * N + v, so keys order as pairs
    # do.  Edge ids index the arrays below; an edge keeps its length and
    # its triangle count from creation on.  `em` maps live keys to their
    # triangles, in the order the serial split loop adds them, which
    # numbers the new triangles.
    N = 1 << 32
    verts = patch.tri.vertices
    tris = [tuple(t) for t in patch.tri.triangles.tolist()]
    ekeys = adj.edges[:, 0] * N + adj.edges[:, 1]
    em = {
        k: [s] if t < 0 else [s, t]
        for k, (s, t) in zip(ekeys.tolist(), adj.edge_tri.tolist())
    }
    lengths = _lengths(verts, adj.edges[:, 0], adj.edges[:, 1])
    interior = adj.edge_count == 2
    live = np.ones(len(ekeys), dtype=bool)

    def split(edge, m, fresh):
        # triangle (x, y, z) over the split edge (x, y) becomes (x, m, z)
        # and the new (m, y, z); the new edges are (x, m), (y, m), (z, m)
        a, b = divmod(edge, N)
        for t in em.pop(edge):
            ta, tb, tc = tris[t]
            z = ta + tb + tc - a - b
            x, y = (tb, tc) if z == ta else (tc, ta) if z == tb else (ta, tb)
            tid2 = len(tris)
            tris[t] = (x, m, z)
            tris.append((m, y, z))
            zx = em[z * N + x if z < x else x * N + z]
            zx.remove(t)
            zx.append(t)
            yz = em[y * N + z if y < z else z * N + y]
            yz.remove(t)
            yz.append(tid2)
            for k, tid in ((x * N + m, t), (y * N + m, tid2)):
                ts = em.get(k)
                if ts is None:
                    em[k] = [tid]
                    fresh.append(k)
                else:
                    ts.append(tid)
            em[z * N + m] = [t, tid2]
            fresh.append(z * N + m)

    def long_edges():
        long = live & (lengths > length_threshold)
        return long if split_boundary else long & interior

    n_splits = 0
    rounds = 0
    converged = False
    for rounds in range(1, max_rounds + 1):
        tagged = np.nonzero(long_edges())[0]
        if not len(tagged):
            rounds -= 1
            converged = True
            break
        tagged = tagged[np.lexsort((ekeys[tagged], -lengths[tagged]))]
        # the end points of every tagged edge exist at the start of the round
        a, b = np.divmod(ekeys[tagged], N)
        mid = (verts[a] + verts[b]) / 2.0
        n0, fresh = len(verts), []
        for i, edge in enumerate(ekeys[tagged].tolist()):
            split(edge, n0 + i, fresh)
        n_splits += len(tagged)
        verts = np.concatenate([verts, mid])
        live[tagged] = False
        new = np.asarray(fresh, dtype=np.int64)
        ekeys = np.concatenate([ekeys, new])
        lengths = np.concatenate([lengths, _lengths(verts, *np.divmod(new, N))])
        interior = np.concatenate([interior, np.array([len(em[k]) == 2 for k in fresh], bool)])
        live = np.concatenate([live, np.ones(len(new), dtype=bool)])
    else:
        converged = not long_edges().any()

    inner = live & interior
    max_int = float(lengths[inner].max()) if inner.any() else 0.0
    n_new = len(verts) - patch.tri.n_vertices
    refined = Patch.from_local(
        verts, np.asarray(tris, dtype=np.int64),
        np.concatenate([patch.global_vertices, np.full(n_new, -1, dtype=np.int64)]),
    )
    return refined, RefineReport(
        rounds=rounds, splits=n_splits, max_interior_edge=max_int,
        converged=converged,
    )
