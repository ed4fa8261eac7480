"""Feature edge detection and patch segmentation."""

from __future__ import annotations

import numpy as np

from .mesh import Adjacency, MeshError, Triangulation, first_occurrence, stable_order


def dihedral_angles(tri: Triangulation, adj: Adjacency) -> np.ndarray:
    """(E,) degrees between the unit normals of each edge's two triangles.

    The angle is unsigned, so convex and concave creases read alike; an
    edge without a second triangle reads 0.
    """
    inner = adj.edge_count == 2
    normals = tri.triangle_normals()
    n0 = normals[adj.edge_tri[inner, 0]]
    n1 = normals[adj.edge_tri[inner, 1]]
    # a stacked `@` keeps the bits of a per-edge np.dot; einsum does not
    d = np.clip((n0[:, None, :] @ n1[:, :, None])[:, 0, 0], -1.0, 1.0)
    angles = np.zeros(adj.n_edges)
    angles[inner] = np.degrees(np.arccos(d))
    return angles


def detect_feature_edges(
    tri: Triangulation, adj: Adjacency, threshold_deg: float
) -> np.ndarray:
    """(E,) mask over `adj.edges` of the model's feature edges.

    Every boundary edge is a feature, and so is each interior edge whose
    `dihedral_angles` exceeds the threshold.
    """
    # 180 disables interior detection: no dihedral can exceed it
    if not (0.0 < threshold_deg <= 180.0):
        raise MeshError("feature angle threshold must lie in (0, 180] degrees")
    if not adj.is_manifold():
        raise MeshError("non-manifold edge in feature detection")
    return (adj.edge_count == 1) | (dihedral_angles(tri, adj) > threshold_deg)


def feature_corners(
    tri: Triangulation, adj: Adjacency, features: np.ndarray, threshold_deg: float
) -> np.ndarray:
    """Ascending ids of the vertices where exactly two edges of the feature
    mask meet and turn by more than the threshold: the sharp corners of a
    feature curve or of the model boundary, which may have neither
    another curve nor another face pair to mark them."""
    e = adj.edges[features]
    two = np.bincount(e.ravel(), minlength=tri.n_vertices) == 2
    # (vertex, other end) of each feature edge at such a vertex, by vertex
    ends = np.concatenate([e, e[:, ::-1]])
    ends = ends[two[ends[:, 0]]]
    ends = ends[stable_order(ends[:, 0])]
    v, u, w = ends[0::2, 0], ends[0::2, 1], ends[1::2, 1]
    X = tri.vertices
    d1, d2 = X[v] - X[u], X[w] - X[v]
    cos = (d1 * d2).sum(axis=1) / np.sqrt((d1 * d1).sum(axis=1) * (d2 * d2).sum(axis=1))
    return v[np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))) > threshold_deg]


def segment_patches(tri: Triangulation, adj: Adjacency, features: np.ndarray) -> np.ndarray:
    """(m,) patch label of each triangle, given the feature mask over `adj.edges`.

    Patches are the connected components of the triangles joined across
    interior non-feature edges, numbered by their smallest triangle id.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = tri.n_triangles
    a, b = adj.edge_tri[(adj.edge_count == 2) & ~features].T
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, label = connected_components(graph, directed=False)
    # renumber by smallest triangle id, as a flood fill from triangle 0 does
    return first_occurrence(label)[1]
