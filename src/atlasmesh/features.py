"""Feature edge detection and patch segmentation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Adjacency, MeshError, Triangulation, first_occurrence


@dataclass
class FeatureEdgeSet:
    """Edges tagged as model features, with their dihedral angles."""

    threshold_deg: float
    edges: set = field(default_factory=set)  # sorted vertex pairs
    angles: dict = field(default_factory=dict)  # edge -> degrees


@dataclass
class PatchSet:
    """A partition of the triangle set into feature-bounded patches."""

    patch_of_triangle: np.ndarray
    n_patches: int

    def triangles_of(self, pid):
        return np.nonzero(self.patch_of_triangle == pid)[0]


def detect_feature_edges(
    tri: Triangulation, adj: Adjacency, threshold_deg: float
) -> FeatureEdgeSet:
    """Tag interior edges whose adjacent normals exceed the angle threshold.

    All boundary edges are tagged unconditionally.  The angle is the
    unsigned angle between the two unit face normals, so convex and
    concave creases are treated identically.
    """
    # 180 disables interior detection: no dihedral can exceed it
    if not (0.0 < threshold_deg <= 180.0):
        raise MeshError("feature angle threshold must lie in (0, 180] degrees")
    if (adj.edge_count > 2).any():
        raise MeshError("non-manifold edge in feature detection")
    inner = adj.edge_count == 2
    normals = tri.triangle_normals()
    n0 = normals[adj.edge_tri[inner, 0]]
    n1 = normals[adj.edge_tri[inner, 1]]
    # a stacked `@` keeps the bits of a per-edge np.dot; einsum does not
    d = np.clip((n0[:, None, :] @ n1[:, :, None])[:, 0, 0], -1.0, 1.0)
    angles = np.zeros(len(inner))  # boundary edges read 0
    angles[inner] = np.degrees(np.arccos(d))
    tagged = (adj.edge_count == 1) | (angles > threshold_deg)
    edges = list(map(tuple, adj.edges[tagged].tolist()))
    return FeatureEdgeSet(
        edges=set(edges),
        angles=dict(zip(edges, angles[tagged].tolist())),
        threshold_deg=threshold_deg,
    )


def segment_patches(
    tri: Triangulation, adj: Adjacency, features: FeatureEdgeSet
) -> PatchSet:
    """Label triangles by maximal patches not crossing feature edges.

    Patches are the connected components of the triangles joined across
    interior non-feature edges, numbered by their smallest triangle id.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = tri.n_triangles
    feat = np.asarray(sorted(features.edges), dtype=np.int64).reshape(-1, 2)
    pack = max(tri.n_vertices, 1)
    is_feature = np.isin(adj.edges @ [pack, 1], feat @ [pack, 1])
    a, b = adj.edge_tri[(adj.edge_count == 2) & ~is_feature].T
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, label = connected_components(graph, directed=False)
    # renumber by smallest triangle id, as a flood fill from triangle 0 does
    first, index = first_occurrence(label)
    return PatchSet(patch_of_triangle=index, n_patches=len(first))
