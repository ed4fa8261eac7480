"""Patches: edge-connected sub-triangulations with local indexing."""

from __future__ import annotations

import numpy as np

from .mesh import Adjacency, Triangulation, boundary_loops, euler_check


class Patch:
    """A subset of model triangles with its own local vertex table.

    Attributes
    ----------
    triangle_ids : ndarray
        Global triangle ids, sorted.
    tri : Triangulation
        Local triangulation (local vertex indices).
    global_vertices : ndarray
        Local index -> global vertex id.
    loops : list of list of int
        Boundary loops as local vertex cycles, surface to the left.
    """

    def __init__(self, model: Triangulation, triangle_ids):
        self.triangle_ids = np.sort(np.asarray(triangle_ids, dtype=np.int64))
        tris = model.triangles[self.triangle_ids]
        used = np.unique(tris)
        remap = np.full(model.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        self.global_vertices = used
        self.tri = Triangulation(model.vertices[used], remap[tris])
        self.adj = Adjacency(self.tri)
        self.loops = (
            boundary_loops(self.tri, self.adj) if self.adj.boundary_edges else []
        )

    @classmethod
    def from_local(cls, vertices, triangles, global_vertices=None):
        """Build a patch directly from local arrays.

        Used by refinement, where new vertices have no model counterpart
        (their global id is -1).
        """
        self = cls.__new__(cls)
        self.tri = Triangulation(vertices, triangles)
        if global_vertices is None:
            global_vertices = np.full(self.tri.n_vertices, -1, dtype=np.int64)
        self.global_vertices = np.asarray(global_vertices, dtype=np.int64)
        self.triangle_ids = np.arange(self.tri.n_triangles, dtype=np.int64)
        self.adj = Adjacency(self.tri)
        self.loops = (
            boundary_loops(self.tri, self.adj) if self.adj.boundary_edges else []
        )
        return self

    def subpatch(self, local_triangle_ids):
        """A patch made of a subset of this patch's triangles.

        Model back-references (global vertex and triangle ids) are carried
        through, so curves built later still name model vertices.
        """
        ids = np.sort(np.asarray(local_triangle_ids, dtype=np.int64))
        tris = self.tri.triangles[ids]
        used = np.unique(tris)
        remap = np.full(self.tri.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        sub = Patch.from_local(
            self.tri.vertices[used], remap[tris], self.global_vertices[used]
        )
        sub.triangle_ids = self.triangle_ids[ids]
        return sub

    @property
    def n_triangles(self):
        return self.tri.n_triangles

    def topology(self):
        return euler_check(self.tri, self.adj, self.loops)

    def global_loops(self):
        """Boundary loops expressed in global vertex ids."""
        return [[int(self.global_vertices[v]) for v in loop] for loop in self.loops]

    def local_index(self):
        """Global vertex id -> local index dict."""
        return {int(g): i for i, g in enumerate(self.global_vertices)}
