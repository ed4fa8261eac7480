"""Patches: edge-connected sub-triangulations with local indexing."""

from __future__ import annotations

import numpy as np

from .mesh import Adjacency, Triangulation, boundary_loops, euler_check


class Patch:
    """A subset of model triangles with its own local vertex table.

    Attributes
    ----------
    triangle_ids : ndarray
        Model triangle id of each local triangle.  Sorted on a patch cut
        from the model; on a refined patch, the model triangle each
        refined triangle lies in.
    tri : Triangulation
        Local triangulation (local vertex indices).
    global_vertices : ndarray
        Local index -> global vertex id (-1 for a refinement midpoint).
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
    def _refined(cls, tri, adj, loops, global_vertices, triangle_ids):
        """The patch refinement builds, from connectivity it already holds."""
        self = cls.__new__(cls)
        self.tri, self.adj, self.loops = tri, adj, loops
        self.global_vertices, self.triangle_ids = global_vertices, triangle_ids
        return self

    def subpatch(self, local_triangle_ids):
        """A patch made of a subset of this patch's triangles.

        Model back-references (global vertex and triangle ids) are carried
        through, so curves built later still name model vertices.
        """
        sub = Patch(self.tri, local_triangle_ids)
        sub.global_vertices = self.global_vertices[sub.global_vertices]
        sub.triangle_ids = self.triangle_ids[sub.triangle_ids]
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
