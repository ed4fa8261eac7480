"""Mapping analysis: per-triangle Jacobians, singular values, metric tensor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError


def triangle_jacobian(tri3d, tri_uv):
    """Constant Jacobians (..., 3, 2) of the affine maps from UV triangles to 3D.

    `tri3d` is (..., 3, 3) and `tri_uv` is (..., 3, 2): corner rows of a
    stack of triangles, a single triangle being the smallest stack.
    Solves d_xyz = J d_uv from the two edge vectors of each triangle;
    any zero UV determinant raises MeshError.
    """
    p = np.asarray(tri3d, dtype=np.float64)
    q = np.asarray(tri_uv, dtype=np.float64)
    E = np.stack([p[..., 1, :] - p[..., 0, :], p[..., 2, :] - p[..., 0, :]], axis=-1)
    D = np.stack([q[..., 1, :] - q[..., 0, :], q[..., 2, :] - q[..., 0, :]], axis=-1)
    det = D[..., 0, 0] * D[..., 1, 1] - D[..., 0, 1] * D[..., 1, 0]
    if (det == 0.0).any():
        raise MeshError("degenerate UV triangle")
    adj = np.stack([D[..., 1, 1], -D[..., 0, 1], -D[..., 1, 0], D[..., 0, 0]], axis=-1)
    # matmul, not einsum: it gives the same bits for a stack as for one
    return E @ (adj.reshape(D.shape) / det[..., None, None])


def singular_values(J):
    """(s1, s2), each of shape (...), with s1 >= s2 >= 0, for J of shape (..., 3, 2).

    Closed-form symmetric eigen-solve of the 2x2 Gram matrix via trace and
    determinant; a rank deficient J yields s2 == 0.
    """
    J = np.asarray(J, dtype=np.float64)
    G = np.swapaxes(J, -1, -2) @ J
    tr = G[..., 0, 0] + G[..., 1, 1]
    det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
    root = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
    e1 = tr / 2.0 + root
    e2 = np.maximum(tr / 2.0 - root, 0.0)
    return np.sqrt(e1), np.sqrt(e2)


def metric_tensor(J, h):
    """M = J^T J / h^2, shape (..., 2, 2) for J of shape (..., 3, 2).

    Unit length under M is 3D length h.  h <= 0 and any rank-deficient
    J raise MeshError.
    """
    if h <= 0.0:
        raise MeshError("target size must be positive")
    J = np.asarray(J, dtype=np.float64)
    M = np.swapaxes(J, -1, -2) @ J / (h * h)
    if (M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0] <= 0.0).any():
        raise MeshError("rank-deficient Jacobian")
    return M


@dataclass
class QualityReport:
    sigma1: np.ndarray
    sigma2: np.ndarray

    @property
    def conformity(self):
        s1 = np.where(self.sigma1 > 0.0, self.sigma1, 1.0)
        return self.sigma2 / s1

    def summary(self):
        c = self.conformity
        hist, edges = np.histogram(c, bins=10, range=(0.0, 1.0))
        return {
            "min_conformity": float(c.min()) if len(c) else 1.0,
            "max_conformity": float(c.max()) if len(c) else 1.0,
            "mean_conformity": float(c.mean()) if len(c) else 1.0,
            "histogram": hist.tolist(),
            "bin_edges": edges.tolist(),
        }


def patch_quality(patch, param) -> QualityReport:
    """Singular values of every parametric triangle of a patch."""
    tris = patch.tri.triangles
    J = triangle_jacobian(patch.tri.vertices[tris], param.uv[tris])
    s1, s2 = singular_values(J)
    return QualityReport(sigma1=s1, sigma2=s2)
