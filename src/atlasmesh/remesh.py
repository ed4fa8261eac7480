"""Indirect meshing: new triangles in the parameter plane, mapped back to 3D.

Curves are discretized first (once, globally) so adjacent faces share
identical boundary samples and the stitched result is conforming by
construction.  Each face is meshed in its UV domain under the metric
J^T J / h^2 by local operations, then every vertex is mapped back onto
the input surface through barycentric coordinates, so output vertices
lie exactly on the input triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, Triangulation
from .planar import PlanarMesh, clip_to_loops, constrained_triangulation
from .quality import metric_tensor, triangle_jacobian

METRIC_LONG = 1.4
METRIC_SHORT = 0.7
GAUSS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


@dataclass
class SizeField:
    """Uniform target 3D edge length."""

    h: float

    def __post_init__(self):
        if self.h <= 0.0:
            raise MeshError("mesh size must be positive")


class UVLocator:
    """Point location over a patch's UV triangles with barycentric output.

    A uniform grid bucket narrows candidates; queries fall back to an
    exhaustive scan, accepting the best triangle when the point is inside
    up to a small negative barycentric tolerance.
    """

    def __init__(self, uv, triangles, tol=1e-9):
        self.uv = np.asarray(uv, dtype=np.float64)
        self.tris = np.asarray(triangles, dtype=np.int64)
        self.tol = tol
        p = self.uv[self.tris]
        self._a = p[:, 0]
        self._e1 = p[:, 1] - p[:, 0]
        self._e2 = p[:, 2] - p[:, 0]
        d = self._e1[:, 0] * self._e2[:, 1] - self._e1[:, 1] * self._e2[:, 0]
        self._degenerate = d == 0.0
        self._d = np.where(self._degenerate, 1.0, d)
        self.lo = self.uv.min(axis=0)
        hi = self.uv.max(axis=0)
        ext = np.maximum(hi - self.lo, 1e-30)
        ncell = max(1, int(np.sqrt(len(self.tris))))
        self.ncell = ncell
        self.cell = ext / ncell
        self.buckets: dict[tuple[int, int], list[int]] = {}
        tlo = np.floor((p.min(axis=1) - self.lo) / self.cell).astype(int)
        thi = np.floor((p.max(axis=1) - self.lo) / self.cell).astype(int)
        tlo = np.clip(tlo, 0, ncell - 1)
        thi = np.clip(thi, 0, ncell - 1)
        for t in range(len(self.tris)):
            for i in range(tlo[t, 0], thi[t, 0] + 1):
                for j in range(tlo[t, 1], thi[t, 1] + 1):
                    self.buckets.setdefault((i, j), []).append(t)

    def _best(self, q, candidates):
        """Candidate with the least-negative barycentric coordinate."""
        idx = np.asarray(candidates, dtype=np.int64)
        if idx.size == 0:
            return -1, None, -np.inf
        r = q - self._a[idx]
        w1 = (r[:, 0] * self._e2[idx, 1] - r[:, 1] * self._e2[idx, 0]) / self._d[idx]
        w2 = (self._e1[idx, 0] * r[:, 1] - self._e1[idx, 1] * r[:, 0]) / self._d[idx]
        w0 = 1.0 - w1 - w2
        m = np.minimum(np.minimum(w0, w1), w2)
        m[self._degenerate[idx]] = -np.inf
        k = int(np.argmin(-m))  # first (lowest candidate) maximum
        return int(idx[k]), np.array([w0[k], w1[k], w2[k]]), float(m[k])

    def locate(self, q, clamp=False):
        """(triangle id, barycentric weights) of the containing triangle.

        With clamp=True a point outside the domain is attached to the
        best available triangle with clipped weights (boundary-chord
        queries near holes fall slightly outside the triangulated UV
        region); otherwise it is an error.
        """
        q = np.asarray(q, dtype=np.float64)
        ij = np.floor((q - self.lo) / self.cell).astype(int)
        i, j = (int(np.clip(ij[0], 0, self.ncell - 1)),
                int(np.clip(ij[1], 0, self.ncell - 1)))
        cand = sorted(
            {
                t
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                for t in self.buckets.get((i + di, j + dj), ())
            }
        )
        t, b, m = self._best(q, cand)
        if m < -self.tol:
            t, b, m = self._best(q, range(len(self.tris)))
        if m >= -self.tol or (clamp and t >= 0):
            return t, np.clip(b, 0.0, None) / np.clip(b, 0.0, None).sum()
        raise MeshError(f"UV point {q} outside parametric domain (margin {m:.2e})")


class FaceMetric:
    """Piecewise-constant metric of a parametrized patch at target size h."""

    def __init__(self, patch, param, h):
        tris = patch.tri.triangles
        self.locator = UVLocator(param.uv, tris)
        J = triangle_jacobian(patch.tri.vertices[tris], param.uv[tris])
        self.tensors = metric_tensor(J, h)  # (m, 2, 2), one per triangle

    def at(self, q):
        t, _ = self.locator.locate(q, clamp=True)
        return self.tensors[t]

    def edge_length(self, p, q):
        d = np.asarray(q) - np.asarray(p)
        total = 0.0
        for g in GAUSS:
            M = self.at(np.asarray(p) + g * d)
            total += 0.5 * float(np.sqrt(max(d @ M @ d, 0.0)))
        return total

    def angle(self, M, u, v):
        nu = float(np.sqrt(max(u @ M @ u, 0.0)))
        nv = float(np.sqrt(max(v @ M @ v, 0.0)))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        c = float(u @ M @ v) / (nu * nv)
        return float(np.arccos(np.clip(c, -1.0, 1.0)))


def discretize_curve(points3d, h, closed=False):
    """Subdivide a polyline at 3D spacing ~h.

    Returns (samples, xyz): samples are (segment index, fraction) pairs;
    every sample lies on an original segment and endpoints are preserved.
    Closed curves keep at least 3 samples.
    """
    pts = np.asarray(points3d, dtype=np.float64)
    nseg_in = len(pts) if closed else len(pts) - 1
    if nseg_in < 1:
        raise MeshError("empty curve")
    seg_vec = [pts[(i + 1) % len(pts)] - pts[i] for i in range(nseg_in)]
    seg_len = np.asarray([float(np.linalg.norm(v)) for v in seg_vec])
    total = float(seg_len.sum())
    n = max(1, int(round(total / h)))
    if closed:
        n = max(3, n)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    targets = [total * k / n for k in range(n if closed else n + 1)]
    samples = []
    xyz = []
    for k, s in enumerate(targets):
        if not closed and k == len(targets) - 1:
            seg, frac = nseg_in - 1, 1.0
        else:
            seg = int(np.searchsorted(cum, s, side="right")) - 1
            seg = min(max(seg, 0), nseg_in - 1)
            frac = (s - cum[seg]) / seg_len[seg] if seg_len[seg] > 0.0 else 0.0
        samples.append((seg, float(frac)))
        xyz.append(pts[seg] + frac * seg_vec[seg])
    return samples, np.asarray(xyz)


@dataclass
class FaceMeshResult:
    uv_points: np.ndarray
    triangles: np.ndarray
    boundary_key: dict  # local vertex -> hashable global key
    xyz_boundary: dict  # local vertex -> exact 3D position
    locator: UVLocator  # the face's parametric triangles, for map_to_3d


def mesh_patch_uv(
    patch,
    param,
    loops,
    size: SizeField,
    passes=10,
) -> FaceMeshResult:
    """Triangulate the UV domain bounded by the given sample loops.

    `loops` is a list of boundary loops in walk order (domain on the
    left); each entry is (key, uv, xyz).  The boundary is kept exactly;
    the interior is filled and adapted so metric edge lengths approach 1.
    """
    if not param.injective:
        raise MeshError("cannot remesh a non-injective parametrization")
    metric = FaceMetric(patch, param, size.h)

    points = []
    keys = []
    xyzs = []
    constraints = []
    loop_polys = []
    for loop in loops:
        start = len(points)
        for key, uv, xyz in loop:
            points.append(np.asarray(uv, dtype=np.float64))
            keys.append(key)
            xyzs.append(np.asarray(xyz, dtype=np.float64))
        nn = len(loop)
        for k in range(nn):
            constraints.append((start + k, start + (k + 1) % nn))
        loop_polys.append([points[start + k] for k in range(nn)])

    mesh = constrained_triangulation(points, constraints)
    clip_to_loops(mesh, loop_polys)

    n_fixed = len(points)

    def mlen(edge):
        return metric.edge_length(mesh.points[edge[0]], mesh.points[edge[1]])

    for _ in range(passes):
        changed = False
        # split long edges, longest first
        lens = [(mlen(e), e) for e in mesh.edges()]
        lens.sort(key=lambda x: (-x[0], x[1]))
        for ln, e in lens:
            if ln <= METRIC_LONG or e in mesh.constrained:
                continue
            if e in mesh.e2t:
                if mesh.split_edge(e) is not None:
                    changed = True
        # collapse short interior edges
        for e in sorted(mesh.edges()):
            if e not in mesh.e2t or e in mesh.constrained:
                continue
            if e[0] >= n_fixed or e[1] >= n_fixed:
                if mlen(e) < METRIC_SHORT and mesh.collapse(e):
                    changed = True
        # metric Delaunay flips
        for e in sorted(mesh.edges()):
            if e not in mesh.e2t or e in mesh.constrained:
                continue
            tids = mesh.e2t[e]
            if len(tids) != 2:
                continue
            opp = mesh.opposite_vertices(e)
            if len(opp) != 2:
                continue
            pa, pb = mesh.points[e[0]], mesh.points[e[1]]
            try:
                M = metric.at(0.5 * (pa + pb))
            except MeshError:
                continue
            ang = sum(
                metric.angle(M, pa - mesh.points[o], pb - mesh.points[o])
                for o in opp
            )
            if ang > np.pi + 1e-9:
                if mesh.flip(e):
                    changed = True
        # smooth interior vertices
        for v in range(n_fixed, len(mesh.points)):
            if not mesh.v2t[v] or mesh.is_boundary_vertex(v):
                continue
            nbrs = sorted(
                {w for tid in mesh.v2t[v] for w in mesh.tris[tid] if w != v}
            )
            if not nbrs:
                continue
            target = np.mean([mesh.points[w] for w in nbrs], axis=0)
            try:
                metric.locator.locate(target)
            except MeshError:
                continue
            if mesh.move_vertex(v, target):
                changed = True
        if not changed:
            break

    pts, tris, used = mesh.compact()
    areas = (
        (pts[tris[:, 1], 0] - pts[tris[:, 0], 0])
        * (pts[tris[:, 2], 1] - pts[tris[:, 0], 1])
        - (pts[tris[:, 1], 1] - pts[tris[:, 0], 1])
        * (pts[tris[:, 2], 0] - pts[tris[:, 0], 0])
    )
    if (areas <= 0.0).any():
        raise MeshError("remesher produced an inverted UV triangle")
    boundary_key = {}
    xyz_boundary = {}
    for new, old in enumerate(used):
        if old < n_fixed:
            boundary_key[new] = keys[old]
            xyz_boundary[new] = xyzs[old]
    return FaceMeshResult(
        uv_points=pts,
        triangles=tris,
        boundary_key=boundary_key,
        xyz_boundary=xyz_boundary,
        locator=metric.locator,
    )


def map_to_3d(result: FaceMeshResult, patch) -> np.ndarray:
    """3D positions of the face mesh vertices, exactly on the input surface.

    Boundary samples keep their precomputed positions (on original curve
    segments); interior vertices are barycentric images on the containing
    parametric triangle, found by the locator the face's metric built.
    """
    out = np.empty((len(result.uv_points), 3))
    for v in range(len(result.uv_points)):
        if v in result.xyz_boundary:
            out[v] = result.xyz_boundary[v]
            continue
        t, bary = result.locator.locate(result.uv_points[v], clamp=True)
        corners = patch.tri.vertices[patch.tri.triangles[t]]
        out[v] = bary @ corners
    return out


def stitch(face_results, face_xyz, patch_tags=None) -> Triangulation:
    """Merge per-face meshes into one conforming triangulation.

    Vertices carrying the same boundary key (shared curve samples and
    corner points) are emitted once; everything else stays per face.
    """
    key_gid: dict = {}
    verts: list = []
    tris = []
    tags = []
    for fid, (res, xyz) in enumerate(zip(face_results, face_xyz)):
        local_gid = {}
        for v in range(len(res.uv_points)):
            key = res.boundary_key.get(v)
            if key is not None:
                gid = key_gid.get(key)
                if gid is None:
                    gid = len(verts)
                    key_gid[key] = gid
                    verts.append(xyz[v])
            else:
                gid = len(verts)
                verts.append(xyz[v])
            local_gid[v] = gid
        for t in res.triangles:
            tris.append([local_gid[int(v)] for v in t])
            tags.append(fid if patch_tags is None else patch_tags[fid])
    return Triangulation(
        np.asarray(verts), np.asarray(tris, dtype=np.int64),
        patch_tags=np.asarray(tags, dtype=np.int64),
    )
