"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports atlasmesh or the test fixtures, so a change to the
program or to its tests cannot change what the benchmark feeds it.  Each
model is a closed or open triangulated surface with outward (or, for open
tubes, consistent) orientation; the seed only applies a rigid motion.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


@dataclass
class Model:
    name: str
    vertices: np.ndarray  # (n, 3) float64, exactly the values the file holds
    triangles: np.ndarray  # (m, 3) int64, outward orientation
    closed: bool
    planar_faces: bool  # every face is planar and bounded by detected corners


def torus(R=2.0, r=0.8, nu=24, nv=12):
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    a = 2.0 * np.pi * i.ravel() / nu
    b = 2.0 * np.pi * j.ravel() / nv
    verts = np.column_stack([
        (R + r * np.cos(b)) * np.cos(a),
        (R + r * np.cos(b)) * np.sin(a),
        r * np.sin(b),
    ])
    p00 = (i % nu) * nv + j % nv
    p10 = ((i + 1) % nu) * nv + j % nv
    p01 = (i % nu) * nv + (j + 1) % nv
    p11 = ((i + 1) % nu) * nv + (j + 1) % nv
    tris = np.stack([
        np.stack([p00, p10, p11], axis=-1),
        np.stack([p00, p11, p01], axis=-1),
    ], axis=2).reshape(-1, 3)
    return verts, tris


def tube(radius=1.0, height=3.0, n=20):
    """Open cylinder with one row of quads: no interior vertex at all."""
    a = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([radius * np.cos(a), radius * np.sin(a)])
    verts = np.vstack([
        np.column_stack([ring, np.zeros(n)]),
        np.column_stack([ring, np.full(n, height)]),
    ])
    i = np.arange(n)
    p00, p10 = i, (i + 1) % n
    p01, p11 = n + i, n + (i + 1) % n
    tris = np.stack([
        np.stack([p00, p10, p11], axis=-1),
        np.stack([p00, p11, p01], axis=-1),
    ], axis=1).reshape(-1, 3)
    return verts, tris


def sphere(subdivisions=6, radius=1.0):
    """Octahedron, each triangle split in four per level, projected."""
    verts = np.array([
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    ], dtype=np.float64)
    tris = np.array([
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ], dtype=np.int64)
    for _ in range(subdivisions):
        # midpoints numbered in first-use order, walking triangles then edges
        half = np.stack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=1)
        keys = np.sort(half, axis=2).reshape(-1, 2)
        uniq, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(uniq))
        mid_id = len(verts) + rank[inverse.ravel()].reshape(-1, 3)
        mids = verts[uniq[:, 0]] + verts[uniq[:, 1]]
        mids /= np.linalg.norm(mids, axis=1, keepdims=True)
        new_verts = np.empty((len(uniq), 3))
        new_verts[rank] = mids
        verts = np.vstack([verts, new_verts])
        a, b, c = tris.T
        ab, bc, ca = mid_id.T
        tris = np.stack([
            np.stack([a, ab, ca], axis=-1),
            np.stack([ab, b, bc], axis=-1),
            np.stack([ca, bc, c], axis=-1),
            np.stack([ab, bc, ca], axis=-1),
        ], axis=1).reshape(-1, 3)
    return verts * radius, tris


def square_frame(resolution):
    """Outer surface of a 3x3x1 voxel block with a 1x1 square through-hole.

    Each unit is `resolution` voxels, so every planar face is a uniform
    grid: 64 * resolution**2 triangles over 10 planar faces.
    """
    r = resolution
    occ = np.ones((3 * r, 3 * r, r), dtype=bool)
    occ[r:2 * r, r:2 * r, :] = False
    pad = np.pad(occ, 1)
    quads = []
    for axis in range(3):
        for sign in (1, -1):
            nb = np.roll(pad, -sign, axis=axis)
            cells = np.argwhere(pad & ~nb) - 1  # voxel index, unpadded
            base = cells.astype(np.int64)
            base[:, axis] += 1 if sign > 0 else 0
            u, v = (axis + 1) % 3, (axis + 2) % 3
            du = np.zeros(3, dtype=np.int64)
            dv = np.zeros(3, dtype=np.int64)
            du[u] = 1
            dv[v] = 1
            if sign < 0:
                du, dv = dv, du  # keep the winding outward
            quads.append(np.stack([base, base + du, base + du + dv, base + dv], axis=1))
    quads = np.concatenate(quads)
    corners, index = np.unique(quads.reshape(-1, 3), axis=0, return_inverse=True)
    q = index.reshape(-1, 4)
    tris = np.concatenate([q[:, [0, 1, 2]], q[:, [0, 2, 3]]])
    return corners.astype(np.float64) / r, tris


def rigid_motion(rng):
    """Uniform random rotation (QR of a Gaussian matrix) and a translation."""
    qm, rm = np.linalg.qr(rng.standard_normal((3, 3)))
    qm = qm * np.sign(np.diag(rm))
    if np.linalg.det(qm) < 0.0:
        qm[:, 0] = -qm[:, 0]
    return qm, rng.uniform(-1.0, 1.0, 3)


def place(verts, seed, model_index):
    rot, shift = rigid_motion(np.random.default_rng([seed, model_index]))
    return verts @ rot.T + shift


def write_obj(path, verts, tris):
    with open(path, "w") as fh:
        fh.writelines("v %.17g %.17g %.17g\n" % tuple(v) for v in verts)
        fh.writelines("f %d %d %d\n" % tuple(t + 1) for t in tris)


def write_stl_binary(path, verts32, tris):
    p = verts32[tris]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    n /= np.maximum(np.linalg.norm(n, axis=1, keepdims=True), 1e-30)
    rec = np.zeros(len(tris), dtype=[("n", "<f4", 3), ("p", "<f4", (3, 3)), ("a", "<u2")])
    rec["n"] = n
    rec["p"] = p
    with open(path, "wb") as fh:
        fh.write(b"benchmark binary stl".ljust(80, b"\0"))
        fh.write(struct.pack("<I", len(tris)))
        fh.write(rec.tobytes())


def build(kind, seed, model_index, path):
    """Generate one model, apply the seeded motion, write it; return Model.

    `kind` is (generator name, params, file format).  For binary STL the
    returned vertices are the float32 values actually written, widened.
    """
    gen, params, fmt = kind
    verts, tris = GENERATORS[gen](**params)
    verts = place(verts, seed, model_index)
    if fmt == "stl":
        verts = verts.astype(np.float32)
        write_stl_binary(path, verts, tris)
        verts = verts.astype(np.float64)
    else:
        write_obj(path, verts, tris)
    return Model(
        name=gen,
        vertices=verts,
        triangles=np.asarray(tris, dtype=np.int64),
        closed=gen != "tube",
        planar_faces=gen == "square_frame",
    )


GENERATORS = {
    "torus": torus,
    "tube": tube,
    "sphere": sphere,
    "square_frame": square_frame,
}
