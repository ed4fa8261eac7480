"""Readers and writers: STL (ascii/binary), OBJ, and the msh subset.

The msh subset is a text format documented in the README: a $MeshFormat
header, a single $Nodes block, and one $Elements block per surface entity
(patch tag), plus optional line-element blocks for model curves.  Node
coordinates are printed with 17 significant digits so that a write/load
round trip is bit exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .mesh import MeshError, Triangulation, first_occurrence


def _weld(raw_vertices, raw_triangles, tolerance=0.0):
    """Merge duplicate vertices.

    With tolerance 0 only equal coordinates merge (STL repeats every
    facet corner; +0.0 and -0.0 are equal).  With a positive tolerance,
    for dirty scans, points at most that far apart merge, and so do
    chains of such points (single linkage).  Vertices keep the
    coordinates and the order of their first occurrence.
    """
    raw = np.asarray(raw_vertices, dtype=np.float64).reshape(-1, 3)
    keys = raw
    if tolerance > 0.0:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        from scipy.spatial import cKDTree

        pairs = cKDTree(raw).query_pairs(tolerance, output_type="ndarray")
        links = coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(len(raw),) * 2
        )
        _, keys = connected_components(links, directed=False)
    first, index = first_occurrence(keys)
    return raw[first], index[np.asarray(raw_triangles, dtype=np.int64)]


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise MeshError("non-finite coordinate")


def _load_stl_ascii(path):
    verts = []
    with open(path, "r") as f:
        for line in f:
            parts = line.split()
            if parts and parts[0] == "vertex":
                if len(parts) != 4:
                    raise MeshError(f"bad STL vertex line: {line.strip()}")
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
    if not verts or len(verts) % 3:
        raise MeshError("STL ascii: vertex count not a multiple of 3")
    return np.asarray(verts, dtype=np.float64)


def _load_stl_binary(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 84:
        raise MeshError("STL binary: truncated header")
    (n,) = struct.unpack_from("<I", data, 80)
    if n == 0:
        raise MeshError("STL binary: no facets")
    if len(data) < 84 + 50 * n:
        raise MeshError("STL binary: truncated facet data")
    rec = np.frombuffer(data, dtype=np.uint8, count=50 * n, offset=84).reshape(n, 50)
    tri = rec[:, 12:48].copy().view("<f4").reshape(n, 3, 3)
    return tri.reshape(-1, 3).astype(np.float64)


def _stl_is_binary(path):
    with open(path, "rb") as f:
        head = f.read(84)
    if len(head) < 84:
        return False
    if head.lstrip().startswith(b"solid"):
        # some binary files abuse the "solid" header; trust the facet count
        (n,) = struct.unpack_from("<I", head, 80)
        import os

        return os.path.getsize(path) == 84 + 50 * n
    return True


def _load_obj(path):
    verts = []
    faces = []
    with open(path, "r") as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshError(f"OBJ: bad vertex line: {line.strip()}")
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) for p in parts[1:]]
                idx = [i - 1 if i > 0 else len(verts) + i for i in idx]
                for k in range(1, len(idx) - 1):  # fan-triangulate polygons
                    faces.append([idx[0], idx[k], idx[k + 1]])
    if not faces:
        raise MeshError("OBJ: no faces")
    return np.asarray(verts, dtype=np.float64), np.asarray(faces, dtype=np.int64)


def _load_msh(path):
    with open(path, "r") as f:
        lines = f.read().splitlines()
    try:
        nodes, tri_blocks = _msh_blocks(lines)
    except IndexError:
        raise MeshError("msh: file ends inside a block") from None
    if not nodes:
        raise MeshError("msh: no nodes")
    order = sorted(nodes)
    remap = {t: k for k, t in enumerate(order)}
    verts = np.asarray([nodes[t] for t in order], dtype=np.float64)
    tris = []
    tags = []
    for tag, block in tri_blocks:
        for t in block:
            try:
                tris.append([remap[v] for v in t])
            except KeyError as exc:
                raise MeshError(f"msh: element names unknown node {exc.args[0]}") from None
            tags.append(tag)
    if not tris:
        raise MeshError("msh: no triangles")
    return verts, np.asarray(tris, dtype=np.int64), np.asarray(tags, dtype=np.int64)


def _msh_blocks(lines):
    """(node tag -> xyz, [(surface tag, triangles as node tags)]) of msh lines."""
    i = 0
    nodes = {}
    tri_blocks = []  # (tag, triangles)
    while i < len(lines):
        line = lines[i].strip()
        if line == "$Nodes":
            i += 1
            nblocks, ntotal = int(lines[i].split()[0]), int(lines[i].split()[1])
            i += 1
            for _ in range(nblocks):
                cnt = int(lines[i].split()[3])
                i += 1
                tags = [int(lines[i + k]) for k in range(cnt)]
                i += cnt
                for k in range(cnt):
                    xyz = [float(x) for x in lines[i + k].split()]
                    nodes[tags[k]] = xyz
                i += cnt
            if len(nodes) != ntotal:
                raise MeshError("msh: node count mismatch")
        elif line == "$Elements":
            i += 1
            nblocks = int(lines[i].split()[0])
            i += 1
            for _ in range(nblocks):
                dim, tag, etype, cnt = (int(x) for x in lines[i].split())
                i += 1
                if etype == 2:
                    tris = []
                    for k in range(cnt):
                        parts = lines[i + k].split()
                        tris.append([int(parts[1]), int(parts[2]), int(parts[3])])
                    tri_blocks.append((tag, tris))
                i += cnt
        else:
            i += 1
    return nodes, tri_blocks


FORMATS = ("stl", "obj", "msh")


def _format(path, format):
    """`format`, or else the file suffix; one of FORMATS."""
    fmt = format or str(path).lower().rpartition(".")[2]
    if fmt not in FORMATS:
        raise MeshError(f"unknown format {fmt!r} for {path}")
    return fmt


def load_surface(path, format=None, weld_tolerance=0.0) -> Triangulation:
    """Load a triangulated surface.

    `format` is stl, obj or msh (the msh subset), by default the file
    suffix; STL is read as binary or ASCII as the file says, and its
    duplicate vertices are welded exactly.  A positive `weld_tolerance`
    merges vertices at most that far apart, in every format; it must be
    finite and non-negative.
    """
    if not 0.0 <= weld_tolerance < np.inf:
        raise MeshError(f"weld tolerance must be finite and non-negative, got {weld_tolerance}")
    fmt = _format(path, format)
    if fmt == "stl":
        raw = _load_stl_binary(path) if _stl_is_binary(path) else _load_stl_ascii(path)
        _check_finite(raw)
        n = len(raw) // 3
        tris = np.arange(3 * n, dtype=np.int64).reshape(n, 3)
        verts, tris = _weld(raw, tris, weld_tolerance)
        return Triangulation(verts, tris)
    tags = None
    if fmt == "obj":
        verts, tris = _load_obj(path)
    else:
        verts, tris, tags = _load_msh(path)
    _check_finite(verts)
    if weld_tolerance > 0.0:  # keeps the triangle order, so tags stay aligned
        verts, tris = _weld(verts, tris, weld_tolerance)
    return Triangulation(verts, tris, patch_tags=tags)


def _write_stl_binary(tri: Triangulation, path):
    p = tri.triangle_corners().astype("<f4")
    n = tri.triangle_normals().astype("<f4")
    with open(path, "wb") as f:
        f.write(b"atlasmesh binary stl".ljust(80, b"\0"))
        f.write(struct.pack("<I", tri.n_triangles))
        rec = np.zeros((tri.n_triangles, 50), dtype=np.uint8)
        rec[:, 0:12] = n.view(np.uint8).reshape(-1, 12)
        rec[:, 12:48] = p.reshape(-1, 9).view(np.uint8).reshape(-1, 36)
        f.write(rec.tobytes())


def _write_obj(tri: Triangulation, path):
    with open(path, "w") as f:
        for v in tri.vertices:
            f.write("v %.17g %.17g %.17g\n" % (v[0], v[1], v[2]))
        for t in tri.triangles:
            f.write("f %d %d %d\n" % (t[0] + 1, t[1] + 1, t[2] + 1))


def _write_msh(tri: Triangulation, path, brep=None):
    tags = tri.patch_tags
    if tags is None:
        tags = np.zeros(tri.n_triangles, dtype=np.int64)
    with open(path, "w") as f:
        f.write("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        n = tri.n_vertices
        f.write("$Nodes\n")
        f.write(f"1 {n} 1 {n}\n")
        f.write(f"2 1 0 {n}\n")
        for i in range(n):
            f.write(f"{i + 1}\n")
        for v in tri.vertices:
            f.write("%.17g %.17g %.17g\n" % (v[0], v[1], v[2]))
        f.write("$EndNodes\n")
        blocks = []
        if brep is not None:
            for ci, curve in enumerate(brep.curves):
                segs = [
                    (curve.vertices[k], curve.vertices[k + 1])
                    for k in range(len(curve.vertices) - 1)
                ]
                if curve.closed and len(curve.vertices) > 1:
                    segs.append((curve.vertices[-1], curve.vertices[0]))
                blocks.append((1, ci, 1, segs))
        elem = 1
        for tag in sorted(set(tags.tolist())):
            idx = np.nonzero(tags == tag)[0]
            blocks.append((2, int(tag), 2, [tuple(tri.triangles[t]) for t in idx]))
        total = sum(len(b[3]) for b in blocks)
        f.write("$Elements\n")
        f.write(f"{len(blocks)} {total} 1 {total}\n")
        for dim, tag, etype, elems in blocks:
            f.write(f"{dim} {tag} {etype} {len(elems)}\n")
            for e in elems:
                f.write(" ".join([str(elem)] + [str(int(v) + 1) for v in e]) + "\n")
                elem += 1
        f.write("$EndElements\n")


def write_mesh(tri: Triangulation, path, format=None, brep=None):
    """Write a triangulation as stl (binary), obj or msh, by default as the
    file suffix says; msh and obj round-trip bit exactly."""
    fmt = _format(path, format)
    try:
        if fmt == "stl":
            _write_stl_binary(tri, path)
        elif fmt == "obj":
            _write_obj(tri, path)
        else:
            _write_msh(tri, path, brep=brep)
    except OSError as exc:
        raise MeshError(f"cannot write {path}: {exc}") from exc
