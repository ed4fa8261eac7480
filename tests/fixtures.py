"""Shared fixtures for the test suite: geometric models and a child-process environment."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from scalar_reference import scalar_winding_number

import atlasmesh
from atlasmesh.mesh import Triangulation
from atlasmesh.planar import clip_to_loops, constrained_triangulation


def cube(size=1.0):
    """Closed cube surface: 8 vertices, 12 triangles, outward orientation."""
    s = size
    v = np.array(
        [
            [0, 0, 0], [s, 0, 0], [s, s, 0], [0, s, 0],
            [0, 0, s], [s, 0, s], [s, s, s], [0, s, s],
        ],
        dtype=float,
    )
    quads = [
        (3, 2, 1, 0),  # bottom, normal -z
        (4, 5, 6, 7),  # top, +z
        (0, 1, 5, 4),  # front, -y
        (2, 3, 7, 6),  # back, +y
        (1, 2, 6, 5),  # right, +x
        (3, 0, 4, 7),  # left, -x
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append([a, b, c])
        tris.append([a, c, d])
    return Triangulation(v, np.asarray(tris))


def sphere(subdivisions=3, radius=1.0):
    """Octahedron subdivided and projected onto the sphere."""
    verts = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    ]
    tris = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    verts = [np.asarray(v, dtype=float) for v in verts]
    for _ in range(subdivisions):
        cache = {}
        new_tris = []

        def midpoint(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                m = verts[a] + verts[b]
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        tris = new_tris
    v = np.asarray(verts) * radius
    return Triangulation(v, np.asarray(tris))


def torus(R=2.0, r=0.8, nu=24, nv=12):
    """Closed torus grid triangulation (genus 1)."""
    verts = []
    for i in range(nu):
        a = 2 * np.pi * i / nu
        for j in range(nv):
            b = 2 * np.pi * j / nv
            verts.append(
                [
                    (R + r * np.cos(b)) * np.cos(a),
                    (R + r * np.cos(b)) * np.sin(a),
                    r * np.sin(b),
                ]
            )

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    tris = []
    for i in range(nu):
        for j in range(nv):
            p00, p10 = vid(i, j), vid(i + 1, j)
            p01, p11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append([p00, p10, p11])
            tris.append([p00, p11, p01])
    return Triangulation(np.asarray(verts), np.asarray(tris))


def cylinder_shell(radius=1.0, height=3.0, n=20, rows=1):
    """Open tube; rows=1 gives the coarse no-interior-vertex shell."""
    verts = []
    for k in range(rows + 1):
        z = height * k / rows
        for i in range(n):
            a = 2 * np.pi * i / n
            verts.append([radius * np.cos(a), radius * np.sin(a), z])

    def vid(k, i):
        return k * n + (i % n)

    tris = []
    for k in range(rows):
        for i in range(n):
            p00, p10 = vid(k, i), vid(k, i + 1)
            p01, p11 = vid(k + 1, i), vid(k + 1, i + 1)
            tris.append([p00, p10, p11])
            tris.append([p00, p11, p01])
    return Triangulation(np.asarray(verts), np.asarray(tris))


def planar_fixture(outer, holes=(), spacing=None, z=None):
    """Triangulated planar region from an outer loop (CCW) and holes (CW).

    Interior grid points at `spacing` keep the triangles well shaped; an
    optional z(x, y) lifts the plate out of plane.
    """
    outer = [np.asarray(p, dtype=float) for p in outer]
    holes = [[np.asarray(p, dtype=float) for p in h] for h in holes]
    points = list(outer)
    for h in holes:
        points.extend(h)
    constraints = []
    start = 0
    for loop in [outer] + list(holes):
        nn = len(loop)
        for k in range(nn):
            constraints.append((start + k, start + (k + 1) % nn))
        start += nn
    loops_xy = [outer] + list(holes)
    if spacing:
        pts = np.asarray(points)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        xs = np.arange(lo[0] + spacing, hi[0], spacing)
        ys = np.arange(lo[1] + spacing, hi[1], spacing)
        for x in xs:
            for y in ys:
                p = np.array([x, y])
                if scalar_winding_number(p, loops_xy) != 0:
                    # keep clear of the boundary so constraints survive
                    d = min(
                        _dist_to_loop(p, loop) for loop in loops_xy
                    )
                    if d > 0.4 * spacing:
                        points.append(p)
    mesh = constrained_triangulation(points, constraints)
    clip_to_loops(mesh, constraints)
    pts2, tris, _ = mesh.compact()
    zs = np.zeros(len(pts2)) if z is None else np.asarray(
        [z(p[0], p[1]) for p in pts2]
    )
    return Triangulation(np.column_stack([pts2, zs]), tris)


def _dist_to_loop(p, loop):
    d = np.inf
    nn = len(loop)
    for k in range(nn):
        a, b = np.asarray(loop[k]), np.asarray(loop[(k + 1) % nn])
        ab = b - a
        t = np.clip(np.dot(p - a, ab) / max(np.dot(ab, ab), 1e-30), 0.0, 1.0)
        d = min(d, float(np.linalg.norm(p - (a + t * ab))))
    return d


def concave_hole_plate(spacing=0.18):
    """Concave plate with a concave (L-shaped) hole."""
    outer = [
        (0, 0), (4, 0), (4, 1.2), (2.4, 1.2), (2.4, 2.2), (4, 2.2),
        (4, 3.6), (0, 3.6),
    ]
    hole = [(0.8, 0.8), (0.8, 2.8), (1.8, 2.8), (1.8, 2.0), (1.2, 2.0),
            (1.2, 0.8)]  # listed clockwise
    return planar_fixture(outer, [hole], spacing=spacing)


def _star_polygon(rng, n, rmin, rmax):
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    # enforce minimal angular gaps
    ang = 2 * np.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n) * (2 * np.pi / n)
    rad = rng.uniform(rmin, rmax, n)
    return [np.array([r * np.cos(a), r * np.sin(a)]) for r, a in zip(rad, ang)]


def package_env():
    """Environment for a child `python -m atlasmesh...` that imports the
    same atlasmesh as this process, installed or not."""
    src = str(Path(atlasmesh.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def random_disk_fixture(seed):
    """A varied disk-topology fixture: blobs, holed plates, strips, shells."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:  # concave blob
        outer = _star_polygon(rng, int(rng.integers(8, 16)), 0.5, 2.0)
        return planar_fixture(outer, spacing=0.35)
    if kind == 1:  # plate with a concave hole
        outer = _star_polygon(rng, int(rng.integers(10, 14)), 1.6, 2.4)
        hole = _star_polygon(rng, int(rng.integers(6, 9)), 0.3, 0.8)
        hole = list(reversed(hole))
        return planar_fixture(outer, [hole], spacing=0.4)
    if kind == 2:  # high-aspect strip, gently curved out of plane
        L = float(rng.uniform(6.0, 12.0))
        w = float(rng.uniform(0.2, 0.5))
        # long sides sampled at w / 2, so the grid at w / 2 adds an interior row
        xs = np.linspace(0.0, L, int(np.ceil(2.0 * L / w)) + 1)
        outer = [(x, 0.0) for x in xs] + [(x, w) for x in xs[::-1]]
        return planar_fixture(
            outer, spacing=0.5 * w, z=lambda x, y: 0.2 * np.sin(x / 2.0)
        )
    # coarse-ish cylinder shell
    return cylinder_shell(
        radius=float(rng.uniform(0.5, 1.5)),
        height=float(rng.uniform(1.0, 4.0)),
        n=int(rng.integers(10, 24)),
        rows=int(rng.integers(1, 4)),
    )
