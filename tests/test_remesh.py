import json
import pickle
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell, random_disk_fixture, sphere, torus
from scalar_reference import reference_mesh_patch_uv, scalar_flip_wanted
from test_acceptance import PIPELINE_FIXTURES
from test_sweep import PLACEMENTS, case_mesh

from atlasmesh import pipeline, remesh
from atlasmesh.cli import main
from atlasmesh.io import load_surface, write_mesh
from atlasmesh.mesh import MeshError, Triangulation, signed_uv_areas, validate
from atlasmesh.param import ParamOptions, parametrize
from atlasmesh.patch import Patch
from atlasmesh.planar import clip_to_loops, constrained_triangulation
from atlasmesh.pipeline import (
    PipelineOptions,
    boundary_samples,
    build_atlas,
    face_sample_loops,
    remesh_model,
)
from atlasmesh.quality import metric_tensor, triangle_jacobian
from atlasmesh.remesh import (
    PATIENCE,
    SCORE_TOL,
    FaceMeshResult,
    FaceMetric,
    UVLocator,
    discretize_curve,
    flip_wanted,
    mesh_patch_uv,
    percentile5,
    stitch,
)
from atlasmesh.verify import build_square_mesh

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import models  # noqa: E402
import run  # noqa: E402  (bench/run.py: WORKLOADS)


def test_size_field_validation(monkeypatch):
    def no_atlas(*args):
        raise AssertionError("the atlas was built before the size was checked")

    monkeypatch.setattr(pipeline, "build_atlas", no_atlas)
    for size in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(MeshError, match="finite and positive"):
            remesh_model(cube(), PipelineOptions(size=size))


@pytest.mark.parametrize("name,value", [("scheme", "foo"), ("hole_policy", "bar")])
def test_unknown_options_are_rejected_before_segmentation(monkeypatch, name, value):
    # a cube's faces are all projected, so no solve would reach the value
    def no_segmentation(*args):
        raise AssertionError("the model was segmented before the options were checked")

    monkeypatch.setattr(pipeline, "segment_patches", no_segmentation)
    with pytest.raises(MeshError, match=f"unknown {name.replace('_', ' ')}: {value}"):
        remesh_model(cube(), PipelineOptions(size=0.25, **{name: value}))


def test_empty_model_is_rejected():
    empty = Triangulation(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(MeshError, match="no triangles"):
        remesh_model(empty, PipelineOptions(size=0.25))
    with pytest.raises(MeshError, match="no triangles"):
        build_atlas(empty)


def test_face_job_pickles(monkeypatch):
    # a process pool ships each job and mesh_face itself by pickle
    jobs = []
    run_parallel = pipeline._run_parallel

    def record(fn, items, threads):
        jobs.extend(items)
        return run_parallel(fn, items, threads)

    monkeypatch.setattr(pipeline, "_run_parallel", record)
    remesh_model(cube(), PipelineOptions(size=0.25))
    fn, job = pickle.loads(pickle.dumps((pipeline.mesh_face, jobs[0])))
    direct, shipped = pipeline.mesh_face(jobs[0]), fn(job)
    for key in ("uv_points", "triangles", "sample_ids", "xyz"):
        assert np.array_equal(getattr(shipped, key), getattr(direct, key)), key


@pytest.mark.parametrize("threads", [1, 2])
def test_mesh_error_names_the_face(monkeypatch, tmp_path, capsys, threads):
    model = cube()
    doomed = build_atlas(model, PipelineOptions(size=0.25)).patches[3].triangle_ids
    mesh_uv = pipeline.mesh_patch_uv

    def fail_face_3(patch, *args):
        if np.array_equal(patch.triangle_ids, doomed):
            raise MeshError("boom")
        return mesh_uv(patch, *args)

    monkeypatch.setattr(pipeline, "mesh_patch_uv", fail_face_3)
    with pytest.raises(MeshError, match="^face 3: boom$"):
        remesh_model(model, PipelineOptions(size=0.25))
    # --threads reaches only the CLI; the error names the face whatever it says
    src = tmp_path / "cube.msh"
    write_mesh(model, src)
    argv = ["remesh", str(src), "--size", "0.25", "--threads", str(threads),
            "-o", str(tmp_path / "out.msh")]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("MeshError", "face 3: boom")


def test_discretize_open_curve():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    seg, frac, xyz = discretize_curve(pts, h=0.5)
    assert (seg[0], frac[0]) == (0, 0.0)
    assert (seg[-1], frac[-1]) == (2 - 1, 1.0)
    assert np.allclose(xyz[0], pts[0])
    assert np.allclose(xyz[-1], pts[-1])
    gaps = np.linalg.norm(np.diff(xyz, axis=0), axis=1)
    assert np.allclose(gaps, 0.5)


def test_discretize_open_curve_keeps_end_points_exactly():
    # pts[-2] + 1.0 * (pts[-1] - pts[-2]) is off pts[-1] by an ulp in z here
    pts = np.array([[-0.3, 0.2, 0.0], [0.1, 0.9, 0.4], [0.7, 0.35, -0.2]])
    _, _, xyz = discretize_curve(pts, h=0.3)
    assert np.array_equal(xyz[0], pts[0])
    assert np.array_equal(xyz[-1], pts[-1])


def test_discretize_closed_curve_minimum():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0]], dtype=float)
    seg, frac, xyz = discretize_curve(pts, h=100.0, closed=True)
    assert len(seg) == len(frac) == len(xyz) == 3  # never fewer than a triangle


def test_discretize_spacing_tracks_target():
    ang = np.linspace(0, 2 * np.pi, 41)[:-1]
    pts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(40)])
    _, _, xyz = discretize_curve(pts, h=0.3, closed=True)
    gaps = np.linalg.norm(np.roll(xyz, -1, axis=0) - xyz, axis=1)
    assert gaps.max() < 0.45
    assert gaps.min() > 0.15


def test_locator_barycentric_identity():
    uv = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    loc = UVLocator(uv, tris)
    t, b = loc.locate([0.2, 0.2])
    assert t == 0
    assert b == pytest.approx([0.6, 0.2, 0.2])
    t, b = loc.locate([0.9, 0.9])
    assert t == 1
    with pytest.raises(MeshError):
        loc.locate([2.0, 2.0])
    t, b = loc.locate([2.0, 2.0], clamp=True)
    assert 0 <= t < 2
    assert b.sum() == pytest.approx(1.0)


class PointLocator:
    """Reference: one query at a time over dict buckets of a uniform grid,
    the 3x3 cells around the query, then every triangle."""

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
        ext = np.maximum(self.uv.max(axis=0) - self.lo, 1e-30)
        self.ncell = max(1, int(np.sqrt(len(self.tris))))
        self.cell = ext / self.ncell
        self.buckets = {}
        tlo = np.clip(np.floor((p.min(axis=1) - self.lo) / self.cell).astype(int),
                      0, self.ncell - 1)
        thi = np.clip(np.floor((p.max(axis=1) - self.lo) / self.cell).astype(int),
                      0, self.ncell - 1)
        for t in range(len(self.tris)):
            for i in range(tlo[t, 0], thi[t, 0] + 1):
                for j in range(tlo[t, 1], thi[t, 1] + 1):
                    self.buckets.setdefault((i, j), []).append(t)

    def _best(self, q, candidates):
        idx = np.asarray(candidates, dtype=np.int64)
        if idx.size == 0:
            return -1, None, -np.inf
        r = q - self._a[idx]
        w1 = (r[:, 0] * self._e2[idx, 1] - r[:, 1] * self._e2[idx, 0]) / self._d[idx]
        w2 = (self._e1[idx, 0] * r[:, 1] - self._e1[idx, 1] * r[:, 0]) / self._d[idx]
        w0 = 1.0 - w1 - w2
        m = np.minimum(np.minimum(w0, w1), w2)
        m[self._degenerate[idx]] = -np.inf
        k = int(np.argmin(-m))
        return int(idx[k]), np.array([w0[k], w1[k], w2[k]]), float(m[k])

    def locate(self, q, clamp=False):
        q = np.asarray(q, dtype=np.float64)
        ij = np.floor((q - self.lo) / self.cell).astype(int)
        i = int(np.clip(ij[0], 0, self.ncell - 1))
        j = int(np.clip(ij[1], 0, self.ncell - 1))
        cand = sorted({
            t for di in (-1, 0, 1) for dj in (-1, 0, 1)
            for t in self.buckets.get((i + di, j + dj), ())
        })
        t, b, m = self._best(q, cand)
        if m < -self.tol:
            t, b, m = self._best(q, range(len(self.tris)))
        if m >= -self.tol or (clamp and t >= 0):
            return t, np.clip(b, 0.0, None) / np.clip(b, 0.0, None).sum()
        raise MeshError(f"UV point {q} outside parametric domain (margin {m:.2e})")


@pytest.fixture(scope="module")
def uv_faces():
    """(name, patch, param): the eight kinds of random disk and a torus face."""
    faces = []
    for seed in range(8):
        mesh = random_disk_fixture(seed)
        patch = Patch(mesh, np.arange(mesh.n_triangles))
        faces.append((f"disk{seed}", patch, parametrize(patch, ParamOptions())))
    atlas = build_atlas(torus(), PipelineOptions(size=0.3))
    faces.append(("torus", atlas.patches[0], atlas.params[0]))
    return faces


def _queries(uv, tris, seed):
    """Random interior points, vertices, edge midpoints; then outside points."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(tris), 300)
    inside = np.concatenate([
        np.einsum("ij,ijk->ik", rng.dirichlet([1, 1, 1], 300), uv[tris[pick]]),
        uv[np.unique(tris)],
        0.5 * (uv[tris] + uv[np.roll(tris, 1, axis=1)]).reshape(-1, 2),
    ])
    lo, hi = uv.min(axis=0), uv.max(axis=0)
    ring = rng.uniform(0.0, 2.0 * np.pi, 100)
    outside = np.concatenate([
        0.5 * (lo + hi) + (hi - lo) * np.column_stack([np.cos(ring), np.sin(ring)]),
        [lo - [1e-7, 0.0]],
        rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (100, 2)),
    ])
    return inside, outside


def _reference(ref, Q, clamp):
    out = [ref.locate(q, clamp) for q in Q]
    return np.array([t for t, _ in out]), np.array([b for _, b in out]).reshape(-1, 3)


@pytest.mark.parametrize("clamp", [False, True])
def test_locate_many_equals_point_locator(uv_faces, clamp):
    # a face wider than one block: an outside query's candidates span blocks
    square = build_square_mesh("delaunay", 48)
    assert square.n_triangles > UVLocator.BLOCK
    faces = [(name, param.uv, patch.tri.triangles, 1) for name, patch, param in uv_faces]
    faces.append(("square48", square.vertices[:, :2], square.triangles, 20))
    for k, (name, uv, tris, every) in enumerate(faces):
        ref = PointLocator(uv, tris)
        loc = UVLocator(uv, tris)
        inside, outside = _queries(uv, tris, k)
        inside = inside[::every]
        Q = np.concatenate([inside, outside]) if clamp else inside
        t, b = loc.locate_many(Q, clamp)
        t_ref, b_ref = _reference(ref, Q, clamp)
        assert np.array_equal(t, t_ref), name
        assert np.array_equal(b, b_ref), name
        t1, b1 = loc.locate(Q[0], clamp)
        assert (t1, b1.tolist()) == (t_ref[0], b_ref[0].tolist())


def _reference_grid(uv, tris):
    """(walls, cell triangle lists, cell starts) of a `UVLocator` grid, built
    with axis-1 reductions over the (m, 3, 2) corners and an int64 stable
    argsort, as the locator once built them."""
    p = uv[tris]
    m = len(tris)
    lo = uv.min(axis=0)
    ext = np.maximum(uv.max(axis=0) - lo, 1e-30)
    ncell = max(1, int(np.sqrt(m)))
    walls = np.sort(p.mean(axis=1), axis=0)[np.arange(1, ncell) * m // ncell].T

    def cell_ij(X):
        return np.column_stack([np.searchsorted(walls[k], X[:, k], side="right") for k in (0, 1)])

    pad = (2.0 * UVLocator.tol + 1e-6) * ext
    clo, chi = cell_ij(p.min(axis=1) - pad), cell_ij(p.max(axis=1) + pad)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    degenerate = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] == 0.0
    span = chi - clo + 1
    count = np.where(degenerate, 0, span[:, 0] * span[:, 1])
    tri = np.repeat(np.arange(m), count)
    k = np.arange(len(tri)) - np.repeat(np.cumsum(count) - count, count)
    cell = (clo[tri, 0] + k // span[tri, 1]) * ncell + clo[tri, 1] + k % span[tri, 1]
    order = np.argsort(cell.astype(np.int64), kind="stable")
    return walls, tri[order], np.concatenate(
        [[0], np.cumsum(np.bincount(cell, minlength=ncell * ncell))])


def test_locator_grid_equals_the_axis_reduction_build(uv_faces):
    # column-wise corner bounds and centroids, and the two-pass stable sort
    tube = Triangulation(*models.GENERATORS["tube"](radius=1.0, height=3.0, n=20))
    atlas = build_atlas(tube, PipelineOptions(size=0.5))
    faces = [(name, param.uv, patch.tri.triangles) for name, patch, param in uv_faces]
    faces += [(f"tube{k}", param.uv, patch.tri.triangles)
              for k, (patch, param) in enumerate(zip(atlas.patches, atlas.params))]
    assert all(f["refine"]["splits"] > 0 for f in atlas.summary["faces"])
    for name, uv, tris in faces:
        loc = UVLocator(uv, tris)
        walls, cell_tris, cell_start = _reference_grid(uv, tris)
        assert np.array_equal(loc._walls, walls), name
        assert np.array_equal(loc._cell_tris, cell_tris), name
        assert np.array_equal(loc._cell_start, cell_start), name


def test_locate_many_rejects_the_first_outside_point(uv_faces):
    for k, (name, patch, param) in enumerate(uv_faces):
        ref = PointLocator(param.uv, patch.tri.triangles)
        loc = UVLocator(param.uv, patch.tri.triangles)
        inside, outside = _queries(param.uv, patch.tri.triangles, k)
        far = outside[0]
        with pytest.raises(MeshError) as expected:
            ref.locate(far)
        batch = np.concatenate([inside[:50], [far], outside[1:], inside[50:]])
        with pytest.raises(MeshError) as got:
            loc.locate_many(batch)
        assert str(got.value) == str(expected.value), name
        with pytest.raises(MeshError):
            loc.locate(far)


def test_edge_lengths_equal_scalar_gauss_formula(uv_faces):
    # one tensor per edge, at its midpoint, and no fused multiply-add
    for k, (name, patch, param) in enumerate(uv_faces):
        metric = FaceMetric(patch, param, 0.3)
        ref = PointLocator(param.uv, patch.tri.triangles)
        inside, outside = _queries(param.uv, patch.tri.triangles, k)
        P = np.concatenate([inside, outside])
        Q = np.roll(P, 7, axis=0)
        want = []
        for p, q in zip(P, Q):
            M = metric.tensors[ref.locate(0.5 * (p + q), clamp=True)[0]]
            (x, y), ((m00, m01), (m10, m11)) = (q - p).tolist(), M.tolist()
            # d^T M d summed as (d^T M) d, in Python floats
            want.append(float(np.sqrt(max((x * m00 + y * m10) * x + (x * m01 + y * m11) * y, 0.0))))
        assert np.array_equal(metric.edge_lengths(P, Q), want), name


def _face_queries(metric, seed):
    """Segment end points (P, Q): the face's UV vertices and points around
    its domain, each paired with the point three rows back."""
    _, outside = _queries(metric.locator.uv, metric.locator.tris, seed)
    P = np.concatenate([metric.locator.uv, outside])
    return P, np.roll(P, 3, axis=0)


PROJECTED_MODELS = {
    "cube": cube,
    "plate": concave_hole_plate,
    "frame": lambda: Triangulation(*models.square_frame(10)),
}


@pytest.mark.parametrize("placement", [None, 0, 1, 2])
@pytest.mark.parametrize("name", sorted(PROJECTED_MODELS))
def test_projected_face_reads_one_uniform_tensor_without_locating(name, placement, monkeypatch):
    mesh = PROJECTED_MODELS[name]()
    if placement is not None:
        mesh = Triangulation(models.place(mesh.vertices, 77, placement), mesh.triangles)
    h = 0.3
    atlas = build_atlas(mesh, PipelineOptions(size=h))
    metrics = [FaceMetric(patch, param, h) for patch, param in zip(atlas.patches, atlas.params)]

    def no_location(*args, **kwargs):
        raise AssertionError("a projected face located a point for its metric")

    monkeypatch.setattr(UVLocator, "locate_many", no_location)
    for face, (patch, param, metric) in enumerate(zip(atlas.patches, atlas.params, metrics)):
        assert param.isometry and metric.tensors is None, face
        assert np.array_equal(metric.uniform, np.eye(2) / (h * h)), face
        P, Q = _face_queries(metric, face)
        M = metric.at(0.5 * (P + Q))
        assert M.shape == (len(P), 2, 2) and (M == metric.uniform).all(), face
        D = Q - P
        want = np.sqrt(np.einsum("ni,ij,nj->n", D, metric.uniform, D))
        assert np.allclose(metric.edge_lengths(P, Q), want, rtol=1e-15, atol=0.0), face
        # the tensor every triangle of the projection reads is I / h^2 up to rounding
        tris = patch.tri.triangles
        per_triangle = metric_tensor(triangle_jacobian(patch.tri.vertices[tris], param.uv[tris]), h)
        assert (np.abs(per_triangle - metric.uniform) <= 1e-12 / (h * h)).all(), face


@pytest.mark.parametrize("name, build", [("torus", torus), ("disk2", lambda: random_disk_fixture(2))])
def test_curved_face_reads_per_triangle_tensors(name, build, monkeypatch):
    h = 0.3
    atlas = build_atlas(build(), PipelineOptions(size=h))
    located = []
    locate_many = UVLocator.locate_many

    def counting(self, X, clamp=False):
        located.append(len(X))
        return locate_many(self, X, clamp)

    monkeypatch.setattr(UVLocator, "locate_many", counting)
    curved = [(patch, param) for patch, param in zip(atlas.patches, atlas.params)
              if not param.isometry]
    assert curved, name
    for face, (patch, param) in enumerate(curved):
        metric = FaceMetric(patch, param, h)
        assert metric.uniform is None and len(metric.tensors) == patch.tri.n_triangles
        P, Q = _face_queries(metric, face)
        located.clear()
        M = metric.at(0.5 * (P + Q))
        assert located == [len(P)], (name, face)
        t, _ = locate_many(metric.locator, 0.5 * (P + Q), clamp=True)
        assert np.array_equal(M, metric.tensors[t]), (name, face)


def _walls_and_edges(loc, seed):
    """Points exactly on the cell walls of `loc`, inside and outside its
    domain, and points on its triangles' edges."""
    uv, tris = loc.uv, loc.tris
    rng = np.random.default_rng(seed)
    lo, hi = uv.min(axis=0), uv.max(axis=0)
    wx, wy = loc._walls
    on_walls = np.concatenate([
        np.column_stack([wx, rng.uniform(lo[1], hi[1], len(wx))]),
        np.column_stack([rng.uniform(lo[0], hi[0], len(wy)), wy]),
        np.column_stack([wx[: len(wy)], wy[: len(wx)]]),
    ])
    along = rng.uniform(0.0, 1.0, (len(tris), 1))
    return on_walls, uv[tris[:, 0]] + along * (uv[tris[:, 1]] - uv[tris[:, 0]])


def test_locate_equals_point_locator_on_walls_edges_and_vertices(uv_faces):
    for k, (name, patch, param) in enumerate(uv_faces):
        uv, tris = param.uv, patch.tri.triangles
        ref = PointLocator(uv, tris)
        loc = UVLocator(uv, tris)
        inside, outside = _queries(uv, tris, k)
        on_walls, on_edges = _walls_and_edges(loc, k)
        for clamp in (False, True):
            for Q in (inside, outside, on_walls, on_edges, uv):
                for q in Q:
                    try:
                        want = ref.locate(q, clamp)
                    except MeshError:
                        with pytest.raises(MeshError):
                            loc.locate(q, clamp)
                        continue
                    t, b = loc.locate(q, clamp)
                    assert (t, b.tolist()) == (want[0], want[1].tolist()), name


DEGENERATE_QUERIES = [
    [0.5, 0.0], [1.0, 0.0], [1.5, 1e-15], [1.5, -1e-15], [0.5, 1e-9], [2.0, 0.0],
    [0.0, 0.0], [-1e-12, 0.0], [3.0, 0.0], [1.0, 2.0], [2.5, 0.5],
]


def test_locate_next_to_a_degenerate_triangle():
    # triangle 2 has three collinear corners; its neighbours share its line
    uv = np.array([[0, 0], [1, 0], [2, 0], [1, 1], [1, -1], [3, 1]], dtype=float)
    tris = np.array([[0, 1, 3], [1, 2, 3], [0, 1, 2], [0, 4, 2], [2, 5, 3]])
    ref = PointLocator(uv, tris)
    loc = UVLocator(uv, tris)
    assert loc._degenerate.tolist() == [False, False, True, False, False]
    for clamp in (False, True):
        for q in DEGENERATE_QUERIES:
            try:
                want = ref.locate(q, clamp)
            except MeshError:
                with pytest.raises(MeshError):
                    loc.locate(q, clamp)
                with pytest.raises(MeshError):
                    loc.locate_many([q], clamp)
                continue
            t, b = loc.locate(q, clamp)
            assert t != 2
            assert (t, b.tolist()) == (want[0], want[1].tolist()), q
            tm, bm = loc.locate_many([q], clamp)
            assert (tm[0], bm[0].tolist()) == (want[0], want[1].tolist()), q


def _quads_and_tensors(n, seed):
    """Random quads (a, b, c, d), some with repeated corners, and SPD tensors."""
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n, 4, 2)) * rng.uniform(1e-3, 1e3, (n, 1, 1))
    P[: n // 10, 2] = P[: n // 10, 0]  # a - c = 0
    P[n // 10: n // 5, 3] = P[n // 10: n // 5, 1]  # b - d = 0
    P[n // 5: n // 4, 1] = P[n // 5: n // 4, 0]  # a = b: zero angles
    P[n // 4: n // 3] = np.round(P[n // 4: n // 3])  # collinear and repeated corners
    A = rng.normal(size=(n, 2, 2))
    M = A @ A.transpose(0, 2, 1) + rng.uniform(0.0, 1.0, (n, 1, 1)) * np.eye(2)
    M *= rng.uniform(1e-2, 1e4, (n, 1, 1))
    M[: n // 20] = np.eye(2)
    return P, M


def angle_sum(M, p):
    """The angles at c and d of the quad p = (a, b, c, d) under M, summed:
    the flip rule the sign test replaced."""
    total = 0.0
    for o in (p[2], p[3]):
        u, v = p[0] - o, p[1] - o
        nu, nv = np.sqrt(max(u @ M @ u, 0.0)), np.sqrt(max(v @ M @ v, 0.0))
        if nu > 0.0 and nv > 0.0:
            total += np.arccos(min(max(u @ M @ v / (nu * nv), -1.0), 1.0))
    return total


def _flip_answers(M, P):
    """flip_wanted's answers, one quad at a time, checked equal to the
    scalar reference's."""
    got = [flip_wanted(m, *p) for m, p in zip(M.reshape(-1, 4).tolist(), P.tolist())]
    assert got == [scalar_flip_wanted(m, p) for m, p in zip(M, P)]
    return got


def test_stacked_flip_angles_equal_the_scalar_formula():
    P, M = _quads_and_tensors(4000, 0)
    decide = _flip_answers(M, P)
    assert 0 < sum(decide) < len(decide)
    # the sign of sin(alpha + beta) is the angle-sum rule away from pi
    angles = np.array([angle_sum(m, p) for m, p in zip(M, P)])
    clear = np.abs(angles - np.pi) > 1e-6
    assert clear.sum() > 0.9 * len(P)
    assert np.array_equal(np.asarray(decide)[clear], angles[clear] > np.pi)


def _threshold_quads(seed, n=40, ulps=6):
    """Quads whose flip test is within a few ulps of its -1e-9 threshold.

    Corners a, b, c lie on a circle and d = centre + r (1 + t) (cos, sin),
    so the angle sum passes pi near t = 0; bisection on t finds the two
    adjacent doubles where flip_wanted changes its answer, and the quads
    at the `ulps` doubles on either side of them are returned.
    """
    rng = np.random.default_rng(seed)
    quads, tensors = [], []
    for _ in range(n):
        centre, r = rng.normal(size=2), rng.uniform(0.1, 10.0)
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
        a, c, b, d_dir = (np.array([np.cos(x), np.sin(x)]) for x in ang)  # c between a and b
        A = rng.normal(size=(2, 2))
        M = np.eye(2) if rng.uniform() < 0.5 else A @ A.T + 0.1 * np.eye(2)
        # x -> centre + r L^-T x, with M = L L^T, maps the unit circle onto
        # an ellipse that is a circle under M
        inv = np.linalg.inv(np.linalg.cholesky(M).T)

        def quad(t):
            corners = np.array([a, b, c, (1.0 + t) * d_dir])
            return centre + r * corners @ inv.T

        def wanted(t):
            return flip_wanted(M.ravel().tolist(), *quad(t).tolist())

        lo, hi = -1e-3, 1e-3  # d outside the circle: no flip; inside: flip
        want_lo = wanted(lo)
        if wanted(hi) == want_lo:
            continue
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            if wanted(mid) == want_lo:
                lo = mid
            else:
                hi = mid
        t = lo
        for _ in range(ulps):
            t = np.nextafter(t, -1.0)
        for _ in range(2 * ulps + 2):
            quads.append(quad(t))
            tensors.append(M)
            t = np.nextafter(t, 1.0)
    return np.array(tensors), np.array(quads)


def test_flip_wanted_equals_the_scalar_reference():
    # random quads with SPD tensors, repeated and collinear corners among them
    P, M = _quads_and_tensors(4000, 1)
    decide = _flip_answers(M, P)
    assert 0 < sum(decide) < len(decide)
    # cocircular quads of a regular lattice under I / h^2: s is about 0
    rng = np.random.default_rng(2)
    h, step = 0.3, 0.1
    corner = rng.integers(-50, 50, size=(2000, 1, 2)) * step + rng.normal(size=(2000, 1, 2))
    square = np.array([[0.0, 0.0], [step, step], [step, 0.0], [0.0, step]])
    P = corner + square * rng.choice([-1.0, 1.0], size=(2000, 1, 2))
    M = np.broadcast_to(metric_tensor(np.eye(3, 2), h), (2000, 2, 2))
    _flip_answers(M, P)
    # within a few ulps of the threshold: both answers occur
    M, P = _threshold_quads(3)
    assert len(P) >= 20 * 14
    decide = _flip_answers(M, P)
    assert 0 < sum(decide) < len(decide)
    # signed zeros in the corners and the tensors
    P = rng.choice([-0.0, 0.0, -1.0, 1.0, 2.0], size=(3000, 4, 2))
    M = np.zeros((3000, 2, 2))
    M[:, 0, 0], M[:, 1, 1] = rng.choice([1.0, 4.0], size=(2, 3000))
    M[:, 0, 1] = M[:, 1, 0] = rng.choice([-0.0, 0.0], size=3000)
    decide = _flip_answers(M, P)
    assert 0 < sum(decide) < len(decide)
    assert np.signbit(P[P == 0.0]).any() and np.signbit(M[M == 0.0]).any()
    # the answer does not depend on the order of c and d
    swapped = P[:, [0, 1, 3, 2]]
    assert [flip_wanted(m, *p) for m, p in zip(M.reshape(-1, 4).tolist(), swapped.tolist())] == decide


def test_edge_lengths_of_a_subset_equal_rows_of_the_batch(uv_faces):
    for k, (name, patch, param) in enumerate(uv_faces):
        P, Q = _face_queries(FaceMetric(patch, param, 0.3), k)
        full = FaceMetric(patch, param, 0.3).edge_lengths(P, Q).view(np.int64)
        rng = np.random.default_rng(k)
        metric = FaceMetric(patch, param, 0.3)  # the subsets are located first here
        for rows in [rng.choice(len(P), size, replace=False) for size in (1, 2, 5, len(P) // 3)]:
            assert np.array_equal(metric.edge_lengths(P[rows], Q[rows]).view(np.int64), full[rows])
        assert np.array_equal(metric.edge_lengths(P, Q).view(np.int64), full), name


def test_each_edge_is_measured_once_per_pass(monkeypatch):
    # per pass: the split phase's lengths, the collapse phase's lengths,
    # the flip phase's `at`, the score
    events, inside = [], [False]  # inside: in edge_lengths or min_angles
    edge_lengths, at, min_angles = FaceMetric.edge_lengths, FaceMetric.at, FaceMetric.min_angles

    def segments(P, Q):
        return [tuple(sorted(map(tuple, pq))) for pq in zip(np.asarray(P).tolist(),
                                                              np.asarray(Q).tolist())]

    def recording_lengths(self, P, Q):
        loop = sys._getframe(1).f_locals  # mesh_patch_uv's, as the phase starts
        mesh, pts = loop["mesh"], loop["mesh"].points
        split = sum(e[0] == "flip" for e in events) == sum(e[0] == "split" for e in events)
        if split:
            want = [e for e in mesh.edges() if e not in mesh.constrained]
        else:
            want = [e for e in mesh.edges() if e[1] >= loop["n_fixed"]]
            assert not mesh.constrained.intersection(want)
        events.append(("split" if split else "collapse", segments(P, Q),
                       sorted(tuple(sorted((pts[a], pts[b]))) for a, b in want)))
        inside[0] = True
        try:
            return edge_lengths(self, P, Q)
        finally:
            inside[0] = False

    def recording_at(self, X):
        if not inside[0]:
            events.append(("flip",))
        return at(self, X)

    def scoring(self, P):
        events.append(("score",))
        inside[0] = True
        try:
            return min_angles(self, P)
        finally:
            inside[0] = False

    monkeypatch.setattr(FaceMetric, "edge_lengths", recording_lengths)
    monkeypatch.setattr(FaceMetric, "at", recording_at)
    monkeypatch.setattr(FaceMetric, "min_angles", scoring)
    _, summary, _ = remesh_model(torus(nu=12, nv=6), PipelineOptions(size=0.6))
    total = sum(f["passes"] for f in summary["remesh_faces"])
    assert [e[0] for e in events] == ["split", "collapse", "flip", "score"] * total
    measured = [e for e in events if len(e) == 3]
    assert sum(len(got) for phase, got, _ in measured if phase == "collapse") > 0
    for phase, got, want in measured:
        assert len(set(got)) == len(got), phase  # no segment twice in a call
        assert sorted(got) == want, phase


ADAPT_CASES = [
    ("cube", cube, 0.25),
    ("sphere", lambda: sphere(3), 0.25),
    ("torus", torus, 0.3),
    ("cylinder", cylinder_shell, 0.3),
    ("plate", concave_hole_plate, 0.15),
    ("torus12x6", lambda: torus(nu=12, nv=6), 0.6),
    ("tube", cylinder_shell, 0.5),
    ("disk1_fine", lambda: random_disk_fixture(1), 0.2),
] + [(f"disk{seed}", lambda seed=seed: random_disk_fixture(seed), 0.3) for seed in range(4)]


@pytest.mark.parametrize("build,h", [c[1:] for c in ADAPT_CASES], ids=[c[0] for c in ADAPT_CASES])
def test_mesh_patch_uv_equals_the_serial_reference(build, h):
    atlas = build_atlas(build(), PipelineOptions(size=h))
    _, curves = boundary_samples(atlas, h)
    for face in range(len(atlas.brep.faces)):
        args = (atlas.patches[face], atlas.params[face], face_sample_loops(atlas, face, curves), h)
        try:
            pts, tris, ids, passes, converged, counts, best_pass, score = (
                reference_mesh_patch_uv(*args))
        except MeshError as exc:
            with pytest.raises(MeshError, match=str(exc)):
                mesh_patch_uv(*args)
            continue
        res, _ = mesh_patch_uv(*args)
        assert np.array_equal(res.uv_points, pts), face
        assert np.array_equal(res.triangles, tris), face
        assert np.array_equal(res.sample_ids, ids), face
        assert (res.passes, res.converged) == (passes, converged), face
        assert (res.best_pass, res.min_angle_p5) == (best_pass, score), face
        got = {key: getattr(res, key) for key in counts}
        assert got == counts, face


def test_percentile5_equals_numpy():
    rng = np.random.default_rng(5)
    for n in range(1, 120):  # both sides of each interpolation branch
        v = rng.uniform(0.0, 60.0, n) * rng.choice([1e-3, 1.0, 1e3])
        v[rng.integers(n)] = v[0]  # a tie
        assert percentile5(v) == np.percentile(v, 5), n


@pytest.mark.parametrize("build,h", [c[1:] for c in PIPELINE_FIXTURES],
                         ids=[c[0] for c in PIPELINE_FIXTURES])
def test_each_face_returns_its_best_pass(build, h, monkeypatch):
    atlas = build_atlas(build(), PipelineOptions(size=h))
    _, curves = boundary_samples(atlas, h)
    scores, min_angles = [], FaceMetric.min_angles

    def scoring(self, P):
        angles = min_angles(self, P)
        scores.append(percentile5(angles))
        return angles

    for face in range(len(atlas.brep.faces)):
        patch, param = atlas.patches[face], atlas.params[face]
        args = (patch, param, face_sample_loops(atlas, face, curves), h)
        scores.clear()
        with monkeypatch.context() as m:
            m.setattr(FaceMetric, "min_angles", scoring)
            res, _ = mesh_patch_uv(*args)
        assert len(scores) == res.passes, face
        assert res.min_angle_p5 == max(scores), face
        assert res.best_pass == scores.index(max(scores)) + 1, face
        assert res.passes - res.best_pass <= PATIENCE, face
        # a face stops PATIENCE passes after its last gain above SCORE_TOL
        gains = [k + 1 for k, s in enumerate(scores)
                 if s > max(scores[:k], default=-np.inf) + SCORE_TOL]
        assert res.passes - gains[-1] <= PATIENCE, face
        assert res.converged == (res.passes - gains[-1] == PATIENCE), face
        # the face returned is the mesh after its best pass, with that score
        cut, _ = mesh_patch_uv(*args, passes=res.best_pass)
        assert (cut.passes, cut.best_pass) == (res.best_pass, res.best_pass), face
        assert cut.min_angle_p5 == res.min_angle_p5, face
        for key in ("uv_points", "triangles", "sample_ids"):
            assert np.array_equal(getattr(cut, key), getattr(res, key)), (face, key)
        angles = FaceMetric(patch, param, h).min_angles(res.uv_points[res.triangles])
        assert percentile5(angles) == res.min_angle_p5
        assert percentile5(angles) == np.percentile(angles, 5)


def _bench_models():
    """(name, (path -> input mesh), h) of each seed-1 benchmark model, loaded
    from the file the benchmark writes."""
    out = []
    for workload, (specs, _) in sorted(run.WORKLOADS.items()):
        for i, (gen, params, fmt, h) in enumerate(specs):
            def build(path, kind=(gen, params, fmt), i=i):
                path = path / f"model.{kind[2]}"
                models.build(kind, 1, i, path)
                return load_surface(path)
            out.append((f"{workload}-{gen}", build, h))
    return out


DOMAIN_CASES = [
    (name, lambda path, build=build: build(), h) for name, build, h in PIPELINE_FIXTURES
] + [
    (f"disk{seed}", lambda path, seed=seed: random_disk_fixture(seed), 0.15) for seed in range(4)
] + _bench_models()


@pytest.mark.parametrize("build,h", [c[1:] for c in DOMAIN_CASES], ids=[c[0] for c in DOMAIN_CASES])
def test_interior_vertices_lie_in_their_face_domain(build, h, tmp_path, monkeypatch):
    # smoothing moves a vertex without locating its target: the parametric
    # domain must still hold every interior output vertex, unclamped
    faces = []
    map_to_3d = pipeline.map_to_3d

    def record(result, locator, *args):
        faces.append((result, locator))
        return map_to_3d(result, locator, *args)

    monkeypatch.setattr(pipeline, "map_to_3d", record)
    remesh_model(build(tmp_path), PipelineOptions(size=h))
    inner = [(res.uv_points[res.sample_ids < 0], loc) for res, loc in faces]
    assert sum(len(q) for q, _ in inner) > 0
    for q, loc in inner:
        loc.locate_many(q, clamp=False)


def test_interior_vertices_are_the_float_product_sum(monkeypatch):
    # (b0 c0 + b1 c1) + b2 c2 per coordinate, as Python floats round it: no
    # matmul kernel, fused or blocked, decides an output coordinate
    faces = []
    map_to_3d = pipeline.map_to_3d

    def record(result, locator, patch, sample_xyz):
        out = map_to_3d(result, locator, patch, sample_xyz)
        faces.append((result, locator, patch, out))
        return out

    monkeypatch.setattr(pipeline, "map_to_3d", record)
    remesh_model(torus(nu=12, nv=6), PipelineOptions(size=0.6))
    rows = 0
    for result, locator, patch, out in faces:
        inner = np.flatnonzero(result.sample_ids < 0)
        t, bary = locator.locate_many(result.uv_points[inner], clamp=True)
        corners = patch.tri.vertices[patch.tri.triangles[t]].tolist()
        for row, (b0, b1, b2), (c0, c1, c2) in zip(out[inner].tolist(), bary.tolist(), corners):
            assert row == [(b0 * x + b1 * y) + b2 * z for x, y, z in zip(c0, c1, c2)]
        rows += len(inner)
    assert rows > 0


# Sweep cases whose UV loops Qhull triangulates with slivers over nearly
# collinear boundary samples, and two where a sliver right of a loop edge
# has a centroid of winding number 1 by rounding.
SLIVER_CASES = [
    ("plate", 0.25, (77, 1)),
    *(("disk0", h, placement) for h in (0.15, 0.2) for placement in ((77, 0), (77, 2))),
    *(("disk1", h, placement) for h in (0.15, 0.2, 0.25, 0.3) for placement in PLACEMENTS),
    ("torus", 0.25, (77, 0)),
    ("disk0", 0.25, None),
]


def _orientation_faults(points, triangles, loop_edges):
    """(directed edges held by two triangles, triangles of area <= 0, loop
    edges (a, b) not held by exactly one triangle, on their left)."""
    t = np.asarray(triangles, dtype=np.int64)
    directed = Counter(map(tuple, np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]).tolist()))
    shared = sum(n > 1 for n in directed.values())
    flat = int((signed_uv_areas(t, points) <= 0.0).sum())
    lonely = sum(directed[(a, b)] != 1 or (b, a) in directed for a, b in loop_edges)
    return shared, flat, lonely


@pytest.mark.parametrize("name,h,placement", SLIVER_CASES,
                         ids=[f"{n}-{h}-{'unmoved' if p is None else 'place%d' % p[1]}"
                              for n, h, p in SLIVER_CASES])
def test_one_triangle_per_directed_edge_after_the_clip(name, h, placement):
    atlas = build_atlas(case_mesh(name, placement), PipelineOptions(size=h))
    _, curves = boundary_samples(atlas, h)
    for face in range(len(atlas.brep.faces)):
        loops = face_sample_loops(atlas, face, curves)
        points = np.concatenate([uv for _, uv in loops])
        sizes = [len(ids) for ids, _ in loops]
        loop_edges = [(s + k, s + (k + 1) % n) for s, n in zip(np.cumsum([0] + sizes).tolist(), sizes)
                      for k in range(n)]
        mesh = constrained_triangulation(points, loop_edges)
        clip_to_loops(mesh, loop_edges)
        live = [tri for tri in mesh.tris if tri is not None]
        assert _orientation_faults(mesh.points, live, loop_edges) == (0, 0, 0), face
        res, _ = mesh_patch_uv(atlas.patches[face], atlas.params[face], loops, h)
        assert np.array_equal(res.uv_points[:len(points)], points), face
        assert _orientation_faults(res.uv_points, res.triangles, loop_edges) == (0, 0, 0), face


def test_stitch_dedupes_shared_keys():
    uv = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    tris = np.array([[0, 1, 2]])
    xyz_a = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    xyz_b = np.array([[1, 0, 0], [0, 0, 0], [0, 1, 5]], dtype=float)
    a = FaceMeshResult(uv, tris, np.array([0, 1, -1]), xyz=xyz_a)
    b = FaceMeshResult(uv, tris, np.array([1, 0, -1]), xyz=xyz_b)
    out = stitch([a, b])
    assert out.n_vertices == 4  # two shared + two private
    assert np.array_equal(out.vertices, [xyz_a[0], xyz_a[1], xyz_a[2], xyz_b[2]])
    assert out.triangles.tolist() == [[0, 1, 2], [1, 0, 3]]
    assert out.n_triangles == 2
    assert out.patch_tags.tolist() == [0, 1]


def test_face_sample_loops_are_closed_and_on_disk():
    mesh = cylinder_shell()
    opt = PipelineOptions(size=0.3)
    atlas = build_atlas(mesh, opt)
    sample_xyz, curves = boundary_samples(atlas, 0.3)
    loops = face_sample_loops(atlas, 0, curves)
    assert len(loops) == 2
    ids = np.concatenate([loop_ids for loop_ids, _ in loops])
    assert len(ids) == len(np.unique(ids))  # no duplicate samples in a face
    assert all(len(loop_ids) == len(uv) for loop_ids, uv in loops)
    assert 0 <= ids.min() and ids.max() < len(sample_xyz)


def test_remesh_requires_size():
    with pytest.raises(MeshError):
        remesh_model(cube(), PipelineOptions())


def test_remesh_output_scales_with_size():
    mesh = cube()
    coarse, _, _ = remesh_model(mesh, PipelineOptions(size=0.5))
    fine, _, _ = remesh_model(mesh, PipelineOptions(size=0.25))
    assert fine.n_triangles > coarse.n_triangles
    for out in (coarse, fine):
        assert validate(out).watertight


def test_remesh_plate_keeps_hole():
    mesh = concave_hole_plate()
    out, summary, _ = remesh_model(mesh, PipelineOptions(size=0.2))
    assert summary["output_boundary_loops"] == 2


def test_summary_reports_adaptation_per_face():
    _, summary, atlas = remesh_model(cube(), PipelineOptions(size=0.25))
    faces = summary["remesh_faces"]
    assert len(faces) == len(atlas.brep.faces)
    for face in faces:
        assert 1 <= face["best_pass"] <= face["passes"] <= 10
        assert isinstance(face["converged"], bool)
        assert face["converged"] or face["passes"] == 10  # stops early only by the rule
        assert face["passes"] - face["best_pass"] <= PATIENCE
        assert 0.0 < face["min_angle_p5"] <= 60.0
    assert any(face["passes"] < 10 for face in faces)


def test_one_locator_per_face(monkeypatch):
    built = []

    class CountingLocator(UVLocator):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(remesh, "UVLocator", CountingLocator)
    _, _, atlas = remesh_model(cube(), PipelineOptions(size=0.25))
    assert len(built) == len(atlas.brep.faces)


def test_remesh_edge_lengths_near_target():
    mesh = cube()
    h = 0.25
    out, _, _ = remesh_model(mesh, PipelineOptions(size=h))
    edges = set()
    for t in out.triangles:
        for k in range(3):
            a, b = int(t[k]), int(t[(k + 1) % 3])
            edges.add((a, b) if a < b else (b, a))
    lens = np.array([
        np.linalg.norm(out.vertices[a] - out.vertices[b]) for a, b in edges
    ])
    assert 0.3 * h < np.median(lens) < 2.0 * h


def test_failed_output_validation_names_checks_triangles_and_faces():
    # the moved plate ends with zero-area triangles of interior vertices
    # (ROADMAP item 3); once they are gone the run simply passes
    mesh = concave_hole_plate()
    moved = Triangulation(models.place(mesh.vertices, 77, 6), mesh.triangles)
    try:
        out, _, _ = remesh_model(moved, PipelineOptions(size=0.2))
    except MeshError as exc:
        assert re.search(r"failed validation: degenerate \(triangles \[[\d, ]+\] on faces \[0\]\)",
                         str(exc))
    else:
        assert validate(out).ok


def test_validation_error_names_a_degenerate_triangle_and_its_face(monkeypatch):
    # the moved plate above no longer fails, so break one stitched triangle
    # of face 2 on purpose: its third corner moves to a new vertex on the
    # midpoint of its first edge
    stitch_faces = pipeline.stitch

    def degenerate(faces):
        out = stitch_faces(faces)
        t = int(np.flatnonzero(out.patch_tags == 2)[0])
        a, b = out.vertices[out.triangles[t, :2]]
        tris = out.triangles.copy()
        tris[t, 2] = out.n_vertices
        return Triangulation(np.vstack([out.vertices, (a + b) / 2.0]), tris,
                             patch_tags=out.patch_tags)

    monkeypatch.setattr(pipeline, "stitch", degenerate)
    with pytest.raises(MeshError, match=r"failed validation: degenerate \(triangles \[\d+\] on faces \[2\]\)$"):
        remesh_model(cube(), PipelineOptions(size=0.5))
