"""Integer boundary-sample ids against the tuple keys they replaced.

The reference functions below are the per-sample loop code: curve
discretization, face sample loops keyed by `('c', curve, k)` or
`('p', vertex)` tuples, and the stitch that merged vertices by those
keys.  On the per-face results of the five pipeline fixtures, the sample
table must give every tuple key one id, the face loops the same samples
and UV points bit for bit, and `stitch` the same vertices, triangles and
tags.
"""

import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell, sphere, torus

from atlasmesh.mesh import Triangulation
from atlasmesh.pipeline import (
    PipelineOptions,
    boundary_samples,
    build_atlas,
    face_sample_loops,
    mesh_face,
)
from atlasmesh.remesh import discretize_curve, stitch

FIXTURES = [
    ("cube", cube, 0.25),
    ("sphere", lambda: sphere(3), 0.25),
    ("torus", torus, 0.3),
    ("cylinder", cylinder_shell, 0.3),
    ("plate", concave_hole_plate, 0.15),
]

# -- reference: the tuple-key code --------------------------------------------


def ref_discretize_curve(points3d, h, closed=False):
    pts = np.asarray(points3d, dtype=np.float64)
    nseg_in = len(pts) if closed else len(pts) - 1
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
            samples.append((nseg_in - 1, 1.0))
            xyz.append(pts[-1])
            continue
        seg = int(np.searchsorted(cum, s, side="right")) - 1
        seg = min(max(seg, 0), nseg_in - 1)
        frac = (s - cum[seg]) / seg_len[seg] if seg_len[seg] > 0.0 else 0.0
        samples.append((seg, float(frac)))
        xyz.append(pts[seg] + frac * seg_vec[seg])
    return samples, np.asarray(xyz)


def ref_sample_key(curve_id, curve, k, nsamples, closed):
    if closed:
        return ("c", curve_id, k)
    if k == 0:
        return ("p", curve.vertices[0])
    if k == nsamples - 1:
        return ("p", curve.vertices[-1])
    return ("c", curve_id, k)


def ref_face_sample_loops(atlas, face_id, discretized):
    face = atlas.brep.faces[face_id]
    patch = atlas.patches[face_id]
    param = atlas.params[face_id]
    lidx = patch.local_index()
    loops = []
    for cyc in face.loops:
        entries = []
        for cid, forward in cyc:
            curve = atlas.brep.curves[cid]
            samples, xyz = discretized[cid]
            n = len(samples)
            order = range(n) if forward else range(n - 1, -1, -1)
            seq = []
            for k in order:
                seg, frac = samples[k]
                ga = curve.vertices[seg]
                gb = curve.vertices[(seg + 1) % len(curve.vertices)]
                uv = (1.0 - frac) * param.uv[lidx[ga]] + frac * param.uv[lidx[gb]]
                key = ref_sample_key(cid, curve, k, n, curve.closed)
                seq.append((key, uv, xyz[k]))
            if not curve.closed:
                seq = seq[:-1]
            entries.extend(seq)
        loops.append(entries)
    return loops


def ref_stitch(face_results, face_xyz, boundary_keys):
    key_gid = {}
    verts = []
    tris = []
    tags = []
    for fid, (res, xyz, bkey) in enumerate(zip(face_results, face_xyz, boundary_keys)):
        local_gid = {}
        for v in range(len(res.uv_points)):
            key = bkey.get(v)
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
            tags.append(fid)
    return Triangulation(
        np.asarray(verts), np.asarray(tris, dtype=np.int64),
        patch_tags=np.asarray(tags, dtype=np.int64),
    )


# -- comparisons --------------------------------------------------------------


@pytest.fixture(scope="module", params=FIXTURES, ids=[f[0] for f in FIXTURES])
def run(request):
    _, build, h = request.param
    mesh = build()
    atlas = build_atlas(mesh, PipelineOptions(size=h))
    sample_xyz, curves = boundary_samples(atlas, h)
    faces = [
        mesh_face((fid, patch, param, face_sample_loops(atlas, fid, curves), h, sample_xyz))
        for fid, (patch, param) in enumerate(zip(atlas.patches, atlas.params))
    ]
    return mesh, atlas, h, sample_xyz, curves, faces


def _key_of_id(atlas, curves):
    """Sample id -> tuple key, requiring a one-to-one match."""
    key_of, id_of = {}, {}
    for cid, curve in enumerate(atlas.brep.curves):
        ids = curves[cid][0]
        for k, sid in enumerate(ids.tolist()):
            key = ref_sample_key(cid, curve, k, len(ids), curve.closed)
            assert key_of.setdefault(sid, key) == key
            assert id_of.setdefault(key, sid) == sid
    return key_of


def test_discretize_curve_equals_loop(run):
    mesh, atlas, h, _, _, _ = run
    rng = np.random.default_rng(0)
    cases = [(atlas.brep.curve_points(mesh, cid), h, c.closed)
             for cid, c in enumerate(atlas.brep.curves)]
    cases += [(rng.normal(size=(k, 3)), 0.3, closed)
              for k in (2, 3, 7) for closed in (False, True)]
    cases += [(np.array([[-0.3, 0.2, 0.0], [0.1, 0.9, 0.4], [0.7, 0.35, -0.2]]), 0.3, False)]
    for pts, hh, closed in cases:
        samples, xyz_ref = ref_discretize_curve(pts, hh, closed)
        seg, frac, xyz = discretize_curve(pts, hh, closed)
        assert [(int(s), float(f)) for s, f in zip(seg, frac)] == samples
        assert np.array_equal(xyz, xyz_ref)


def test_sample_table_matches_tuple_keys(run):
    mesh, atlas, h, sample_xyz, curves, _ = run
    key_of = _key_of_id(atlas, curves)
    assert sorted(key_of) == list(range(len(sample_xyz)))  # every row is a sample
    corners = atlas.brep.points
    assert [key_of[i] for i in range(len(corners))] == [("p", v) for v in corners]
    assert np.array_equal(sample_xyz[: len(corners)], mesh.vertices[corners])
    discretized = {
        cid: ref_discretize_curve(atlas.brep.curve_points(mesh, cid), h, c.closed)
        for cid, c in enumerate(atlas.brep.curves)
    }
    for fid in range(len(atlas.brep.faces)):
        loops = face_sample_loops(atlas, fid, curves)
        ref = ref_face_sample_loops(atlas, fid, discretized)
        assert len(loops) == len(ref)
        for (ids, uv), entries in zip(loops, ref):
            assert [key_of[i] for i in ids.tolist()] == [key for key, _, _ in entries]
            assert np.array_equal(uv, [p for _, p, _ in entries])
            assert np.array_equal(sample_xyz[ids], [x for _, _, x in entries])


def test_stitch_equals_tuple_key_stitch(run):
    _, atlas, _, _, curves, faces = run
    key_of = _key_of_id(atlas, curves)
    keys = [{v: key_of[s] for v, s in enumerate(res.sample_ids.tolist()) if s >= 0}
            for res in faces]
    out = stitch(faces)
    ref = ref_stitch(faces, [res.xyz for res in faces], keys)
    assert np.array_equal(out.vertices, ref.vertices)
    assert np.array_equal(out.triangles, ref.triangles)
    assert np.array_equal(out.patch_tags, ref.patch_tags)
