"""End-to-end pipeline: features -> atlas -> parametrize -> remesh -> stitch."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .atlas import AtlasLimits, BRep, build_brep, make_parametrizable
from .features import detect_feature_edges, segment_patches
from .mesh import Adjacency, MeshError, Triangulation, validate
from .param import ParamOptions, parametrize
from .patch import Patch
from .quality import patch_quality
from .refine import longest_edge_bisection
from .remesh import SizeField, discretize_curve, map_to_3d, mesh_patch_uv, stitch


@dataclass
class PipelineOptions:
    angle_deg: float = 40.0
    size: float | None = None
    scheme: str = "mvc"
    hole_policy: str = "auto"
    hole_threshold: int = 100
    max_triangles: int = 100_000
    refine_threshold: float | str | None = "auto"  # None disables refinement
    refine_rounds: int = 10
    threads: int = 1


@dataclass
class AtlasResult:
    model: Triangulation
    patches: list
    params: list
    brep: BRep
    summary: dict = field(default_factory=dict)


def _param_options(opt: PipelineOptions):
    return ParamOptions(
        scheme=opt.scheme,
        hole_policy=opt.hole_policy,
        hole_threshold=opt.hole_threshold,
    )


def build_atlas(model: Triangulation, opt: PipelineOptions | None = None) -> AtlasResult:
    """Segment, split until parametrizable, refine, parametrize, build BREP."""
    opt = opt or PipelineOptions()
    t0 = time.perf_counter()
    adj = Adjacency(model)
    report = validate(model, adj)
    if not report.ok:
        raise MeshError(
            "input rejected: manifold=%s oriented=%s degenerate=%d"
            % (report.manifold, report.oriented, len(report.degenerate_triangles))
        )
    features = detect_feature_edges(model, adj, opt.angle_deg)
    segmentation = segment_patches(model, adj, features)
    limits = AtlasLimits(max_triangles=opt.max_triangles)
    popt = _param_options(opt)

    patches = []
    split_records = []
    for pid in range(segmentation.n_patches):
        seed = Patch(model, segmentation.triangles_of(pid))
        parts, records = make_parametrizable(seed, limits, popt)
        patches.extend(parts)
        split_records.extend(records)
    patches.sort(key=lambda p: int(p.triangle_ids.min()))

    brep = build_brep(model, patches)

    def prepare(face_id):
        p = brep.faces[face_id].patch
        report = None
        if opt.refine_threshold is not None:
            thr = (
                None if opt.refine_threshold == "auto" else float(opt.refine_threshold)
            )
            p, report = longest_edge_bisection(
                p, length_threshold=thr, max_rounds=opt.refine_rounds,
                split_boundary=False,
            )
        return p, parametrize(p, popt), report

    results = _run_parallel(prepare, range(len(brep.faces)), opt.threads)
    refined = [r[0] for r in results]
    params = [r[1] for r in results]

    summary = {
        "input_triangles": model.n_triangles,
        "feature_edges": len(features.edges),
        "initial_patches": segmentation.n_patches,
        "final_patches": len(patches),
        "split_reasons": [
            {"size": r.patch_size, "reason": r.reason} for r in split_records
        ],
        "curves": len(brep.curves),
        "points": len(brep.points),
        "faces": [
            {
                "triangles": p.n_triangles,
                "injective": bool(pr.injective),
                "residual": pr.residual,
                "refine": None if rep is None else asdict(rep),
            }
            for p, pr, rep in results
        ],
        "atlas_seconds": time.perf_counter() - t0,
    }
    return AtlasResult(
        model=model, patches=refined, params=params, brep=brep, summary=summary
    )


def _run_parallel(fn, items, threads):
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _sample_key(curve_id, curve, k, nsamples, closed):
    if closed:
        return ("c", curve_id, k)
    if k == 0:
        return ("p", curve.vertices[0])
    if k == nsamples - 1:
        return ("p", curve.vertices[-1])
    return ("c", curve_id, k)


def face_sample_loops(atlas: AtlasResult, face_id, discretized):
    """Boundary sample loops of a face: (key, uv, xyz) in walk order."""
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
                key = _sample_key(cid, curve, k, n, curve.closed)
                seq.append((key, uv, xyz[k]))
            if not curve.closed:
                seq = seq[:-1]  # endpoint repeats as the next curve's start
            entries.extend(seq)
        loops.append(entries)
    return loops


def remesh_model(model: Triangulation, opt: PipelineOptions | None = None):
    """Full pipeline; returns (output mesh, summary, atlas result)."""
    opt = opt or PipelineOptions()
    if opt.size is None:
        raise MeshError("remesh requires a target size")
    t0 = time.perf_counter()
    atlas = build_atlas(model, opt)
    size = SizeField(opt.size)

    discretized = {}
    for cid, curve in enumerate(atlas.brep.curves):
        pts = atlas.brep.curve_points(model, cid)
        discretized[cid] = discretize_curve(pts, size.h, closed=curve.closed)

    def mesh_face(face_id):
        loops = face_sample_loops(atlas, face_id, discretized)
        res = mesh_patch_uv(
            atlas.patches[face_id], atlas.params[face_id], loops, size
        )
        xyz = map_to_3d(res, atlas.patches[face_id])
        return res, xyz

    meshed = _run_parallel(mesh_face, range(len(atlas.brep.faces)), opt.threads)
    out = stitch([m[0] for m in meshed], [m[1] for m in meshed])

    out_report = validate(out)
    if not out_report.ok:
        raise MeshError("remeshed output failed validation")
    summary = dict(atlas.summary)
    summary.update(
        {
            "output_triangles": out.n_triangles,
            "output_vertices": out.n_vertices,
            "output_boundary_loops": out_report.boundary_loop_count,
            "output_watertight": out_report.watertight,
            "remesh_faces": [
                {"passes": res.passes, "converged": res.converged}
                for res, _ in meshed
            ],
            "total_seconds": time.perf_counter() - t0,
        }
    )
    return out, summary, atlas


def quality_report(atlas: AtlasResult):
    """Per-face singular-value statistics of the parametrizations."""
    out = []
    for fid, (p, pr) in enumerate(zip(atlas.patches, atlas.params)):
        rep = patch_quality(p, pr)
        entry = {"face": fid, **rep.summary()}
        out.append(entry)
    return out
