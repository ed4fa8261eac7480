"""End-to-end pipeline: features -> atlas -> parametrize -> remesh -> stitch."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .atlas import BRep, build_brep, make_parametrizable
from .features import detect_feature_edges, feature_corners, segment_patches
from .mesh import Adjacency, MeshError, Triangulation, validate
from .param import ParamOptions, Parametrization, projection
from .param import parametrize as disk_map  # the name `parametrize` is this module's face map
from .patch import Patch
from .quality import patch_quality
from .refine import longest_edge_bisection
from .remesh import discretize_curve, map_to_3d, mesh_patch_uv, stitch


@dataclass
class PipelineOptions(ParamOptions):
    """Every setting of a run: the flattening options, plus these."""

    angle_deg: float = 40.0
    size: float | None = None
    max_triangles: int = 100_000
    refine_threshold: float | str | None = "auto"  # None disables refinement
    refine_rounds: int = 10


@dataclass
class AtlasResult:
    model: Triangulation
    patches: list
    params: list
    brep: BRep
    summary: dict = field(default_factory=dict)


def build_atlas(model: Triangulation, opt: PipelineOptions | None = None) -> AtlasResult:
    """Segment; split, refine and parametrize each patch; build the BREP."""
    opt = opt or PipelineOptions()
    if model.n_triangles == 0:
        raise MeshError("input has no triangles")
    opt.check()
    if opt.max_triangles < 1:
        raise MeshError(f"max_triangles must be at least 1, got {opt.max_triangles}")
    # None: each patch's default_threshold, or no refinement at all
    thr = None if opt.refine_threshold in ("auto", None) else float(opt.refine_threshold)
    if thr is not None and not 0.0 < thr < np.inf:
        raise MeshError(f"refinement threshold must be finite and positive, got {thr}")
    if opt.refine_rounds < 0:
        raise MeshError(f"refinement rounds must be at least 0, got {opt.refine_rounds}")
    t0 = time.perf_counter()
    adj = Adjacency(model)
    report = validate(model, adj)
    if not report.ok:
        raise MeshError(
            "input rejected: manifold=%s oriented=%s degenerate=%d duplicate=%d"
            % (report.manifold, report.oriented, len(report.degenerate_triangles),
               len(report.duplicate_triangles))
        )
    features = detect_feature_edges(model, adj, opt.angle_deg)
    labels = segment_patches(model, adj, features)

    def prepare(p):
        # a planar patch is projected, and needs no refinement; a refined
        # patch is a different patch, with its own test
        report, flat = None, projection(p)
        if opt.refine_threshold is not None and flat is None:
            p, report = longest_edge_bisection(
                p, length_threshold=thr, max_rounds=opt.refine_rounds
            )
            flat = projection(p)
        return p, parametrize(p, opt, flat), report

    n_patches = int(labels.max()) + 1
    seeds = [Patch(model, np.flatnonzero(labels == pid)) for pid in range(n_patches)]
    results, split_records = make_parametrizable(seeds, opt.max_triangles, prepare)
    patches = [r[0] for r in results]
    brep = build_brep(model, patches, feature_corners(model, adj, features, opt.angle_deg))

    summary = {
        "input_triangles": model.n_triangles,
        "feature_edges": int(features.sum()),
        "initial_patches": n_patches,
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
        model=model, patches=patches, params=[r[1] for r in results],
        brep=brep, summary=summary,
    )


def parametrize(patch: Patch, opt: ParamOptions, flat: Parametrization | None):
    """A face's map: `flat`, the projection of a planar patch onto its plane
    (`param.projection(patch)`), else the disk map."""
    return disk_map(patch, opt) if flat is None else flat


REMESH_FACE_KEYS = ("passes", "converged", "best_pass", "min_angle_p5",
                    "splits", "collapses", "flips", "moves")


def _run_parallel(fn, items, threads):
    """[fn(it) for it in items], in order.  `threads` has no effect: the
    interpreter lock held the remesh, so a pool only added cost.  The
    signature stays because `bench/spans.py` wraps this map."""
    return [fn(it) for it in items]


def boundary_samples(atlas: AtlasResult, h):
    """The run's boundary-sample table, shared by every face.

    Returns ((S, 3) sample positions, per curve (ids, seg, frac)).
    Samples 0..P-1 are the BREP corners at their model coordinates; the
    other samples of each curve follow in curve order.  A curve's ids,
    segment indices and fractions run along its discretization, so the
    end samples of an open curve are the ids of its corners.
    """
    brep, model = atlas.brep, atlas.model
    corners = np.asarray(brep.points, dtype=np.int64)
    xyz = [model.vertices[corners]]
    n = len(corners)
    curves = []
    for cid, curve in enumerate(brep.curves):
        seg, frac, pos = discretize_curve(
            brep.curve_points(model, cid), h, closed=curve.closed
        )
        own = slice(None) if curve.closed else slice(1, -1)
        ids = np.empty(len(seg), dtype=np.int64)
        ids[own] = n + np.arange(len(ids[own]))
        if not curve.closed:
            ids[[0, -1]] = np.searchsorted(corners, [curve.vertices[0], curve.vertices[-1]])
        xyz.append(pos[own])
        n += len(xyz[-1])
        curves.append((ids, seg, frac))
    return np.concatenate(xyz), curves


def face_sample_loops(atlas: AtlasResult, face_id, curves):
    """Boundary loops of a face in walk order, each as (ids, uv) arrays.

    `curves` is the per-curve part of `boundary_samples`.  A sample's UV
    point interpolates the ends of its segment in the face's map.
    """
    uv = atlas.params[face_id].uv
    lidx = atlas.patches[face_id].local_index()
    loops = []
    for cyc in atlas.brep.faces[face_id].loops:
        ids, points = [], []
        for cid, forward in cyc:
            curve = atlas.brep.curves[cid]
            curve_ids, seg, frac = curves[cid]
            local = np.asarray([lidx[g] for g in curve.vertices])
            a, b = uv[local[seg]], uv[local[(seg + 1) % len(local)]]
            order = np.arange(len(seg))[:: 1 if forward else -1]
            if not curve.closed:
                order = order[:-1]  # the end repeats as the next curve's start
            ids.append(curve_ids[order])
            points.append(((1.0 - frac)[:, None] * a + frac[:, None] * b)[order])
        loops.append((np.concatenate(ids), np.concatenate(points)))
    return loops


def _validation_error(out: Triangulation, report):
    """A MeshError naming each failed output check, its triangles and faces."""
    adj = Adjacency(out)
    bad_edges = {"manifold": adj.edge_count > 2, "oriented": adj.misoriented}
    faults = {name: np.unique(np.flatnonzero(bad[adj.half_edge]) // 3)
              for name, bad in bad_edges.items()}
    faults["degenerate"] = np.asarray(report.degenerate_triangles, dtype=np.int64)
    faults["duplicate"] = np.asarray(report.duplicate_triangles, dtype=np.int64)
    parts = [
        f"{name} (triangles {ids[:10].tolist()} on faces {np.unique(out.patch_tags[ids]).tolist()})"
        for name, ids in faults.items() if len(ids)
    ]
    return MeshError("remeshed output failed validation: " + "; ".join(parts))


def mesh_face(job):
    """Mesh one face in its UV plane; the FaceMeshResult has `xyz` set.

    `job` is (face id, patch, parametrization, `face_sample_loops` loops,
    h, sample table) and holds nothing else of the run, so it pickles.
    A MeshError raised inside is re-raised naming the face.
    """
    fid, patch, param, loops, h, sample_xyz = job
    try:
        res, locator = mesh_patch_uv(patch, param, loops, h)
        res.xyz = map_to_3d(res, locator, patch, sample_xyz)
    except MeshError as exc:
        raise MeshError(f"face {fid}: {exc}") from exc
    return res


def remesh_model(model: Triangulation, opt: PipelineOptions | None = None):
    """Full pipeline; returns (output mesh, summary, atlas result)."""
    opt = opt or PipelineOptions()
    if opt.size is None or not 0.0 < opt.size < np.inf:
        raise MeshError(f"target size must be finite and positive, got {opt.size}")
    t0 = time.perf_counter()
    atlas = build_atlas(model, opt)
    sample_xyz, curves = boundary_samples(atlas, opt.size)
    jobs = [(fid, p, pr, face_sample_loops(atlas, fid, curves), opt.size, sample_xyz)
            for fid, (p, pr) in enumerate(zip(atlas.patches, atlas.params))]
    faces = _run_parallel(mesh_face, jobs, 1)
    out = stitch(faces)

    out_report = validate(out)
    if not out_report.ok:
        raise _validation_error(out, out_report)
    summary = dict(atlas.summary)
    summary.update(
        {
            "output_triangles": out.n_triangles,
            "output_vertices": out.n_vertices,
            "output_boundary_loops": out_report.boundary_loop_count,
            "output_watertight": out_report.watertight,
            "remesh_faces": [{k: getattr(res, k) for k in REMESH_FACE_KEYS} for res in faces],
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
