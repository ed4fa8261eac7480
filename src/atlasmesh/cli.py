"""Command-line interface: info / atlas / remesh / convergence / quality."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys

import numpy as np

from . import io
from .mesh import Adjacency, MeshError, Triangulation, euler_check, validate
from .param import HOLE_POLICIES, SCHEMES
from .pipeline import AtlasResult, PipelineOptions, build_atlas, quality_report, remesh_model
from .verify import convergence_study

log = logging.getLogger("atlasmesh")


def _add_common(p):
    p.add_argument("input", help="input mesh (stl, obj, msh)")
    p.add_argument("--format", choices=io.FORMATS, default=None,
                   help="override format sniffed from the extension")
    p.add_argument("--weld-tolerance", type=float, default=0.0)


def _add_atlas_flags(p):
    d = PipelineOptions()
    p.add_argument("--angle", type=float, default=d.angle_deg,
                   help="feature dihedral threshold, and the turn that makes a feature "
                   "curve's vertex a corner, in degrees; 180 disables both")
    p.add_argument("--scheme", choices=SCHEMES, default=d.scheme)
    p.add_argument("--hole-policy", choices=HOLE_POLICIES, default=d.hole_policy)
    p.add_argument("--hole-threshold", type=int, default=d.hole_threshold)
    p.add_argument("--max-triangles", type=int, default=d.max_triangles)
    p.add_argument("--refine-threshold", default=d.refine_threshold,
                   help="edge length, 'auto', or 'off'")
    p.add_argument("--refine-rounds", type=int, default=d.refine_rounds)


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser():
    ap = argparse.ArgumentParser(
        prog="atlasmesh",
        description="Atlas-of-parametrizations surface remesher",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="validate and report topology")
    _add_common(p)

    p = sub.add_parser("atlas", help="build and write the tagged atlas")
    _add_common(p)
    _add_atlas_flags(p)
    p.add_argument("-o", "--output", required=True, help="output .msh path")
    p.add_argument("--uv-dump", default=None,
                   help="write per-patch UV text files under this prefix")

    p = sub.add_parser("remesh", help="full pipeline to a new mesh")
    _add_common(p)
    _add_atlas_flags(p)
    p.add_argument("--size", type=float, required=True,
                   help="target edge length of the output mesh")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; must be at least 1")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("quality", help="per-patch parametrization quality")
    _add_common(p)
    _add_atlas_flags(p)

    p = sub.add_parser("convergence", help="Laplace scheme convergence study")
    p.add_argument("--scheme", choices=SCHEMES, default="mvc")
    p.add_argument("--mesh", choices=["structured", "delaunay"],
                   default="structured")
    p.add_argument("--resolutions", default=None,
                   help="comma-separated grid resolutions")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", default=None,
                   help="CSV path (h, L2, H1); slopes JSON written alongside")
    return ap


def _options(args):
    thr = args.refine_threshold
    if thr == "off":
        thr = None
    elif thr != "auto":
        thr = float(thr)
    return PipelineOptions(
        angle_deg=args.angle,
        size=getattr(args, "size", None),
        scheme=args.scheme,
        hole_policy=args.hole_policy,
        hole_threshold=args.hole_threshold,
        max_triangles=args.max_triangles,
        refine_threshold=thr,
        refine_rounds=args.refine_rounds,
    )


def _load(args) -> Triangulation:
    return io.load_surface(args.input, format=args.format,
                           weld_tolerance=args.weld_tolerance)


def _write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _atlas_mesh(atlas: AtlasResult) -> Triangulation:
    """Input geometry with one patch tag per triangle."""
    tags = np.zeros(atlas.model.n_triangles, dtype=np.int64)
    for fid, face in enumerate(atlas.brep.faces):
        # a refined triangle names the model triangle it lies in
        tags[face.patch.triangle_ids] = fid + 1
    return Triangulation(atlas.model.vertices, atlas.model.triangles,
                         patch_tags=tags)


def cmd_info(args):
    mesh = _load(args)
    adj = Adjacency(mesh)
    report = validate(mesh, adj)
    topology = dict.fromkeys(
        ("euler_characteristic", "genus", "holes", "parametrizable", "formula_residual"))
    if report.manifold and report.oriented:  # euler_check raises on any other mesh
        topo, parametrizable = euler_check(mesh, adj)
        topology.update(euler_characteristic=topo.p - topo.e + topo.t, genus=topo.g,
                        holes=topo.h, parametrizable=parametrizable,
                        formula_residual=topo.formula_residual())
    out = {
        "vertices": mesh.n_vertices,
        "triangles": mesh.n_triangles,
        "manifold": report.manifold,
        "oriented": report.oriented,
        "watertight": report.watertight,
        "boundary_loops": report.boundary_loop_count,
        "degenerate_triangles": len(report.degenerate_triangles),
        **topology,
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_atlas(args):
    mesh = _load(args)
    atlas = build_atlas(mesh, _options(args))
    io.write_mesh(_atlas_mesh(atlas), args.output, brep=atlas.brep)
    _write_summary(args.output + ".json", atlas.summary)
    if args.uv_dump:
        for fid, (patch, param) in enumerate(zip(atlas.patches, atlas.params)):
            with open(f"{args.uv_dump}_{fid}.txt", "w") as fh:
                for lv in range(patch.tri.n_vertices):
                    gid = int(patch.global_vertices[lv])
                    fh.write("%d %.17g %.17g\n" % (gid, *param.uv[lv]))
    log.info("atlas: %d faces, %d curves", len(atlas.brep.faces),
             len(atlas.brep.curves))
    return 0


def cmd_remesh(args):
    if args.threads < 1:
        raise MeshError(f"threads must be at least 1, got {args.threads}")
    mesh = _load(args)
    out, summary, _atlas = remesh_model(mesh, _options(args))
    io.write_mesh(out, args.output)
    _write_summary(args.output + ".json", summary)
    return 0


def cmd_quality(args):
    mesh = _load(args)
    atlas = build_atlas(mesh, _options(args))
    json.dump(quality_report(atlas), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_convergence(args):
    kwargs = {"seed": args.seed}
    if args.resolutions:
        kwargs["resolutions"] = tuple(
            int(s) for s in args.resolutions.split(",")
        )
    res = convergence_study(args.scheme, args.mesh, **kwargs)
    slopes = {
        "scheme": res.scheme,
        "mesh": res.kind,
        "l2_slope": res.l2_slope,
        "h1_slope": res.h1_slope,
    }
    if args.output:
        with open(args.output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["h", "L2", "H1"])
            for h, l2, h1 in res.levels:
                w.writerow(["%.17g" % h, "%.17g" % l2, "%.17g" % h1])
        _write_summary(args.output + ".json", slopes)
    json.dump(slopes, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


COMMANDS = {
    "info": cmd_info,
    "atlas": cmd_atlas,
    "remesh": cmd_remesh,
    "quality": cmd_quality,
    "convergence": cmd_convergence,
}


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("ATLASMESH_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (MeshError, OSError, ValueError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
