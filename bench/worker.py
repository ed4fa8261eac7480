"""Run one workload's passes in a fresh interpreter and report them as JSON.

Usage: python3 worker.py JOB.json   (the job file is written by run.py)

Every operation is one in-process call of `atlasmesh.cli.main` with the
`remesh` arguments a user would type.  Whole passes repeat while another
one fits in the job's seconds.  The first pass warms caches; run.py leaves
it out of the timings.  With tracing on, untraced and traced passes
alternate after it, so both sets of outputs can be compared byte for byte
and the tracing overhead read off the pass times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

TIMING_KEYS = ("atlas_seconds", "total_seconds")  # the summary's own clocks
MIN_TIMED = 3  # passes after the first; the first warms caches and is not timed
LAYERS = ("io", "mesh", "features", "atlas", "refine", "param", "remesh",
          "planar", "pipeline", "cli")


def digest(path, drop=()):
    with open(path, "rb") as fh:
        data = fh.read()
    if drop:
        obj = json.loads(data)
        for key in drop:
            obj.pop(key, None)
        data = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def reference_time():
    """Seconds a fixed piece of work takes now: the machine's current speed.

    On a shared host the same code can run up to 1.6 times slower for
    minutes at a time while other tenants load it (README.md).  Every
    operation is timed between two runs of this kernel, and run.py divides
    by them.  The kernel is a Python loop of small numpy calls, as in point
    location; it uses no atlasmesh code, so a change to the program cannot
    change it.
    """
    t0 = time.perf_counter()
    pts = np.random.default_rng(0).random((64, 2))
    acc = 0.0
    seen = {}
    for i in range(25000):
        diff = pts - pts[i & 63]
        acc += float(np.einsum("ij,ij->i", diff, diff).min())
        seen[i & 255] = acc
    return time.perf_counter() - t0


def run_op(cli, op):
    argv = ["remesh", op["input"], "-o", op["output"], *op["args"]]
    try:
        return cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        return -1


def layer_metrics(tracer, n_passes):
    """Per-pass layer figures from the traced passes' spans and counters."""
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (_n, _s, _p, _op, t0, t1), (name, self_time) in zip(
        tracer.records, tracer.self_times()
    ):
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1

    def d(*names):
        return sum(dur.get(k, 0.0) for k in names) / n_passes

    def c(key):
        return tracer.counters.get(key, 0) / n_passes

    def n(name):
        return calls.get(name, 0) / n_passes

    edits = sum(c("planar." + k) for k in ("splits", "collapses", "flips", "moves"))
    out = {
        "io.load_s": d("io.load_surface"),
        "io.write_s": d("io.write_mesh"),
        "mesh.adjacency_s": d("mesh.Adjacency"),
        "mesh.validate_s": d("mesh.validate"),
        "features.detect_s": d("features.detect_feature_edges"),
        "features.segment_s": d("features.segment_patches"),
        "atlas.split_s": d("atlas.make_parametrizable"),
        "atlas.trial_param_calls": c("atlas.trial_param_calls"),
        "atlas.splits": n("atlas.bisect_patch"),
        "atlas.brep_s": d("atlas.build_brep"),
        "refine.bisect_s": d("refine.longest_edge_bisection"),
        "refine.out_triangles": c("refine.out_triangles"),
        "param.assemble_s": d("param.assemble_system"),
        "param.solve_s": d("param.solve"),
        "param.calls": n("param.solve"),
        "param.unknowns": c("param.unknowns"),
        # FaceMetric's own work: the locator it builds is counted below
        "remesh.metric_build_s": own.get("remesh.FaceMetric", 0.0) / n_passes,
        "remesh.locator_build_s": d("remesh.UVLocator"),
        "remesh.locators_built": n("remesh.UVLocator"),
        "remesh.locate_s": d("remesh.locate"),
        "remesh.locate_calls": n("remesh.locate"),
        "remesh.locate_clamped": c("remesh.locate_clamped"),
        "remesh.uv_mesh_s": d("remesh.mesh_patch_uv"),
        "remesh.curve_s": d("remesh.discretize_curve"),
        "remesh.map3d_s": d("remesh.map_to_3d"),
        "remesh.stitch_s": d("remesh.stitch"),
        "planar.cdt_s": d("planar.constrained_triangulation", "planar.clip_to_loops"),
        "planar.splits": c("planar.splits"),
        "planar.collapses": c("planar.collapses"),
        "planar.flips": c("planar.flips"),
        "planar.moves": c("planar.moves"),
        "planar.attempts": c("planar.attempts"),
        "planar.yield": edits / max(c("planar.attempts"), 1),
        "pipeline.atlas_s": d("pipeline.build_atlas"),
        "pipeline.faces_s": d("pipeline.map.mesh_face"),
        "pipeline.faces": c("pipeline.faces"),
        "cli.overhead_s": d("cli.main")
        - d("pipeline.remesh_model", "io.load_surface", "io.write_mesh"),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(
            v for k, v in own.items() if k.split(".")[0] == layer
        ) / n_passes
    return out


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from atlasmesh import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
    n_ops = len(job["ops"])
    passes = []
    start = time.perf_counter()
    ref = reference_time()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        ops = []
        began = time.perf_counter()
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(job["ops"]):
                t0 = time.perf_counter()
                if traced:
                    tracer.op = len(passes) * n_ops + i
                    rc = tracer.call("cli.main", run_op, (cli, op), {})
                else:
                    rc = run_op(cli, op)
                rec = {"rc": rc, "seconds": time.perf_counter() - t0,
                       "ref_before": ref}
                ref = rec["ref_after"] = reference_time()
                # the operation's time in units of the kernel around it
                rec["in_ref"] = 2.0 * rec["seconds"] / (rec["ref_before"] + ref)
                if rc == 0:
                    rec["msh"] = digest(op["output"])
                    rec["json"] = digest(op["output"] + ".json", TIMING_KEYS)
                ops.append(rec)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "ops": ops,
                       "seconds": sum(o["seconds"] for o in ops),
                       "elapsed": time.perf_counter() - began})
        # start no pass that would end after the job's seconds, once the
        # warm-up pass and at least MIN_TIMED passes (traced and not) are in
        typical = statistics.median(p["elapsed"] for p in passes)
        if (len(passes) > MIN_TIMED
                and time.perf_counter() - start + typical > job["seconds"]):
            break

    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        traced_s = [sum(o["in_ref"] for o in p["ops"]) for p in passes[1:] if p["traced"]]
        plain_s = [sum(o["in_ref"] for o in p["ops"]) for p in passes[1:] if not p["traced"]]
        layers = layer_metrics(tracer, len(traced_s))
        layers["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        result["layers"] = layers
        result["uv_nonpositive"] = tracer.uv_nonpositive
        tracer.save(job["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
