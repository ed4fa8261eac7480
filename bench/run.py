"""Remesh benchmark: one workload per run, checked output, one JSON result.

Usage, from the repository root:

    python3 bench/run.py --workload uv_adapt --seed 1 --seconds 55 --trace 0

The run times fresh-interpreter imports of atlasmesh (set-up), writes the
workload's seeded input files, runs the `atlasmesh remesh` passes in a
fresh worker process, checks every output with `check.py`, and prints one
JSON object as its last line of standard output.  `--trace 1` reports the
per-layer figures instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import models

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TIME_LIMIT = 160.0  # seconds for set-up and passes; checks follow
SETUP_REPEATS = 5
MIN_ANGLE_PERCENTILE = 5.0

# name -> ((generator, params, file format, target size h), ...), extra flags
WORKLOADS = {
    "uv_adapt": (
        (("torus", {"R": 2.0, "r": 0.8, "nu": 12, "nv": 6}, "obj", 0.6),
         ("tube", {"radius": 1.0, "height": 3.0, "n": 20}, "obj", 0.5)),
        [],
    ),
    "dense_scan": (
        (("square_frame", {"resolution": 10}, "stl", 0.5),),
        [],
    ),
}

UNITS = {
    "setup_s": "s", "wall_ref": "ref", "out_tri_per_ref": "1/ref",
    "peak_rss_mb": "MB", "min_angle_deg": "deg",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name in ("planar.yield", "trace.overhead"):
        return "ratio"
    return "count"


def time_import(env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import atlasmesh"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def check_outputs(ops, inputs, passes):
    """Failures, and the smallest angle of each output triangle of a pass."""
    bad = []
    angles = []
    for i, (op, (model, fmt)) in enumerate(zip(ops, inputs)):
        runs = [p["ops"][i] for p in passes if p["ops"][i]["rc"] == 0]
        if not runs:
            continue
        if len({(r["msh"], r["json"]) for r in runs}) != 1:
            bad.append(f"{op['input']}: output differs between passes")
        verts, tris = check.parse_msh(op["output"])
        with open(op["output"] + ".json") as fh:
            summary = json.load(fh)
        if summary.get("output_triangles") != len(tris):
            bad.append(f"{op['input']}: summary triangle count disagrees with the file")
        bad += [f"{op['input']}: {b}" for b in
                check.check_surface(verts, tris, model, float32_input=fmt == "stl")]
        angles.append(check.triangle_min_angles(verts, tris))
    return bad, np.concatenate(angles) if angles else np.zeros(0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not (SRC / "atlasmesh" / "__init__.py").is_file():
        print(f"no atlasmesh sources under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    setup = [time_import(env) for _ in range(SETUP_REPEATS)]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    specs, flags = WORKLOADS[args.workload]
    ops, inputs = [], []
    for i, (gen, params, fmt, h) in enumerate(specs):
        path = work / f"{i}_{gen}.{fmt}"
        inputs.append((models.build((gen, params, fmt), args.seed, i, path), fmt))
        ops.append({"input": str(path), "output": str(work / f"{i}_{gen}.msh"),
                    "args": ["--size", repr(h), *flags]})
    job_path = work / "job.json"
    job_path.write_text(json.dumps({
        "src": str(SRC), "ops": ops, "seconds": args.seconds,
        "trace": bool(args.trace), "spans": str(work / "spans.npz"),
    }))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=TIME_LIMIT - (time.monotonic() - started),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print("worker did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    (work / "passes.json").write_text(json.dumps(res))
    passes = res["passes"]

    bad, angles = check_outputs(ops, inputs, passes)
    if not len(angles):
        sys.stderr.write(proc.stderr)
        print("no operation succeeded", file=sys.stderr)
        return 1
    if res.get("uv_nonpositive"):
        bad.append(f"{res['uv_nonpositive']} parametric triangles with non-positive area")
    for line in bad:
        print("CHECK FAILED " + line, file=sys.stderr)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for o in p["ops"] if o["rc"] != 0)
    if failed:
        sys.stderr.write(proc.stderr)

    # a pass's time from each model's median operation time, in seconds and
    # in reference-kernel units; the first pass warmed caches
    timed = passes[1:]
    wall = sum(statistics.median(p["ops"][i]["seconds"] for p in timed)
               for i in range(len(ops)))
    wall_ref = sum(statistics.median(p["ops"][i]["in_ref"] for p in timed)
                   for i in range(len(ops)))
    ref = statistics.median(o["ref_after"] for p in timed for o in p["ops"])
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_ref": wall_ref,
            "out_tri_per_ref": len(angles) / wall_ref,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            # 5th percentile: the single smallest angle moves by a third
            # between rigid placements of the same model (see README)
            "min_angle_deg": float(np.percentile(angles, MIN_ANGLE_PERCENTILE)),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(f"{args.workload} seed {args.seed}: set-up {len(setup)} x "
          + ", ".join("%.3f" % t for t in setup) + " s; passes of "
          + ", ".join("%.2f s%s" % (p["seconds"], " traced" * p["traced"]) for p in passes)
          + f"; pass {wall:.3f} s, {len(angles) / wall:.1f} triangles/s"
          + f", reference kernel {ref:.4f} s"
          + f"; {attempted} operations, {failed} failed, {len(bad)} check failures"
          + (f"; smallest angle {angles.min():.3f} deg" if len(angles) else ""))
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
