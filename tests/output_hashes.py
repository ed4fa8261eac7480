"""Print one line of output hashes per case, to compare two source trees.

Each case runs `atlasmesh remesh` in process, through `cli.main`.  Its line
names the case and gives the sha1 of the `.msh` bytes and the sha1 of the
summary JSON without its clocks (`atlas_seconds`, `total_seconds`); a run
that fails gives the sha1 of its error message instead.  The cases:

- every case of `tests/test_sweep.py`, written as OBJ;
- the models of both `bench/run.py` workloads at seeds 1-12, built as the
  benchmark builds them.

The atlasmesh imported is the first on `PYTHONPATH`, so the same script
compares a parent tree with a change:

    PYTHONPATH=../parent/src python tests/output_hashes.py > parent.txt
    PYTHONPATH=src python tests/output_hashes.py > change.txt
    diff parent.txt change.txt

Nothing is written under `bench/`; inputs and outputs go to a temporary
directory.  The file name keeps pytest from collecting this script.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

import models  # noqa: E402
import run  # noqa: E402  (bench/run.py: WORKLOADS)
import test_sweep  # noqa: E402

from atlasmesh import cli  # noqa: E402

DROP = ("atlas_seconds", "total_seconds")
SEEDS = range(1, 13)


def sha1(data):
    return hashlib.sha1(data).hexdigest()


def remesh(path, out, args):
    """(sha1 of the .msh, sha1 of the summary without clocks), or the error's."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["remesh", str(path), "-o", str(out), *args])
    if rc != 0:
        return "error", sha1(err.getvalue().encode())
    summary = json.loads(Path(str(out) + ".json").read_text())
    for key in DROP:
        summary.pop(key, None)
    return sha1(out.read_bytes()), sha1(json.dumps(summary, sort_keys=True).encode())


def cases(work):
    """(label, input path, remesh arguments) of every case; writes the inputs."""
    for i, (name, h, placement) in enumerate(test_sweep.CASES):
        mesh = test_sweep.case_mesh(name, placement)
        path = work / f"sweep{i}.obj"
        models.write_obj(path, mesh.vertices, mesh.triangles)
        where = "unmoved" if placement is None else "place=%d,%d" % placement
        yield f"sweep {name} h={h} {where}", path, ["--size", repr(h)]
    for workload, (specs, flags) in sorted(run.WORKLOADS.items()):
        for seed in SEEDS:
            for i, (gen, params, fmt, h) in enumerate(specs):
                path = work / f"{workload}_{seed}_{i}.{fmt}"
                models.build((gen, params, fmt), seed, i, path)
                yield f"{workload} seed={seed} {gen}", path, ["--size", repr(h), *flags]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, path, args in cases(work):
            msh, summary = remesh(path, work / "out.msh", args)
            print(f"{label} {msh} {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
