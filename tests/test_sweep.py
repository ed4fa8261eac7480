"""Robustness sweep: fixture x target size h x rigid motion, plus listed cases.

The grid remeshes each fixture at four sizes, unmoved or moved by
`bench/models.place(v, 77, k)` for k = 0..2: 144 cases.  `EXTRA_CASES`
adds 42 cases the grid misses: the fine fixture sphere, the benchmark's
float32 sphere at twenty placements and two sizes, and the plate at one
more placement.  Each output is checked with `bench/check.check_surface`,
which uses no atlasmesh code.  The table printed (run with `-s`) has one
row per case: `ok`, or the stage and failure, plus its wall time.

A fixture lists the failure kinds it is known to have, each with the
ROADMAP item that owns it; any other failure fails the test.  Slow:

    python -m pytest -m slow tests/test_sweep.py -s
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell, random_disk_fixture, sphere, torus

from atlasmesh.mesh import MeshError, Triangulation
from atlasmesh.pipeline import PipelineOptions, remesh_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import check  # noqa: E402
import models  # noqa: E402

# name -> (build, grid sizes, closed, planar faces, float32 input,
#          {known failure kind: owning ROADMAP item})
FIXTURES = {
    "cube": (cube, (0.2, 0.25, 0.3, 0.4), True, True, False, {}),
    "sphere3": (lambda: sphere(3), (0.2, 0.25, 0.3, 0.4), True, False, False, {"fold": 4}),
    "torus": (torus, (0.25, 0.3, 0.4, 0.5), True, False, False, {}),
    "cylinder": (cylinder_shell, (0.2, 0.25, 0.3, 0.4), False, False, False, {}),
    "plate": (concave_hole_plate, (0.12, 0.15, 0.2, 0.25), False, True, False, {}),
    **{
        f"disk{seed}": (
            lambda seed=seed: random_disk_fixture(seed), (0.15, 0.2, 0.25, 0.3), False,
            seed < 2, False, {"planar area": 9} if seed < 2 else {},
        )
        for seed in range(4)
    },
    "sphere4": (lambda: sphere(4), (), True, False, False, {"fold": 4}),
    # the benchmark's sphere, rounded to float32 after it is placed
    "sphere5f32": (lambda: Triangulation(*models.sphere(5)), (), True, False, True, {"fold": 4}),
}
PLACEMENTS = (None, (77, 0), (77, 1), (77, 2))  # `place(v, seed, k)` arguments
EXTRA_CASES = [
    ("sphere4", 0.125, None),
    *(("sphere5f32", h, (seed, 0)) for h in (0.6, 0.4) for seed in range(1, 21)),
    ("plate", 0.2, (77, 6)),
]
# (fixture name, h, placement)
CASES = [
    (name, h, placement)
    for name, (_, sizes, *_) in FIXTURES.items() for h in sizes for placement in PLACEMENTS
] + EXTRA_CASES


def failure_kind(message):
    """The kind of one `check_surface` failure or MeshError message."""
    for needle, kind in (
        ("face away from the input", "fold"),
        ("area differs from the input", "planar area"),
        ("centroid", "planar centroid"),
    ):
        if needle in message:
            return kind
    return message


def case_mesh(name, placement):
    """The input mesh of one case: the fixture, placed and rounded as listed."""
    build, _, _, _, float32, _ = FIXTURES[name]
    mesh = build()
    if placement is None:
        return mesh
    v = models.place(mesh.vertices, *placement)
    if float32:
        v = v.astype(np.float32).astype(np.float64)
    return Triangulation(v, mesh.triangles)


def run_case(name, h, placement):
    """(stage, [failure messages]) of one case; stage is "ok" when it passes."""
    _, _, closed, planar, float32, _ = FIXTURES[name]
    mesh = case_mesh(name, placement)
    try:
        out, _, _ = remesh_model(mesh, PipelineOptions(size=h))
    except MeshError as exc:
        return "remesh", [str(exc)]
    model = models.Model(name, mesh.vertices, mesh.triangles, closed, planar)
    bad = check.check_surface(out.vertices, out.triangles, model, float32_input=float32)
    return ("check", bad) if bad else ("ok", [])


def case_label(name, h, placement):
    where = "unmoved" if placement is None else "place %d,%d" % placement
    return f"{name:10} {h:5} {where:10}"


@pytest.mark.slow
def test_sweep_has_only_known_failures():
    rows, failing, unknown = [], 0, []
    for name, h, placement in CASES:
        known = FIXTURES[name][-1]
        t0 = time.perf_counter()
        stage, failures = run_case(name, h, placement)
        seconds = time.perf_counter() - t0
        kinds = [failure_kind(f) for f in failures]
        owners = [f"item {known[k]}" if k in known else "NEW" for k in kinds]
        detail = "; ".join(f"{f} ({o})" for f, o in zip(failures, owners))
        label = case_label(name, h, placement)
        rows.append(f"{label} {seconds:6.2f}s {stage:7} {detail}")
        failing += stage != "ok"
        unknown += [f"{label}: {f}" for f, k in zip(failures, kinds) if k not in known]
    print("\n" + "\n".join(rows))
    print(f"{len(rows)} cases, {failing} failing, {len(unknown)} new failures")
    assert not unknown, "\n".join(unknown)
