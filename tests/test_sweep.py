"""Robustness sweep: fixture x target size h x rigid motion.

Each of the 144 cases remeshes one fixture at one size, unmoved or moved
by `bench/models.place(v, 77, k)` for k = 0..2, and checks the output
with `bench/check.check_surface`, which uses no atlasmesh code.  The
table printed (run with `-s`) has one row per case: `ok`, or the stage
and failure, plus its wall time.

A fixture lists the failure kinds it is known to have, each with the
ROADMAP item that owns it; any other failure fails the test.  Slow:

    python -m pytest -m slow tests/test_sweep.py -s
"""

import sys
import time
from pathlib import Path

import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell, random_disk_fixture, sphere, torus

from atlasmesh.mesh import MeshError, Triangulation
from atlasmesh.pipeline import PipelineOptions, remesh_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import check  # noqa: E402
import models  # noqa: E402

PLANAR_CHECKS = ("planar area", "planar centroid")

# name -> (build, sizes, closed, planar faces, {known failure kind: owning ROADMAP item})
FIXTURES = {
    "cube": (cube, (0.2, 0.25, 0.3, 0.4), True, True, {}),
    "sphere3": (lambda: sphere(3), (0.2, 0.25, 0.3, 0.4), True, False, {"fold": 4}),
    "torus": (torus, (0.25, 0.3, 0.4, 0.5), True, False, {}),
    "cylinder": (cylinder_shell, (0.2, 0.25, 0.3, 0.4), False, False, {}),
    "plate": (concave_hole_plate, (0.12, 0.15, 0.2, 0.25), False, True,
              {"inverted UV triangle": 3, **dict.fromkeys(PLANAR_CHECKS, 9)}),
    **{
        f"disk{seed}": (
            lambda seed=seed: random_disk_fixture(seed), (0.15, 0.2, 0.25, 0.3), False,
            seed < 2, dict.fromkeys(PLANAR_CHECKS, 9) if seed < 2 else {},
        )
        for seed in range(4)
    },
}
PLACEMENTS = (None, 0, 1, 2)


def failure_kind(message):
    """The kind of one `check_surface` failure or MeshError message."""
    for needle, kind in (
        ("face away from the input", "fold"),
        ("area differs from the input", "planar area"),
        ("centroid", "planar centroid"),
        ("inverted UV triangle", "inverted UV triangle"),
    ):
        if needle in message:
            return kind
    return message


def run_case(name, h, placement):
    """(stage, [failure messages]) of one case; stage is "ok" when it passes."""
    build, _, closed, planar, _ = FIXTURES[name]
    mesh = build()
    if placement is not None:
        mesh = Triangulation(models.place(mesh.vertices, 77, placement), mesh.triangles)
    try:
        out, _, _ = remesh_model(mesh, PipelineOptions(size=h))
    except MeshError as exc:
        return "remesh", [str(exc)]
    model = models.Model(name, mesh.vertices, mesh.triangles, closed, planar)
    bad = check.check_surface(out.vertices, out.triangles, model)
    return ("check", bad) if bad else ("ok", [])


@pytest.mark.slow
def test_sweep_has_only_known_failures():
    rows, failing, unknown = [], 0, []
    for name, (_, sizes, _, _, known) in FIXTURES.items():
        for h in sizes:
            for placement in PLACEMENTS:
                t0 = time.perf_counter()
                stage, failures = run_case(name, h, placement)
                seconds = time.perf_counter() - t0
                where = "unmoved" if placement is None else f"place {placement}"
                kinds = [failure_kind(f) for f in failures]
                owners = [f"item {known[k]}" if k in known else "NEW" for k in kinds]
                detail = "; ".join(f"{f} ({o})" for f, o in zip(failures, owners))
                rows.append(f"{name:9} {h:5} {where:8} {seconds:6.2f}s {stage:7} {detail}")
                failing += stage != "ok"
                unknown += [f"{name} h={h} {where}: {f}"
                            for f, k in zip(failures, kinds) if k not in known]
    print("\n" + "\n".join(rows))
    print(f"{len(rows)} cases, {failing} failing, {len(unknown)} new failures")
    assert not unknown, "\n".join(unknown)
