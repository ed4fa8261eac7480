"""The benchmark tracer's contract with the pipeline.

`bench/spans.py` times the pipeline by replacing names in the modules
where the pipeline looks them up.  A refactor that calls one of those
functions by another route leaves its layer reading 0; this test notices.
"""

import sys
from pathlib import Path

from fixtures import cube, torus

from atlasmesh import cli, pipeline, planar, remesh
from atlasmesh.io import write_mesh

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402

TRACED = [
    "atlas.make_parametrizable",
    "param.parametrize",
    "refine.longest_edge_bisection",
    "remesh.discretize_curve",
    "remesh.mesh_patch_uv",
    "remesh.map_to_3d",
    "remesh.stitch",
    "pipeline.map.mesh_face",
]


def test_tracer_sees_every_remesh_layer(tmp_path):
    # two of the six faces of this torus are flat annular bands: they are
    # projected, the four curved ones refined and solved
    src = tmp_path / "torus.obj"
    write_mesh(torus(nu=12, nv=6), src)
    names = ["make_parametrizable", "parametrize", "longest_edge_bisection", "build_brep",
             "discretize_curve", "mesh_patch_uv", "map_to_3d", "stitch", "_run_parallel"]
    before = {name: getattr(pipeline, name) for name in names}
    locate = remesh.UVLocator.locate
    split = planar.PlanarMesh.split_edge

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(pipeline, name) is not before[name] for name in names)
        rc = cli.main(["remesh", str(src), "--size", "0.6", "-o", str(tmp_path / "o.msh")])
    finally:
        tracer.uninstall()

    assert rc == 0
    recorded = {tracer.names[nid] for nid, *_ in tracer.records}
    missing = [name for name in TRACED if name not in recorded]
    assert not missing, f"no span recorded for {missing}"
    assert tracer.counters["pipeline.faces"] == 6
    # each face is flattened once, by the map the split check accepted
    assert tracer.uv_nonpositive == 0
    assert "atlas.trial_param_calls" not in tracer.counters
    seen = [tracer.names[nid] for nid, *_ in tracer.records]
    assert seen.count("param.parametrize") == 6
    assert seen.count("refine.longest_edge_bisection") == 4
    assert seen.count("param.solve") == 4
    assert all(getattr(pipeline, name) is before[name] for name in names)
    assert remesh.UVLocator.locate is locate
    assert planar.PlanarMesh.split_edge is split


def test_face_edit_counters_equal_the_tracer_counts():
    # the tracer counts accepted edits outside constraint recovery, as the
    # per-face counters of the summary do
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, summary, _ = pipeline.remesh_model(cube(), pipeline.PipelineOptions(size=0.25))
    finally:
        tracer.uninstall()
    faces = summary["remesh_faces"]
    for key in spans.EDITS.values():
        assert sum(face[key] for face in faces) == tracer.counters.get("planar." + key, 0), key
    assert all(face["flips"] > 0 and face["moves"] > 0 for face in faces)
