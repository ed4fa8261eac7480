import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, cylinder_shell, package_env, sphere

from atlasmesh.cli import build_parser, main
from atlasmesh.io import load_surface, write_mesh
from atlasmesh.mesh import MeshError


@pytest.fixture
def cube_file(tmp_path):
    p = tmp_path / "cube.msh"
    write_mesh(cube(), p)
    return p


def test_info_reports_topology(cube_file, capsys):
    assert main(["info", str(cube_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["triangles"] == 12
    assert out["watertight"] is True
    assert out["genus"] == 0
    assert out["parametrizable"] is False


def test_import_and_info_leave_scipy_unloaded(cube_file):
    script = (
        "import sys, atlasmesh\n"
        "assert 'scipy' not in sys.modules, 'import atlasmesh loaded scipy'\n"
        "from atlasmesh.cli import main\n"
        "rc = main(['info', sys.argv[1]])\n"
        "assert 'scipy' not in sys.modules, 'atlasmesh info loaded scipy'\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(cube_file)],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["triangles"] == 12


TOPOLOGY_KEYS = ("euler_characteristic", "genus", "holes", "parametrizable", "formula_residual")


@pytest.mark.parametrize("triangles, flag", [
    ([[0, 1, 2], [1, 0, 3], [0, 1, 4]], "manifold"),  # three triangles on edge 0-1
    ([[0, 1, 2], [0, 1, 3]], "oriented"),  # both traverse edge 0 -> 1
], ids=["non_manifold", "non_oriented"])
def test_info_reports_a_mesh_it_cannot_count(tmp_path, capsys, triangles, flag):
    path = tmp_path / "bad.obj"
    v = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0], [0.5, 0, 1]], dtype=float)
    path.write_text("".join("v %r %r %r\n" % tuple(p) for p in v.tolist())
                    + "".join("f %d %d %d\n" % tuple(np.add(t, 1)) for t in triangles))
    assert main(["info", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["triangles"] == len(triangles)
    assert out[flag] is False and out["watertight"] is False
    assert all(out[key] is None for key in TOPOLOGY_KEYS)


def test_info_missing_file_gives_json_error(tmp_path, capsys):
    rc = main(["info", str(tmp_path / "absent.msh")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "message" in err and "error" in err


def _mesh_error(capsys, argv):
    """The message of the MeshError that `atlasmesh argv` reports as JSON."""
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MeshError"
    return err["message"]


def _truncated_msh(path):
    write_mesh(cube(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: lines.index("$Nodes") + 5]) + "\n")


MSH_UNKNOWN_NODE = """$MeshFormat
4.1 0 8
$EndMeshFormat
$Nodes
1 3 1 3
2 1 0 3
1
2
3
0 0 0
1 0 0
0 1 0
$EndNodes
$Elements
1 1 1 1
2 0 2 1
1 1 2 9
$EndElements
"""


@pytest.mark.parametrize("name,write,message", [
    ("short_vertex.obj", lambda p: p.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n"),
     "bad vertex line"),
    ("unknown_node.msh", lambda p: p.write_text(MSH_UNKNOWN_NODE), "unknown node 9"),
    ("truncated_nodes.msh", _truncated_msh, "file ends inside a block"),
], ids=["obj_short_vertex", "msh_unknown_node", "msh_truncated_nodes"])
def test_malformed_input_gives_json_mesh_error(tmp_path, capsys, name, write, message):
    path = tmp_path / name
    write(path)
    assert message in _mesh_error(capsys, ["info", str(path)])


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_info_rejects_bad_weld_tolerance(cube_file, capsys, tol):
    message = _mesh_error(capsys, ["info", str(cube_file), "--weld-tolerance", tol])
    assert "weld tolerance must be finite and non-negative" in message
    with pytest.raises(MeshError, match="weld tolerance"):
        load_surface(cube_file, weld_tolerance=float(tol))


@pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
def test_atlas_rejects_bad_refine_threshold(cube_file, tmp_path, capsys, threshold):
    out = tmp_path / "atlas.msh"
    message = _mesh_error(capsys, ["atlas", str(cube_file), "--refine-threshold", threshold,
                                   "-o", str(out)])
    assert "refinement threshold must be finite and positive" in message
    assert not out.exists()


def test_atlas_rejects_negative_refine_rounds(cube_file, tmp_path, capsys):
    out = tmp_path / "atlas.msh"
    message = _mesh_error(capsys, ["atlas", str(cube_file), "--refine-rounds", "-1",
                                   "-o", str(out)])
    assert "refinement rounds must be at least 0" in message
    assert not out.exists()


@pytest.mark.parametrize("resolutions", ["16", "16,16"])
def test_convergence_rejects_a_single_resolution(capsys, resolutions):
    message = _mesh_error(capsys, ["convergence", "--resolutions", resolutions])
    assert "at least two distinct resolutions" in message


@pytest.mark.parametrize("command", ["atlas", "remesh"])
@pytest.mark.parametrize("limit", ["0", "-3"])
def test_max_triangles_below_one_is_rejected_before_segmentation(
        cube_file, tmp_path, capsys, monkeypatch, command, limit):
    import atlasmesh.pipeline as pipeline

    def segment(*a):
        raise AssertionError("segment_patches called")

    monkeypatch.setattr(pipeline, "segment_patches", segment)
    out = tmp_path / "out.msh"
    argv = [command, str(cube_file), "--max-triangles", limit, "-o", str(out)]
    message = _mesh_error(capsys, argv + (["--size", "0.5"] if command == "remesh" else []))
    assert f"max_triangles must be at least 1, got {limit}" in message
    assert not out.exists()


@pytest.mark.parametrize("command", ["info", "atlas", "remesh", "quality"])
def test_empty_stl_gives_json_mesh_error(tmp_path, capsys, command):
    path = tmp_path / "empty.stl"
    path.write_bytes(b"\0" * 80 + (0).to_bytes(4, "little"))
    out = tmp_path / "out.msh"
    flags = {"atlas": ["-o", str(out)], "remesh": ["--size", "0.5", "-o", str(out)]}
    assert "no facets" in _mesh_error(capsys, [command, str(path), *flags.get(command, [])])
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_remesh_rejects_threads_below_one(cube_file, tmp_path, capsys, threads):
    out = tmp_path / "out.msh"
    argv = ["remesh", str(cube_file), "--size", "0.5", "--threads", threads, "-o", str(out)]
    assert f"threads must be at least 1, got {threads}" in _mesh_error(capsys, argv)
    assert not out.exists()
    # checked before the input is read: a missing file is not reported
    argv[1] = str(tmp_path / "missing.stl")
    assert f"threads must be at least 1, got {threads}" in _mesh_error(capsys, argv)


@pytest.mark.parametrize("command", ["atlas", "quality"])
def test_threads_is_a_remesh_flag_only(cube_file, tmp_path, command):
    output = ["-o", str(tmp_path / "o.msh")] if command == "atlas" else []
    assert main([command, str(cube_file), *output]) == 0
    with pytest.raises(SystemExit):
        main([command, str(cube_file), "--threads", "1", *output])


def test_convergence_solves_each_distinct_resolution_once_coarse_to_fine(tmp_path):
    csv_path = tmp_path / "conv.csv"
    rc = main(["convergence", "--scheme", "fem", "--resolutions", "32,16,16",
               "-o", str(csv_path)])
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0 / 16, 1.0 / 32]
    slopes = json.loads((tmp_path / "conv.csv.json").read_text())
    assert 1.7 < slopes["l2_slope"] < 2.3


def test_one_parser_serves_every_call():
    assert build_parser() is build_parser()
    argv = ["remesh", "in.obj", "--size", "0.5", "-o", "out.msh"]
    first = vars(build_parser().parse_args(argv))
    info = vars(build_parser().parse_args(["info", "in.obj"]))
    assert "size" not in info and info["command"] == "info"
    assert vars(build_parser().parse_args(argv)) == first


def test_readme_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for parser in sub.choices.values()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert len(flags) > 15
    named = {f for f in flags if re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", readme)}
    assert sorted(flags - named) == []


def test_atlas_writes_mesh_and_summary(cube_file, tmp_path):
    out = tmp_path / "atlas.msh"
    rc = main(["atlas", str(cube_file), "-o", str(out),
               "--uv-dump", str(tmp_path / "uv")])
    assert rc == 0
    assert out.exists()
    summary = json.loads((tmp_path / "atlas.msh.json").read_text())
    assert summary["final_patches"] == 6
    assert summary["curves"] == 12
    assert all(f["injective"] for f in summary["faces"])
    tagged = load_surface(out)
    assert len(set(tagged.patch_tags.tolist())) == 6
    dumps = list(tmp_path.glob("uv_*.txt"))
    assert len(dumps) == 6
    first = np.loadtxt(dumps[0])
    assert first.shape[1] == 3  # global id, u, v


def _msh_element_blocks(path):
    """(element type, [node tags per element]) of each `$Elements` block."""
    lines = iter(path.read_text().split("$Elements\n")[1].split("$EndElements")[0].splitlines()[1:])
    blocks = []
    for header in lines:
        _, _, etype, count = map(int, header.split())
        blocks.append((etype, [next(lines).split()[1:] for _ in range(count)]))
    return blocks


@pytest.mark.parametrize("make", [concave_hole_plate, cylinder_shell])
def test_atlas_writes_no_zero_length_curve_element(make, tmp_path):
    src = tmp_path / "model.msh"
    write_mesh(make(), src)
    out = tmp_path / "atlas.msh"
    # at --angle 180 no boundary turn is a corner, so each loop is one closed curve
    assert main(["atlas", str(src), "-o", str(out), "--angle", "180"]) == 0
    curves = [elems for etype, elems in _msh_element_blocks(out) if etype == 1]
    assert len(curves) == 2  # each fixture's two closed curves
    for elems in curves:
        assert all(a != b for a, b in elems)
        # a closed curve's block is one cycle through each node once
        assert [a for a, _ in elems[1:]] == [b for _, b in elems[:-1]]
        assert elems[-1][1] == elems[0][0]
        assert len({a for a, _ in elems}) == len(elems)


def test_remesh_end_to_end(cube_file, tmp_path):
    out = tmp_path / "out.msh"
    rc = main(["remesh", str(cube_file), "--size", "0.4", "-o", str(out)])
    assert rc == 0
    result = load_surface(out)
    assert result.n_triangles > 12
    summary = json.loads((tmp_path / "out.msh.json").read_text())
    assert summary["output_watertight"] is True


def test_remesh_requires_size(cube_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["remesh", str(cube_file), "-o", str(tmp_path / "o.msh")])


@pytest.mark.parametrize("size", ["0", "-1", "nan", "inf"])
def test_remesh_rejects_bad_size(cube_file, tmp_path, capsys, size):
    out = tmp_path / "o.msh"
    rc = main(["remesh", str(cube_file), "--size", size, "-o", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MeshError"
    assert "finite and positive" in err["message"]
    assert not out.exists()


def test_remesh_names_duplicate_output_triangles(tmp_path, capsys):
    # at h=6 the one curve of sphere(3) has three samples, and each of its
    # two faces is one triangle on them: closed and manifold, yet folded
    src, out = tmp_path / "sphere.msh", tmp_path / "o.msh"
    write_mesh(sphere(3), src)
    message = _mesh_error(capsys, ["remesh", str(src), "--size", "6", "-o", str(out)])
    assert "duplicate (triangles [0, 1] on faces [0, 1])" in message
    assert not out.exists()


def test_remesh_rejects_duplicate_input_triangles(tmp_path, capsys):
    src = tmp_path / "pillow.obj"
    src.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 3 2\n")
    message = _mesh_error(capsys, ["remesh", str(src), "--size", "0.5", "-o",
                                   str(tmp_path / "o.msh")])
    assert "input rejected" in message and "duplicate=2" in message


def test_load_and_write_take_the_cli_format_names(tmp_path):
    mesh = cube()
    for fmt in ("stl", "obj", "msh"):
        p = tmp_path / f"cube_{fmt}.dat"  # the suffix names no format
        write_mesh(mesh, p, format=fmt)
        back = load_surface(p, format=fmt)
        assert back.n_triangles == 12 and back.n_vertices == 8
    # an ASCII STL under --format stl is sniffed as such
    ascii_stl = tmp_path / "cube_ascii.stl"
    with open(ascii_stl, "w") as fh:
        fh.write("solid c\n")
        for t in mesh.triangles:
            fh.write("facet normal 0 0 0\nouter loop\n")
            fh.writelines("vertex %.17g %.17g %.17g\n" % tuple(mesh.vertices[v]) for v in t)
            fh.write("endloop\nendfacet\n")
        fh.write("endsolid c\n")
    assert main(["info", str(ascii_stl), "--format", "stl"]) == 0
    with pytest.raises(MeshError):
        load_surface(ascii_stl, format="stl-ascii")


def test_quality_reports_per_face(cube_file, capsys):
    rc = main(["quality", str(cube_file)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep) == 6
    for entry in rep:
        assert 0.0 < entry["min_conformity"] <= 1.0


def test_convergence_writes_csv_and_slopes(tmp_path, capsys):
    csv_path = tmp_path / "conv.csv"
    rc = main([
        "convergence", "--scheme", "fem", "--mesh", "structured",
        "--resolutions", "8,16,32", "-o", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "h,L2,H1"
    assert len(lines) == 4
    slopes = json.loads((tmp_path / "conv.csv.json").read_text())
    assert 1.7 < slopes["l2_slope"] < 2.3


def test_convergence_structured_mvc_flat(capsys):
    rc = main([
        "convergence", "--scheme", "mvc", "--mesh", "structured",
        "--resolutions", "8,16,32",
    ])
    assert rc == 0
    slopes = json.loads(capsys.readouterr().out)
    assert slopes["l2_slope"] < 0.5


def test_refine_threshold_off(tmp_path):
    src = tmp_path / "cyl.msh"
    write_mesh(cylinder_shell(), src)
    out = tmp_path / "cyl_out.msh"
    rc = main([
        "remesh", str(src), "--size", "0.4",
        "--refine-threshold", "off", "-o", str(out),
    ])
    assert rc == 0
    assert out.exists()
