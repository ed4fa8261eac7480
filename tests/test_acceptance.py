"""Acceptance gate: one test per release criterion, one PASS/FAIL line each."""

import subprocess
import sys
import time

import numpy as np

from fixtures import (
    concave_hole_plate,
    cube,
    cylinder_shell,
    package_env,
    planar_fixture,
    random_disk_fixture,
    sphere,
    torus,
)

from atlasmesh.io import write_mesh
from atlasmesh.mesh import Adjacency, Triangulation, euler_check, validate
from atlasmesh.param import ParamOptions, parametrize, scheme_weight_matrix, signed_uv_areas
from atlasmesh.patch import Patch
from atlasmesh.pipeline import PipelineOptions, build_atlas, remesh_model
from atlasmesh.quality import patch_quality
from atlasmesh.refine import longest_edge_bisection
from atlasmesh.verify import build_square_mesh, convergence_study


def _report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _full_patch(mesh):
    return Patch(mesh, np.arange(mesh.n_triangles))


def _point_surface_distance(points, mesh):
    """Max distance from each point to the nearest input triangle."""
    tri = mesh.vertices[mesh.triangles]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, ac = b - a, c - a
    d00 = np.einsum("ij,ij->i", ab, ab)
    d01 = np.einsum("ij,ij->i", ab, ac)
    d11 = np.einsum("ij,ij->i", ac, ac)
    det = np.maximum(d00 * d11 - d01 * d01, 1e-300)
    worst = 0.0
    for p in points:
        ap = p - a
        d20 = np.einsum("ij,ij->i", ap, ab)
        d21 = np.einsum("ij,ij->i", ap, ac)
        v = (d11 * d20 - d01 * d21) / det
        w = (d00 * d21 - d01 * d20) / det
        u = 1.0 - v - w
        # clamp barycentrics onto the triangle, then measure
        vv = np.clip(v, 0.0, 1.0)
        ww = np.clip(w, 0.0, 1.0)
        s = np.maximum(vv + ww, 1e-300)
        scale = np.where(s > 1.0, 1.0 / s, 1.0)
        proj = a + (vv * scale)[:, None] * ab + (ww * scale)[:, None] * ac
        inside = (u >= 0) & (v >= 0) & (w >= 0)
        d_in = np.where(
            inside,
            np.abs(np.einsum("ij,ij->i", ap, _unit_normals(ab, ac))),
            np.inf,
        )
        d_edge = np.linalg.norm(p - proj, axis=1)
        worst = max(worst, float(np.minimum(d_in, d_edge).min()))
    return worst


def _unit_normals(ab, ac):
    n = np.cross(ab, ac)
    ln = np.linalg.norm(n, axis=1, keepdims=True)
    return n / np.maximum(ln, 1e-300)


# -- 1. structured stencil ---------------------------------------------------

def test_1_structured_stencil():
    t0 = time.perf_counter()
    n = 8
    h = 1.0 / n
    mesh = build_square_mesh("structured", n)
    centre = (n // 2) * (n + 1) + n // 2
    axis = {centre - (n + 1), centre + (n + 1), centre - 1, centre + 1}
    diag = {centre + (n + 1) - 1, centre - (n + 1) + 1}

    W = scheme_weight_matrix(mesh.vertices, mesh.triangles, "mvc").tocsr()
    row = W[centre].toarray().ravel()
    err = 0.0
    for j in axis:
        err = max(err, abs(row[j] - np.sqrt(2.0) / h))
    for j in diag:
        err = max(err, abs(row[j] - (2.0 - np.sqrt(2.0)) / h))
    others = set(np.nonzero(row)[0]) - axis - diag
    err = max(err, max((abs(row[j]) for j in others), default=0.0))

    Wf = scheme_weight_matrix(mesh.vertices, mesh.triangles, "fem").tocsr()
    rowf = Wf[centre].toarray().ravel()
    ferr = 0.0
    for j in axis:
        ferr = max(ferr, abs(rowf[j] - 1.0))
    for j in diag:
        ferr = max(ferr, abs(rowf[j]))
    elapsed = time.perf_counter() - t0
    _report(
        "1-structured-stencil",
        err < 1e-12 and ferr < 1e-12 and elapsed < 1.0,
        f"mvc err {err:.2e}, fem err {ferr:.2e}, {elapsed:.2f}s",
    )


# -- 2. convergence slopes ---------------------------------------------------

def test_2_convergence_slopes():
    t0 = time.perf_counter()
    res = {
        (s, k): convergence_study(s, k)
        for s in ("fem", "mvc")
        for k in ("structured", "delaunay")
    }
    checks = [
        1.85 <= res[("fem", "structured")].l2_slope <= 2.15,
        1.85 <= res[("fem", "delaunay")].l2_slope <= 2.15,
        0.9 <= res[("fem", "structured")].h1_slope <= 1.1,
        0.9 <= res[("fem", "delaunay")].h1_slope <= 1.1,
        0.8 <= res[("mvc", "delaunay")].l2_slope <= 1.2,
        res[("mvc", "structured")].l2_slope < 0.5,
    ]
    elapsed = time.perf_counter() - t0
    detail = ", ".join(
        f"{s}/{k} L2 {r.l2_slope:.2f} H1 {r.h1_slope:.2f}"
        for (s, k), r in res.items()
    )
    _report(
        "2-convergence-slopes",
        all(checks) and elapsed < 60.0,
        detail + f", {elapsed:.1f}s",
    )


# -- 3. injectivity suite ----------------------------------------------------

def test_3_injectivity_suite():
    t0 = time.perf_counter()
    n_bad = 0
    count = 0
    for seed in range(50):
        mesh = random_disk_fixture(seed)
        patch = _full_patch(mesh)
        param = parametrize(patch, ParamOptions(scheme="mvc"))
        areas = signed_uv_areas(patch.tri.triangles, param.uv)
        count += 1
        if (areas <= 0.0).any():
            n_bad += 1
    elapsed = time.perf_counter() - t0
    _report(
        "3-injectivity-suite",
        count >= 50 and n_bad == 0 and elapsed < 30.0,
        f"{count} fixtures, {n_bad} with non-positive areas, {elapsed:.1f}s",
    )


# -- 4. neumann hole convexity -----------------------------------------------

def _max_hole_interior_angle(patch, param):
    """Largest interior angle over all non-outer UV loops.

    Loops are walked with the domain on the left, i.e. clockwise around a
    hole, so the hole's interior angle at a vertex is pi plus the signed
    turn.
    """
    worst = 0.0
    for k, loop in enumerate(patch.loops):
        if k == param.outer_loop:
            continue
        uv = param.uv[np.asarray(loop)]
        n = len(uv)
        for i in range(n):
            v1 = uv[i] - uv[i - 1]
            v2 = uv[(i + 1) % n] - uv[i]
            turn = np.arctan2(
                v1[0] * v2[1] - v1[1] * v2[0], float(v1 @ v2)
            )
            worst = max(worst, np.pi + turn)
    return worst


def test_4_neumann_hole_convexity():
    worst = 0.0
    n_loops = 0
    meshes = [concave_hole_plate(), cylinder_shell()]
    meshes += [random_disk_fixture(s) for s in range(50)]
    for mesh in meshes:
        patch = _full_patch(mesh)
        if len(patch.loops) < 2:
            continue
        param = parametrize(patch, ParamOptions(hole_policy="neumann"))
        worst = max(worst, _max_hole_interior_angle(patch, param))
        n_loops += len(patch.loops) - 1
    _report(
        "4-neumann-hole-convexity",
        n_loops > 0 and worst <= np.pi + 1e-9,
        f"{n_loops} hole loops, max interior angle {worst:.6f}",
    )


# -- 5. hole filling improves the worst triangle -----------------------------

def test_5_hole_filling_improvement():
    patch = _full_patch(concave_hole_plate())
    neumann = parametrize(patch, ParamOptions(hole_policy="neumann"))
    filled = parametrize(patch, ParamOptions(hole_policy="fill"))
    mn = signed_uv_areas(patch.tri.triangles, neumann.uv).min()
    mf = signed_uv_areas(patch.tri.triangles, filled.uv).min()
    _report(
        "5-hole-filling-improvement",
        mf > mn,
        f"min area neumann {mn:.3e} -> fill {mf:.3e}",
    )


# -- 6. refinement improves conformity ---------------------------------------

def test_6_refinement_conformity():
    patch = _full_patch(cylinder_shell())
    base = parametrize(patch, ParamOptions())
    q0 = patch_quality(patch, base)
    c0 = float((q0.sigma2 / q0.sigma1).min())
    area0 = patch.tri.total_area()

    refined, _ = longest_edge_bisection(patch, max_rounds=5)
    fine = parametrize(refined, ParamOptions())
    q5 = patch_quality(refined, fine)
    c5 = float((q5.sigma2 / q5.sigma1).min())
    rel = abs(refined.tri.total_area() - area0) / area0
    _report(
        "6-refinement-conformity",
        c5 > c0 and rel <= 1e-12,
        f"min conformity {c0:.3f} -> {c5:.3f}, area drift {rel:.2e}",
    )


# -- 7. pipeline exactness ---------------------------------------------------

PIPELINE_FIXTURES = [
    ("cube", cube, 0.25),
    ("sphere", lambda: sphere(3), 0.25),
    ("torus", torus, 0.3),
    ("cylinder", cylinder_shell, 0.3),
    ("plate", concave_hole_plate, 0.15),
]


def test_7_pipeline_exactness():
    details = []
    ok = True
    for name, build, size in PIPELINE_FIXTURES:
        mesh = build()
        in_report = validate(mesh, Adjacency(mesh))
        out, summary, _ = remesh_model(mesh, PipelineOptions(size=size))
        out_report = validate(out, Adjacency(out))
        tol = 1e-12 * mesh.bbox_diagonal()
        dist = _point_surface_distance(out.vertices, mesh)
        good = (
            dist <= tol
            and out_report.manifold
            and out_report.oriented
            and len(out_report.degenerate_triangles) == 0
            and out_report.watertight == in_report.watertight
            and out_report.boundary_loop_count == in_report.boundary_loop_count
        )
        ok = ok and good
        details.append(f"{name} dist {dist:.1e} {'ok' if good else 'BAD'}")
    _report("7-pipeline-exactness", ok, "; ".join(details))


# -- 8. topology formula -----------------------------------------------------

def _independent_topology(mesh):
    """chi-based genus/boundary count computed from first principles."""
    edges = set()
    count = {}
    for t in mesh.triangles:
        for k in range(3):
            e = tuple(sorted((int(t[k]), int(t[(k + 1) % 3]))))
            edges.add(e)
            count[e] = count.get(e, 0) + 1
    boundary = [e for e, c in count.items() if c == 1]
    # count boundary loops by union-find over boundary edges
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in boundary:
        parent[find(a)] = find(b)
    loops = len({find(v) for e in boundary for v in e})
    chi = mesh.n_vertices - len(edges) + mesh.n_triangles
    genus = (2 - loops - chi) // 2
    return chi, loops, genus


def _tetrahedron():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    t = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    return Triangulation(v, t)


def _disk():
    return planar_fixture(
        [(0, 0), (1, 0), (1, 1), (0, 1)], spacing=0.3
    )


def _annulus():
    return cylinder_shell(rows=2)


def _torus_with_hole():
    full = torus()
    sub = Patch(full, np.arange(3, full.n_triangles))  # cut a small hole
    return sub.tri


def test_8_topology_formula():
    cases = {
        "disk": _disk(),
        "annulus": _annulus(),
        "tetrahedron": _tetrahedron(),
        "torus": torus(),
        "torus-with-hole": _torus_with_hole(),
    }
    ok = True
    details = []
    for name, mesh in cases.items():
        topo, parametrizable = euler_check(mesh)
        chi, loops, genus = _independent_topology(mesh)
        agree = (
            topo.b == loops
            and topo.g == genus
            and topo.formula_residual() == 0
            and parametrizable == (genus == 0 and loops >= 1)
        )
        ok = ok and agree
        details.append(f"{name} g={topo.g} b={topo.b} {'ok' if agree else 'BAD'}")
    # closed and g>0 inputs end up split into parametrizable patches
    for mesh in (_tetrahedron(), torus()):
        atlas = build_atlas(mesh, PipelineOptions(refine_threshold=None))
        for patch in atlas.patches:
            info, good = patch.topology()
            ok = ok and good and info.g == 0 and info.b >= 1
    _report("8-topology-formula", ok, "; ".join(details))


# -- 9. thread determinism ---------------------------------------------------

def test_9_thread_determinism(tmp_path):
    ok = True
    details = []
    for name, build, size in PIPELINE_FIXTURES:
        mesh = build()
        src = tmp_path / f"{name}.msh"
        write_mesh(mesh, src)
        outs = []
        for threads in (1, 8):
            dst = tmp_path / f"{name}_t{threads}.msh"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "atlasmesh.cli", "remesh",
                    str(src), "--size", str(size),
                    "--threads", str(threads), "-o", str(dst),
                ],
                capture_output=True, text=True, env=package_env(),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(dst.read_bytes())
        same = outs[0] == outs[1]
        ok = ok and same
        details.append(f"{name} {'identical' if same else 'DIFFERS'}")
    _report("9-thread-determinism", ok, "; ".join(details))
