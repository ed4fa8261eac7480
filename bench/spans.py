"""Spans and counters around the calls the remesh pipeline makes.

`Tracer.install` replaces public names in the namespaces where the
pipeline looks them up (for example `atlasmesh.pipeline.build_brep`, or
`atlasmesh.remesh.UVLocator` inside the remesher) with timing wrappers,
and `Tracer.uninstall` puts the originals back.  The program's sources
are not touched.  Spans live in memory until `save` writes them out.

A span's name is `<module>.<function>`; the module is the layer the call
enters, so a layer's self time is the time of its spans less the time of
spans nested in them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import numpy as np

# Edits the remesher's adaptation loop makes on its planar mesh.
EDITS = {"split_edge": "splits", "collapse": "collapses", "flip": "flips",
         "move_vertex": "moves"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.records: list[tuple] = []  # (name id, span id, parent, op, t0, t1)
        self.counters: dict[str, float] = {}
        self.op = -1
        self.uv_nonpositive = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # the per-face map may run in threads
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_id.get(name)
                if nid is None:
                    nid = self._name_id[name] = len(self.names)
                    self.names.append(name)
        return nid

    def count(self, key, n=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name, fn, args, kwargs, parent=None):
        """Run fn inside a span; `parent` overrides the thread's own stack."""
        nid = self._nid(name)
        sid = next(self._ids)
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.records.append((nid, sid, parent, self.op, t0, t1))

    # -- installing wrappers ------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, functools.update_wrapper(make(orig), orig, updated=()))

    def _span(self, owner, attr, name, after=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                out = self.call(name, orig, args, kwargs)
                if after is not None:
                    after(out, args)
                return out
            return wrapper
        self._patch(owner, attr, make)

    def install(self):
        from atlasmesh import atlas, cli, io, param, pipeline, planar, remesh

        self._span(io, "load_surface", "io.load_surface")
        self._span(io, "write_mesh", "io.write_mesh")
        self._span(cli, "remesh_model", "pipeline.remesh_model")
        self._span(pipeline, "build_atlas", "pipeline.build_atlas")
        self._span(pipeline, "Adjacency", "mesh.Adjacency")
        self._span(pipeline, "validate", "mesh.validate")
        self._span(pipeline, "detect_feature_edges", "features.detect_feature_edges")
        self._span(pipeline, "segment_patches", "features.segment_patches")
        self._span(pipeline, "make_parametrizable", "atlas.make_parametrizable")
        self._span(pipeline, "build_brep", "atlas.build_brep")
        self._span(atlas, "bisect_patch", "atlas.bisect_patch")
        self._span(atlas, "parametrize", "param.parametrize",
                   lambda out, a: self.count("atlas.trial_param_calls"))
        self._span(pipeline, "parametrize", "param.parametrize",
                   self._check_uv)
        self._span(pipeline, "longest_edge_bisection", "refine.longest_edge_bisection",
                   lambda out, a: self.count("refine.out_triangles", out[0].n_triangles))
        self._span(param, "assemble_system", "param.assemble_system",
                   lambda out, a: self.count("param.unknowns", out.A.shape[0]))
        self._span(param, "solve", "param.solve")
        self._span(pipeline, "discretize_curve", "remesh.discretize_curve")
        self._span(pipeline, "mesh_patch_uv", "remesh.mesh_patch_uv")
        self._span(pipeline, "map_to_3d", "remesh.map_to_3d")
        self._span(pipeline, "stitch", "remesh.stitch")
        self._span(remesh, "FaceMetric", "remesh.FaceMetric")
        locator_cls = remesh.UVLocator
        self._span(remesh, "UVLocator", "remesh.UVLocator")
        self._patch(locator_cls, "locate", self._wrap_locate)
        self._patch(remesh, "constrained_triangulation", self._wrap_cdt)
        self._span(remesh, "clip_to_loops", "planar.clip_to_loops")
        for method, key in EDITS.items():
            self._patch(planar.PlanarMesh, method, self._edit_wrapper(key))
        self._patch(pipeline, "_run_parallel", self._wrap_map)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _check_uv(self, param, args):
        """The paper's theorem, recomputed: every parametric triangle is positive."""
        p = param.uv[args[0].tri.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        self.uv_nonpositive += int((area <= 0.0).sum())

    def _wrap_locate(self, orig):
        def locate(loc, q, clamp=False):
            t, bary = self.call("remesh.locate", orig, (loc, q), {"clamp": clamp})
            # clamped: the answer's point is off the query by more than
            # 1e-12 of the locator's grid extent
            d = bary @ loc.uv[loc.tris[t]] - q
            if float(d @ d) > 1e-24 * loc.ncell ** 2 * float(loc.cell @ loc.cell):
                self.count("remesh.locate_clamped")
            return t, bary
        return locate

    def _wrap_cdt(self, orig):
        def constrained_triangulation(*args, **kwargs):
            # flips made while recovering constraints are not adaptation edits
            self._local.in_cdt = True
            try:
                return self.call("planar.constrained_triangulation", orig, args, kwargs)
            finally:
                self._local.in_cdt = False
        return constrained_triangulation

    def _edit_wrapper(self, key):
        def make(orig):
            def edit(mesh, *args, **kwargs):
                out = self.call("planar.edit", orig, (mesh,) + args, kwargs)
                if not getattr(self._local, "in_cdt", False):
                    self.count("planar.attempts")
                    if out is not None and out is not False:
                        self.count("planar." + key)
                return out
            return edit
        return make

    def _wrap_map(self, orig):
        def run_parallel(fn, items, threads):
            items = list(items)
            name = "pipeline.map." + getattr(fn, "__name__", "fn")
            if name == "pipeline.map.mesh_face":
                self.count("pipeline.faces", len(items))

            def body():
                parent = self._stack()[-1]  # this map's span, for pool threads
                return orig(
                    lambda it: self.call("pipeline.item", fn, (it,), {}, parent=parent),
                    items, threads,
                )

            return self.call(name, body, (), {})
        return run_parallel

    # -- reporting ----------------------------------------------------------

    def save(self, path):
        cols = list(zip(*self.records)) or [()] * 6
        np.savez_compressed(
            path,
            names=np.asarray(json.dumps(self.names)),
            name=np.asarray(cols[0], dtype=np.int32),
            span=np.asarray(cols[1], dtype=np.int64),
            parent=np.asarray(cols[2], dtype=np.int64),
            op=np.asarray(cols[3], dtype=np.int32),
            start=np.asarray(cols[4], dtype=np.float64),
            end=np.asarray(cols[5], dtype=np.float64),
        )

    def self_times(self):
        """Per span record: duration less the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _n, _s, parent, _op, t0, t1 in self.records:
            children.setdefault(parent, []).append((t0, t1))
        out = []
        for nid, sid, _p, _op, t0, t1 in self.records:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((self.names[nid], (t1 - t0) - covered))
        return out
