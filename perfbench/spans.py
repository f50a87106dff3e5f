"""Spans around every public ``steklov`` function, recorded from outside.

``Tracer.install`` replaces each public function of the package at every
module attribute that binds it -- ``from .spectrum import lambda_k`` copies
the name into ``steklov``, ``steklov.packing``, ``steklov.resistance`` and
others, so wrapping only the defining module would miss most calls.
``uninstall`` puts the originals back.  Spans are kept in memory as tuples
and written out as JSON lines at the end; self time is a span's duration
minus the time its child spans cover.

The per-layer metric set is fixed by ``LAYER_FUNCTIONS`` so that every run
prints the same names: a listed function that no longer exists reports 0,
and an unlisted public function is still wrapped and counted in its
layer's ``self_s`` and ``errors``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

LAYER_FUNCTIONS = {
    "graphs": ("build_boundary_graph", "with_boundary", "build_rotation_graph",
               "laplacian", "trace_faces", "is_connected", "genus",
               "is_fully_triangulated"),
    "spectrum": ("dtn_matrix", "steklov_spectrum", "lambda_k",
                 "rayleigh_quotient", "vector_rayleigh_bound"),
    "packing": ("circle_pack", "lift_to_sphere", "mobius_normalize",
                "certify_planar_bound", "packing_svg"),
    "refine": ("fully_triangulate", "hex_subdivide", "refine", "boundary_growth"),
    "immersion": ("verify_immersion", "comparison_bound", "random_immersion",
                  "chain_bound"),
    "resistance": ("effective_resistance", "resistance_genus_floor"),
    "harness": ("max_instance_size", "parse_document", "serialize_document",
                "document_to_graph", "graph_to_document", "tetrahedron",
                "octahedron", "icosahedron", "gen_sphere", "gen_torus",
                "gen_genus", "sweep_main_bound", "records_to_csv", "sweep_svg"),
    "cli": ("cli", "entry"),
}

# Work and quality counts taken from arguments and results: (name, unit, how
# several values combine).
COUNTERS = (
    ("graphs.edges_validated", "count", "sum"),
    ("spectrum.boundary_cols", "count", "sum"),
    ("spectrum.interior_rows", "count", "sum"),
    ("packing.residual_max", "rad", "max"),
    ("packing.centroid_norm_max", "1", "max"),
    ("packing.mobius_refusals", "count", "sum"),
    ("resistance.discrepancy_max", "ohm", "max"),
    ("immersion.paths_routed", "count", "sum"),
    ("harness.bytes_parsed", "B", "sum"),
)


def metric_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for layer, funcs in LAYER_FUNCTIONS.items():
        for f in funcs:
            units[f"{layer}.{f}.calls"] = "count"
            units[f"{layer}.{f}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    for name, unit, _ in COUNTERS:
        units[name] = unit
    units["cli.import_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.top_coverage"] = "1"
    return units


def _base(g):
    return getattr(g, "base", g)


def _count_boundary(tr, args, kwargs, res, exc):
    base = _base(args[0] if args else kwargs["g"])
    nb = len(base.boundary)
    tr.bump("spectrum.boundary_cols", nb)
    tr.bump("spectrum.interior_rows", base.n - nb)


def _count_mobius(tr, args, kwargs, res, exc):
    if exc is not None:
        if type(exc).__name__ == "NormalizationFailure":
            tr.bump("packing.mobius_refusals", 1)
        return
    subset = args[1] if len(args) > 1 else kwargs.get("subset")
    idx = list(res.boundary if subset is None else subset)
    tr.top("packing.centroid_norm_max",
           float(np.linalg.norm(res.points[idx].mean(axis=0))))


def _count_parse(tr, args, kwargs, res, exc):
    text = args[0] if args else kwargs["text"]
    tr.bump("harness.bytes_parsed", len(text.encode("utf-8")))


def _on_result(fn):
    def hook(tr, args, kwargs, res, exc):
        if exc is None:
            fn(tr, res)
    return hook


_HOOKS = {
    "graphs.build_boundary_graph": _on_result(
        lambda tr, res: tr.bump("graphs.edges_validated", len(res.edges))),
    "spectrum.dtn_matrix": _count_boundary,
    "spectrum.steklov_spectrum": _count_boundary,
    "packing.circle_pack": _on_result(
        lambda tr, res: tr.top("packing.residual_max", float(res.residual))),
    "packing.mobius_normalize": _count_mobius,
    "resistance.effective_resistance": _on_result(
        lambda tr, res: tr.top("resistance.discrepancy_max", float(res.discrepancy))),
    "immersion.random_immersion": _on_result(
        lambda tr, res: tr.bump("immersion.paths_routed", len(res.path_map))),
    "harness.parse_document": _count_parse,
}


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op, error)
        self.counts = {}
        self._stack = []
        self._op = None
        self._next = 0
        self._saved = []         # (module, attribute, original)

    # -- counters -----------------------------------------------------------
    def bump(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def top(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    # -- spans --------------------------------------------------------------
    def _new_id(self):
        self._next += 1
        return self._next

    def begin_op(self, name):
        sid = self._new_id()
        self._op = sid
        self._stack = [sid]
        return (sid, name, perf_counter())

    def end_op(self, token, error):
        sid, name, start = token
        self.spans.append((sid, "op:" + name, start, perf_counter(), None, sid, error))
        self._stack = []
        self._op = None

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._stack
            parent = st[-1] if st else None
            sid = tracer._new_id()
            st.append(sid)
            exc = None
            res = None
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                st.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer._op,
                                     exc is not None))
                if hook is not None:
                    hook(tracer, args, kwargs, res, exc)

        return traced

    def install(self):
        """Wrap every public steklov function at each attribute binding it."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "steklov" or k.startswith("steklov."))]
        wrappers = {}
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if not (inspect.isfunction(val) and val.__module__.startswith("steklov.")
                        and not val.__name__.startswith("_")):
                    continue
                if val not in wrappers:
                    layer = val.__module__.split(".", 1)[1]
                    wrappers[val] = self._wrap(val, f"{layer}.{val.__name__}")
                self._saved.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved = []

    # -- results ------------------------------------------------------------
    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, err in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "error": err}) + "\n")

    def summary(self, passes: int) -> dict:
        """Per-pass calls, self time, errors and counts, plus top-level
        coverage (time inside steklov spans called directly by an op over
        the time of the ops)."""
        child = {}
        for sid, name, start, end, parent, op, err in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        op_ids = {s[0] for s in self.spans if s[4] is None}
        calls, self_s, errors = {}, {}, {}
        op_time = top_time = 0.0
        for sid, name, start, end, parent, op, err in self.spans:
            dur = end - start
            if parent is None:
                op_time += dur
                continue
            if parent in op_ids:
                top_time += dur
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child.get(sid, 0.0)
            if err:
                layer = name.split(".", 1)[0]
                errors[layer] = errors.get(layer, 0) + 1
        out = {}
        for layer, funcs in LAYER_FUNCTIONS.items():
            for f in funcs:
                key = f"{layer}.{f}"
                out[f"{key}.calls"] = calls.get(key, 0) / passes
                out[f"{key}.self_s"] = self_s.get(key, 0.0) / passes
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer) / passes
            out[f"{layer}.errors"] = errors.get(layer, 0) / passes
        for name, _, how in COUNTERS:
            val = self.counts.get(name, 0)
            out[name] = val / passes if how == "sum" else val
        out["trace.top_coverage"] = top_time / op_time if op_time else 0.0
        return out
