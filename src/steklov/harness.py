"""Graph families, JSON interchange, and the main-bound experiment sweep.

Generators produce fully triangulated rotation graphs of known genus:
spheres by repeatedly hex-subdividing an icosahedron, tori as diagonal
wraparound grids, and higher genus by inserting handles into a torus (an
extra edge drawn between two far-apart triangular faces merges them and
raises the genus by one; retriangulating restores the triangle-only
invariant).  The genus family is nested, each member the previous one
plus a handle, so the sweep walks it once: one torus, then one handle per
genus.  Per genus it assigns a boundary by policy and records
lambda_2 * |boundary| / g as a CSV row.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NoReturn

import numpy as np

from .errors import (
    DuplicateEdge,
    MalformedRotation,
    NonCycleFace,
    SchemaError,
    TooSmall,
    ValidationError,
)
from .graphs import (
    BoundaryGraph,
    RotationGraph,
    _check_int,
    _seeded_rng,
    _vertex_array,
    build_boundary_graph,
    build_rotation_graph,
    is_connected,
    is_fully_triangulated,
    with_boundary,
)
from .refine import _clip_face, hex_subdivide
from .spectrum import lambda_k

_log = logging.getLogger("steklov.harness")

_DEFAULT_MAX_N = 20_000


def max_instance_size() -> int:
    """Vertex cap from the STEKLOV_MAX_N environment variable."""
    raw = os.environ.get("STEKLOV_MAX_N", "")
    if not raw:
        return _DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"STEKLOV_MAX_N must be an integer, got {raw!r}")
    if cap < 1:
        raise ValidationError(f"STEKLOV_MAX_N must be positive, got {cap}")
    return cap


def _enforce_cap(n: int, what: str) -> None:
    cap = max_instance_size()
    if n > cap:
        raise ValidationError(f"{what} has {n} vertices, over the cap of {cap} "
                              "(raise STEKLOV_MAX_N to allow this)")


# ---------------------------------------------------------------------------
# JSON interchange


@dataclass(frozen=True)
class GraphDocument:
    """Canonical file form of a graph: counts, edges, boundary, and
    optionally a rotation system and free-form metadata."""

    n: int
    edges: tuple[tuple[int, int], ...]
    boundary: tuple[int, ...]
    rotation: tuple[tuple[int, ...], ...] | None = None
    meta: dict | None = None

    @cached_property
    def _graph(self) -> BoundaryGraph:
        """The graph without rotation; :func:`parse_document` validates by it."""
        return build_boundary_graph(self.n, self.edges, self.boundary)


def _first_offender(n: int, raw_edges: list, raw_boundary) -> NoReturn:
    """Raise the SchemaError of the first offending edge or boundary entry,
    in input order.  Run only on edges and boundary already refused."""
    seen: dict[tuple[int, int], int] = {}
    for i, e in enumerate(raw_edges):
        if not isinstance(e, list) or len(e) != 2:
            raise SchemaError(f"edges[{i}]: expected a pair [u, v]")
        u, v = (_check_int(x, f"edges[{i}][{k}]", 0, n, SchemaError) for k, x in enumerate(e))
        if u >= v:
            raise SchemaError(f"edges[{i}]: endpoints must satisfy u < v, got {e}")
        j = seen.setdefault((u, v), i)
        if j < i:
            raise SchemaError(f"edges[{i}]: duplicate of edges[{j}]")
    if not isinstance(raw_boundary, list) or not raw_boundary:
        raise SchemaError("boundary: expected a non-empty list")
    for i, b in enumerate(raw_boundary):
        _check_int(b, f"boundary[{i}]", 0, n, SchemaError)
        if i and b <= raw_boundary[i - 1]:
            raise SchemaError(f"boundary[{i}]: entries must be strictly increasing")
    raise SchemaError("edges and boundary: refused, but no entry could be located")


def parse_document(text: str) -> GraphDocument:
    """Parse and strictly validate the JSON graph format.

    Edges and boundary must pass :func:`build_boundary_graph`, whose graph
    the document keeps, with every edge ``u < v`` and the boundary strictly
    increasing.  A refused document is walked in input order to report its
    first violation, e.g. ``edges[4]: endpoints must satisfy u < v``.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"top level: expected an object, got {type(obj).__name__}")
    allowed = {"n", "edges", "boundary", "rotation", "meta"}
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unexpected key {key!r}")
    for key in ("n", "edges", "boundary"):
        if key not in obj:
            raise SchemaError(f"missing required key {key!r}")

    n = _check_int(obj["n"], "n", 1, error=SchemaError)
    _enforce_cap(n, "document")

    raw_edges, raw_boundary = obj["edges"], obj["boundary"]
    if not isinstance(raw_edges, list):
        raise SchemaError("edges: expected a list")
    try:  # a boundary that is no list is built as empty, to be worded after the edges
        base = build_boundary_graph(n, raw_edges,
                                    raw_boundary if isinstance(raw_boundary, list) else [])
    except ValidationError:
        _first_offender(n, raw_edges, raw_boundary)
    if not all(u < v for u, v in raw_edges) or tuple(raw_boundary) != base.boundary:
        _first_offender(n, raw_edges, raw_boundary)

    rotation = None
    if "rotation" in obj and obj["rotation"] is not None:
        raw_rot = obj["rotation"]
        if not isinstance(raw_rot, list) or len(raw_rot) != n:
            raise SchemaError(f"rotation: expected a list of {n} neighbour rings")
        rings = [ring for ring in raw_rot if isinstance(ring, list)]
        flat = list(chain.from_iterable(rings))
        if len(rings) < n or _vertex_array(flat, n)[1] < len(flat):
            for v, ring in enumerate(raw_rot):  # word the first offender
                if not isinstance(ring, list):
                    raise SchemaError(f"rotation[{v}]: expected a list")
                for i, w in enumerate(ring):
                    _check_int(w, f"rotation[{v}][{i}]", 0, n, SchemaError)
        rotation = tuple(map(tuple, raw_rot))

    meta = None
    if "meta" in obj and obj["meta"] is not None:
        if not isinstance(obj["meta"], dict):
            raise SchemaError("meta: expected an object")
        meta = obj["meta"]

    # A file written from a graph lists its edges in canonical order: share them.
    shared = all(map(tuple.__eq__, map(tuple, raw_edges), base.edges))
    doc = GraphDocument(n, base.edges if shared else tuple(map(tuple, raw_edges)),
                        base.boundary, rotation, meta)
    doc.__dict__["_graph"] = base
    return doc


def serialize_document(doc: GraphDocument) -> str:
    """Deterministic JSON text; parse(serialize(doc)) == doc."""
    obj: dict = {
        "n": doc.n,
        "edges": [list(e) for e in doc.edges],
        "boundary": list(doc.boundary),
    }
    if doc.rotation is not None:
        obj["rotation"] = [list(r) for r in doc.rotation]
    if doc.meta is not None:
        obj["meta"] = doc.meta
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def document_to_graph(doc: GraphDocument):
    """Materialize a BoundaryGraph, or a RotationGraph when the document
    carries a rotation system; either way on the document's one graph."""
    return doc._graph if doc.rotation is None else build_rotation_graph(doc._graph, doc.rotation)


def graph_to_document(g, meta: dict | None = None) -> GraphDocument:
    if isinstance(g, RotationGraph):
        return GraphDocument(n=g.n, edges=g.edges, boundary=g.boundary,
                             rotation=g.rotation, meta=meta)
    return GraphDocument(n=g.n, edges=g.edges, boundary=g.boundary, meta=meta)


# ---------------------------------------------------------------------------
# Generators


def _solid(coords: np.ndarray, edge_len2: float) -> RotationGraph:
    """Rotation graph of a convex solid: connect vertex pairs at the given
    squared distance and order each neighbour ring by angle in the tangent
    plane, which yields a consistent orientation of the sphere."""
    n = len(coords)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(float(((coords[i] - coords[j]) ** 2).sum()) - edge_len2) < 1e-9:
                edges.append((i, j))
    g = build_boundary_graph(n, edges, range(n))
    rotation = []
    for v in range(n):
        p = coords[v] / np.linalg.norm(coords[v])
        a = np.array([1.0, 0.0, 0.0]) if abs(p[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = a - (a @ p) * p
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(p, e1)
        ring = []
        for u in g.neighbors[v]:
            w = coords[u] - coords[v]
            ring.append((math.atan2(float(w @ e2), float(w @ e1)), u))
        rotation.append([u for _, u in sorted(ring)])
    return build_rotation_graph(g, rotation)


def tetrahedron() -> RotationGraph:
    coords = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], float)
    return _solid(coords, 8.0)


def octahedron() -> RotationGraph:
    coords = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                       (0, -1, 0), (0, 0, 1), (0, 0, -1)], float)
    return _solid(coords, 2.0)


def icosahedron() -> RotationGraph:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    coords = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            coords.append((0.0, s1, s2 * phi))
            coords.append((s1, s2 * phi, 0.0))
            coords.append((s1 * phi, 0.0, s2))
    return _solid(np.array(coords), 4.0)


def gen_sphere(level: int) -> RotationGraph:
    """Icosahedron refined ``level`` times: genus 0, max degree 6,
    (V, E, F) = (12, 30, 20), (42, 120, 80), (162, 480, 320), ..."""
    level = _check_int(level, "level", 0)
    rg = icosahedron()
    for _ in range(level):
        _enforce_cap(rg.n + len(rg.edges), "subdivided sphere")
        rg = hex_subdivide(rg)
    return rg


def gen_torus(n: int, m: int) -> RotationGraph:
    """n-by-m wraparound grid with one diagonal per square: V = nm,
    E = 3nm, F = 2nm, genus 1, every vertex of degree 6."""
    n = _check_int(n, "n", 1)
    m = _check_int(m, "m", 1)
    if n < 3 or m < 3:
        raise TooSmall(f"torus grid needs n, m >= 3, got ({n}, {m})")
    _enforce_cap(n * m, "torus grid")

    i, j = np.divmod(np.arange(n * m), m)

    def vid(di: int, dj: int) -> np.ndarray:
        return (i + di) % n * m + (j + dj) % m

    # Ring of (i, j): right, up, up-left, left, down, down-right; the last
    # two and the first are the edges it owns.
    rotation = np.stack([vid(0, 1), vid(-1, 0), vid(-1, -1),
                         vid(0, -1), vid(1, 0), vid(1, 1)], axis=1)
    edges = np.stack([np.repeat(np.arange(n * m), 3),
                      rotation[:, [0, 4, 5]].ravel()], axis=1)
    g = build_boundary_graph(n * m, edges, range(n * m))
    return build_rotation_graph(g, rotation)


def _attach_handle(rg: RotationGraph, fa, fb) -> RotationGraph:
    """Draw an edge through a new handle joining faces fa and fb.

    With the new darts inserted at the corners of fa and fb, the two
    triangles merge into one octagonal walk (Euler characteristic drops by
    2); clipping ears off that walk restores a triangulation one genus up.
    The result is built and validated once.
    """
    va, xa, ya = fa
    vb, xb, yb = fb
    rot = [list(r) for r in rg.rotation]
    rot[va].insert(rot[va].index(ya) + 1, vb)
    rot[vb].insert(rot[vb].index(yb) + 1, va)
    # The new dart (va, vb) turns into fb, and (vb, va) back into fa.
    walk = [va, vb, xb, yb, vb, va, xa, ya]
    # Start the walk at its first dart in vertex/rotation order, where
    # trace_faces starts a face: the ear clipping depends on the start.
    i = min(range(8), key=lambda j: (walk[j], rot[walk[j]].index(walk[(j + 1) % 8])))
    walk = walk[i:] + walk[:i]
    new = (min(va, vb), max(va, vb))
    edge_set = set(rg.base.edge_set) | {new}
    edges = list(rg.base.edges) + [new]
    _clip_face(walk, rot, edge_set, edges)
    return build_rotation_graph(build_boundary_graph(rg.n, edges, rg.boundary), rot)


def _add_handle(rg: RotationGraph) -> RotationGraph:
    """Insert one handle between the first admissible far-apart face pair.

    Admissible means vertex-disjoint with no edges between the two
    triangles, so the retriangulation of the merged walk has room for its
    chords.  The scan order is deterministic.  A candidate is accepted
    when it is connected, all triangles and one genus up.
    """
    darts = rg._darts
    chi = rg.n - len(rg.edges) + len(darts.first) - 2  # Euler characteristic one genus up
    faces = darts.tail[darts.corners(darts.size == 3)].tolist()
    eset = rg.base.edge_set
    for ia in range(len(faces)):
        fa = faces[ia]
        sa = set(fa)
        for ib in range(ia + 1, len(faces)):
            fb = faces[ib]
            if sa & set(fb):
                continue
            if any((min(a, b), max(a, b)) in eset for a in fa for b in fb):
                continue
            for ra in range(3):
                for rb in range(3):
                    try:
                        out = _attach_handle(rg, fa[ra:] + fa[:ra], fb[rb:] + fb[:rb])
                    except (NonCycleFace, DuplicateEdge, MalformedRotation):
                        continue
                    if (out.n - len(out.edges) + len(out._darts.first) == chi
                            and is_fully_triangulated(out) and is_connected(out.base)):
                        return out
    raise TooSmall("no face pair is far enough apart to attach a handle; "
                   "increase the resolution")


def _genus_family(g_max: int, resolution: int):
    """Yield gen_genus(g, resolution) for g = 1..g_max: one torus, then
    one handle on the previous member per step."""
    resolution = _check_int(resolution, "resolution", 1)
    rg = gen_torus(resolution, resolution)
    yield rg
    for _ in range(g_max - 1):
        rg = _add_handle(rg)
        yield rg


def gen_genus(g: int, resolution: int = 5) -> RotationGraph:
    """Torus grid with g - 1 handles: fully triangulated, genus exactly g.

    The family is nested: gen_genus(g, r) is gen_genus(g - 1, r) plus one
    handle, an edge between two far-apart triangles and five chords
    retriangulating the merged face.  So E = 3r^2 + 6(g - 1) and the mean
    degree is 6 + 12(g - 1)/r^2.  The maximum degree is not bounded by a
    constant: the scan takes the first admissible face pair, so handles
    can land on vertices earlier handles raised (gen_genus(4, r) has
    degree 12, gen_genus(28, 6) degree 30).
    """
    g = _check_int(g, "g", 1)
    for rg in _genus_family(g, resolution):
        pass
    return rg


# ---------------------------------------------------------------------------
# Sweep


@dataclass(frozen=True)
class SweepRecord:
    family: str
    g: int
    D: int
    boundary_size: int
    lambda2: float
    product: float
    product_over_g: float


CSV_HEADER = "family,g,D,boundary_size,lambda2,product,product_over_g"


def _policy_boundary(rg: RotationGraph, policy: str) -> list[int]:
    if policy == "all-vertices":
        return list(range(rg.n))
    if policy == "single-face":
        return np.unique(rg._darts.tail[rg._darts.face == 0]).tolist()
    if policy.startswith("random-fraction:"):
        parts = policy.split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"random-fraction policy must look like 'random-fraction:P:SEED', got {policy!r}")
        try:
            p = float(parts[1])
            seed = int(parts[2])
        except ValueError:
            raise ValidationError(f"could not parse policy parameters in {policy!r}")
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"fraction must lie in (0, 1], got {p}")
        mask = _seeded_rng(seed).random(rg.n) < p
        return [v for v in range(rg.n) if mask[v]]
    raise ValidationError(f"unknown boundary policy {policy!r}")


def sweep_main_bound(g_max: int, resolution: int,
                     boundary_policy: str = "all-vertices") -> list[SweepRecord]:
    """Per genus 1..g_max: build the genus family, pick the boundary by
    policy, and record lambda_2 * |boundary| / g.  Instances whose policy
    leaves fewer than two boundary vertices are skipped with a logged
    diagnostic (lambda_2 needs a two-point spectrum)."""
    g_max = _check_int(g_max, "g_max", 1)
    records: list[SweepRecord] = []
    for gg, rg in enumerate(_genus_family(g_max, resolution), start=1):
        chosen = _policy_boundary(rg, boundary_policy)
        if len(chosen) < 2:
            _log.warning("genus %d: policy %r selected %d boundary vertices; "
                         "skipping (lambda_2 needs at least 2)",
                         gg, boundary_policy, len(chosen))
            continue
        gb = with_boundary(rg, chosen)
        lam2 = lambda_k(gb, 2)
        product = lam2 * len(chosen)
        records.append(SweepRecord(
            family="genus",
            g=gg,
            D=gb.base.max_degree,
            boundary_size=len(chosen),
            lambda2=lam2,
            product=product,
            product_over_g=product / max(gg, 1),
        ))
    return records


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.family},{r.g},{r.D},{r.boundary_size},"
                     f"{r.lambda2:.12g},{r.product:.12g},{r.product_over_g:.12g}")
    return "\n".join(lines) + "\n"


def sweep_svg(records) -> str:
    """Scatter of product_over_g against genus, as a standalone SVG."""
    width, height, margin = 480, 320, 50.0
    xs = [r.g for r in records]
    ys = [r.product_over_g for r in records]
    x_lo, x_hi = (min(xs) - 0.5, max(xs) + 0.5) if xs else (0.0, 1.0)
    y_hi = 1.1 * max(ys) if ys else 1.0

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - y / y_hi * (height - 2 * margin)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'  <line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#000"/>',
        f'  <line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#000"/>',
        f'  <text x="{width / 2:.1f}" y="{height - 12}" font-size="12" '
        'text-anchor="middle">genus</text>',
        f'  <text x="14" y="{height / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.1f})">lambda2*|bdry|/g</text>',
    ]
    for r in records:
        lines.append(f'  <circle cx="{px(r.g):.2f}" cy="{py(r.product_over_g):.2f}" '
                     'r="4" fill="#2060c0"/>')
        lines.append(f'  <text x="{px(r.g):.2f}" y="{height - margin + 16:.2f}" '
                     f'font-size="11" text-anchor="middle">{r.g}</text>')
    for frac in (0.0, 0.5, 1.0):
        yv = frac * y_hi
        lines.append(f'  <text x="{margin - 6:.2f}" y="{py(yv) + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{yv:.3g}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
