"""Triangulation completion and hexagon-subdivision refinement.

``fully_triangulate`` splits every non-triangular face with alternating
("zig-zag") chords.  ``hex_subdivide`` replaces each triangular face with
four smaller ones via edge midpoints; ``refine`` iterates it k times,
assigns every new vertex to its nearest original vertex (BFS distance,
ties to the smallest original index), and inherits the boundary through
that assignment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonCycleFace, NotTriangulated
from .graphs import (
    BoundaryGraph,
    RotationGraph,
    _check_int,
    _rotation_graph,
    build_boundary_graph,
    build_rotation_graph,
    is_fully_triangulated,
    with_boundary,
)


def fully_triangulate(rg: RotationGraph) -> RotationGraph:
    """Add chords inside every face of length > 3 until all faces are triangles.

    A face traced as (w0, w1, ..., w_{s-1}) with distinct vertices receives
    the alternating chords {w1,w_{s-1}}, {w1,w_{s-2}}, {w2,w_{s-2}}, ... —
    ear clips at w0, w_{s-1}, w1, w_{s-2}, ... — which adds at most two new
    edges at any one vertex per face.  Corners whose chord already exists
    are skipped; walks that revisit a vertex fall back to clipping any
    corner with an available chord.  Raises NonCycleFace when a face cannot
    be reduced (length-2 faces, or no candidate chord remains).
    """
    rot = [list(ring) for ring in rg.rotation]
    edge_set = set(rg.base.edge_set)
    all_edges = list(rg.base.edges)

    for face in rg.faces:
        if len(face) < 3:
            raise NonCycleFace(
                f"face {face} has length {len(face)} and cannot be triangulated"
            )
        if len(face) > 3:
            _clip_face(list(face), rot, edge_set, all_edges)

    out = build_rotation_graph(
        build_boundary_graph(rg.n, all_edges, rg.boundary), rot
    )
    if not is_fully_triangulated(out):  # pragma: no cover - guarded by the clipping loop
        raise NonCycleFace("a face survived triangulation")
    return out


def _clip_face(walk, rot, edge_set, all_edges):
    """Reduce one face walk to a triangle by repeated ear clipping."""
    preferred: list[int] = []
    if len(set(walk)) == len(walk):
        preferred.append(walk[0])
        front, back = 1, len(walk) - 1
        while front <= back:
            preferred.append(walk[back])
            back -= 1
            if front <= back:
                preferred.append(walk[front])
                front += 1

    while len(walk) > 3:
        idx = _pick_ear(walk, edge_set, preferred)
        if idx is None:
            raise NonCycleFace(
                f"no admissible chord remains while triangulating walk {walk}"
            )
        _clip_at(walk, idx, rot, edge_set, all_edges)


def _pick_ear(walk, edge_set, preferred):
    m = len(walk)

    def admissible(i: int) -> bool:
        x, z = walk[i - 1], walk[(i + 1) % m]
        return x != z and (min(x, z), max(x, z)) not in edge_set

    for v in preferred:
        try:
            i = walk.index(v)
        except ValueError:
            continue
        if admissible(i):
            return i
    for i in range(m):
        if admissible(i):
            return i
    return None


def _clip_at(walk, i, rot, edge_set, all_edges):
    """Cut corner walk[i]: add the chord {walk[i-1], walk[i+1]}.

    The new triangle keeps the clipped corner; the remaining face walk
    shortcuts across the chord.  Rotation updates: the chord partner is
    inserted just before the corner in the rotation at one endpoint and
    just after it at the other, which re-routes exactly the two affected
    face traces.
    """
    m = len(walk)
    x, y, z = walk[i - 1], walk[i], walk[(i + 1) % m]
    rx = rot[x]
    rx.insert(rx.index(y), z)
    rz = rot[z]
    rz.insert(rz.index(y) + 1, x)
    e = (min(x, z), max(x, z))
    edge_set.add(e)
    all_edges.append(e)
    del walk[i]


def hex_subdivide(rg: RotationGraph) -> RotationGraph:
    """Replace each triangular face by four triangles using edge midpoints.

    Original vertices keep their ids and degrees; the midpoint of edge e
    gets id n + (index of e in the sorted edge list) and is adjacent to
    its two endpoints and the midpoints of the co-facial edges.  Counts
    follow V' = V + E, E' = 2E + 3F, F' = 4F, so the Euler characteristic
    (and hence the genus) is unchanged.  A new vertex joins the boundary
    when its nearest original vertex (smallest index among the two
    endpoints) is a boundary vertex.
    """
    if not is_fully_triangulated(rg):
        raise NotTriangulated("hexagon subdivision requires every face to be a triangle")
    n, ea, darts = rg.n, rg.base.edge_array, rg._darts
    mids = np.arange(n, n + len(ea))
    m = n + darts.edge  # midpoint of each dart's edge
    nxt = darts.next
    # Each edge joins its endpoints to its midpoint; each face (x, y, z), in
    # trace order from its first dart, gets the inner triangle on the
    # midpoints of (x, y), (y, z) and (z, x).
    walk = darts.corners().ravel()
    new_edges = np.concatenate((
        np.stack((ea[:, 0], mids, ea[:, 1], mids), axis=1).reshape(-1, 2),
        np.stack((m[walk], m[nxt[walk]]), axis=1)))
    # Old vertices see the midpoints of their edges in rotation order.  The
    # midpoint of (u, v) sees u, m(a, u), m(v, a), v, m(b, v), m(u, b), where
    # a and b are the apexes of the faces carrying the darts (u, v) and (v, u).
    fa = nxt[darts.along]
    fb = nxt[darts.rev[darts.along]]
    # a = b exactly when the dart after (v, a) is the reverse of (u, b): the
    # two faces span the same three vertices, as the 3-vertex triangle
    # sphere's do, and their inner triangles would coincide.
    twin = np.flatnonzero(darts.rev[nxt[fa]] == fb)
    if twin.size:
        along = darts.along[twin[0]]
        i, j = sorted(darts.face[[along, darts.rev[along]]].tolist())
        a, b = darts.tail[darts.corners([i, j])].tolist()
        raise NotTriangulated(
            f"hexagon subdivision requires faces on distinct vertex triples, but "
            f"faces {i} {tuple(a)} and {j} {tuple(b)} both span vertices "
            f"{', '.join(map(str, sorted(a)))}")
    ring = np.stack((ea[:, 0], m[nxt[fa]], m[fa], ea[:, 1], m[nxt[fb]], m[fb]), axis=1)
    offsets = np.concatenate((darts.offsets, darts.offsets[-1] + 6 * np.arange(1, len(ea) + 1)))
    rotation = np.concatenate((m, ring.ravel()))

    on_boundary = np.zeros(n, dtype=bool)
    on_boundary[list(rg.boundary)] = True
    new_boundary = list(rg.boundary) + mids[on_boundary[ea[:, 0]]].tolist()
    base = build_boundary_graph(n + len(ea), new_edges, new_boundary)
    return _rotation_graph(base, rotation, offsets)


@dataclass(frozen=True, eq=False)
class RefinedGraph:
    """Result of k subdivision rounds applied to a triangulation.

    ``parent_map[x]`` is the original vertex nearest to x in the refined
    graph (BFS distance, ties to the smallest original index); the cells of
    this map partition the refined vertex set.  ``inherited_boundary``
    collects the cells of the original boundary vertices and is installed
    as the boundary of ``graph``.  ``face_lattices[i]`` indexes the refined
    vertices inside face ``source.faces[i]`` by grid coordinates (a, b) with
    a, b >= 0 and a + b <= resolution; the face's traced corners sit at
    (0,0), (r,0), (0,r).  Every lattice lists its keys in the same order.

    ``cells`` is computed on first use and kept.  The first
    :func:`~steklov.immersion.random_immersion` call keeps the routing tables
    of the refinement on it (rhombus grids, representative and connector
    pools); a pickle leaves them out and they are rebuilt on demand.
    """

    graph: RotationGraph
    level: int
    parent_map: tuple[int, ...]
    inherited_boundary: tuple[int, ...]
    source: RotationGraph
    face_lattices: tuple[dict, ...]
    resolution: int

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """cells[v] = refined vertices whose nearest original vertex is v."""
        members: list[list[int]] = [[] for _ in range(self.source.n)]
        for x, p in enumerate(self.parent_map):
            members[p].append(x)
        return tuple(tuple(c) for c in members)

    def __getstate__(self) -> dict:
        """Pickle state: the fields and ``cells``; private caches are rebuilt."""
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def _nearest_original(g: BoundaryGraph, n_orig: int) -> list[int]:
    """Nearest-original assignment with smallest-index tie-breaking.

    Processing vertices in BFS order makes parent(x) = min over neighbours
    one step closer of their parents, which is exactly the smallest
    original index realising the BFS distance.
    """
    dist = [-1] * g.n
    parent = [-1] * g.n
    order = list(range(n_orig))
    for v in order:
        dist[v] = 0
        parent[v] = v
    q = deque(order)
    while q:
        x = q.popleft()
        for y in g.neighbors[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                q.append(y)
                order.append(y)
    for x in order:
        if dist[x] > 0:
            parent[x] = min(parent[y] for y in g.neighbors[x] if dist[y] == dist[x] - 1)
    return parent


def refine(rg: RotationGraph, boundary, k: int) -> RefinedGraph:
    """Apply k hexagon subdivisions and inherit ``boundary`` through cells.

    ``boundary`` may be None to keep the boundary already attached to
    ``rg``.  k = 0 returns the input graph wrapped with an identity parent
    map.
    """
    if boundary is None:
        boundary = rg.boundary
    k = _check_int(k, "refinement level", 0)
    if not is_fully_triangulated(rg):
        raise NotTriangulated("refinement requires a fully triangulated input")
    src = with_boundary(rg, boundary)
    # The lattices share their keys, so they are one array with a column of
    # vertex ids per key.  A step doubles the keys and puts the midpoint of
    # each lattice edge, n + its index in the sorted edges, between its ends.
    keys, ids = [(0, 0), (1, 0), (0, 1)], rg._darts.tail[rg._darts.corners()]
    cur = src
    for _ in range(k):
        n, ea = cur.n, cur.base.edge_array
        cur = hex_subdivide(cur)
        col = {key: c for c, key in enumerate(keys)}
        at, to, middle = zip(*[(c, col[a + da, b + db], (2 * a + da, 2 * b + db))
                             for c, (a, b) in enumerate(keys)
                             for da, db in ((1, 0), (0, 1), (1, -1)) if (a + da, b + db) in col])
        x, y = ids[:, list(at)], ids[:, list(to)]
        edge = np.searchsorted(ea[:, 0] * n + ea[:, 1], np.minimum(x, y) * n + np.maximum(x, y))
        ids = np.concatenate((ids, n + edge), axis=1)
        keys = [(2 * a, 2 * b) for a, b in keys] + list(middle)

    parent = _nearest_original(cur.base, src.n)
    bset = set(src.boundary)
    inherited = tuple(x for x in range(cur.n) if parent[x] in bset)
    return RefinedGraph(
        graph=with_boundary(cur, inherited),
        level=k,
        parent_map=tuple(parent),
        inherited_boundary=inherited,
        source=src,
        face_lattices=tuple(dict(zip(keys, row)) for row in ids.tolist()),
        resolution=1 << k,
    )


def boundary_growth(refined: RefinedGraph) -> float:
    """|inherited boundary| / (4^k * |original boundary|).

    The interesting content is that this ratio stays within fixed constants
    as k grows; k = 0 gives exactly 1.
    """
    return len(refined.inherited_boundary) / (
        4 ** refined.level * len(refined.source.boundary)
    )
