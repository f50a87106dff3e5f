"""Edge-to-path immersions and the eigenvalue comparison they certify.

A host graph H contains G as a (xi, ell)-immersion when each edge of G is
replaced by a path in H of length at most ell between the images of its
endpoints, with every host edge serving at most xi of the paths.  This
gives lambda_k(G) <= xi*ell*lambda_k(H) for all k, which is both the
comparison theorem implemented here and the correctness oracle for the
randomized construction: each source edge is routed through the
hexagon-subdivided graph by sampling cell representatives, a connector
vertex near the edge, and L-shaped lanes inside the rhombus grid spanned
by two adjacent subdivided triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    BoundaryMismatch,
    BrokenPath,
    Disconnected,
    EndpointMismatch,
    IndexOutOfRange,
    ValidationError,
)
from .graphs import BoundaryGraph, RotationGraph, _seeded_rng, is_connected
from .refine import RefinedGraph, refine
from .spectrum import lambda_k

_COMPARISON_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Immersion:
    """A witnessed (xi, ell)-immersion of ``source`` into ``host``.

    ``vertex_map[v]`` is the host vertex representing source vertex v;
    ``path_map[(u, v)]`` (source edge, u < v) is the host path from
    ``vertex_map[u]`` to ``vertex_map[v]`` as a vertex tuple.  ``xi`` and
    ``ell`` are measured from the paths, never assumed.  ``seed`` and
    ``host_vertex_ids`` (host index -> vertex id in the ambient refined
    graph) are recorded by the random construction for replay.
    """

    source: BoundaryGraph
    host: BoundaryGraph
    vertex_map: tuple[int, ...]
    path_map: dict
    xi: int
    ell: int
    seed: int | None = None
    host_vertex_ids: tuple[int, ...] | None = None


def verify_immersion(imm: Immersion) -> tuple[int, int]:
    """Re-derive (xi, ell) from the stored paths, validating everything.

    Checks that the vertex map is injective and carries the source
    boundary exactly onto the host boundary, that every source edge has a
    path whose endpoints match the vertex map, and that each path is a
    walk in the host with no edge repeated within a single path.
    """
    src, host = imm.source, imm.host
    vm = imm.vertex_map
    if len(vm) != src.n:
        raise ValidationError(
            f"vertex_map covers {len(vm)} vertices, source has {src.n}"
        )
    for v, h in enumerate(vm):
        if not 0 <= h < host.n:
            raise IndexOutOfRange(f"vertex_map[{v}] = {h} outside host range")
    if len(set(vm)) != len(vm):
        raise ValidationError("vertex_map is not injective")
    if {vm[b] for b in src.boundary} != set(host.boundary):
        raise BoundaryMismatch(
            "vertex_map does not carry the source boundary onto the host boundary"
        )

    host_edges = host.edge_set
    usage: dict[tuple[int, int], int] = {}
    ell = 0
    for u, v in src.edges:
        path = imm.path_map.get((u, v))
        if path is None or len(path) < 2:
            raise BrokenPath(f"edge {(u, v)} has no usable path")
        if path[0] != vm[u] or path[-1] != vm[v]:
            raise EndpointMismatch(
                f"path for edge {(u, v)} runs {path[0]}..{path[-1]}, "
                f"expected {vm[u]}..{vm[v]}"
            )
        seen: set[tuple[int, int]] = set()
        for a, b in zip(path, path[1:]):
            e = (a, b) if a < b else (b, a)
            if a == b or e not in host_edges:
                raise BrokenPath(f"path for edge {(u, v)} takes non-edge step {(a, b)}")
            if e in seen:
                raise BrokenPath(f"path for edge {(u, v)} repeats host edge {e}")
            seen.add(e)
            usage[e] = usage.get(e, 0) + 1
        ell = max(ell, len(path) - 1)
    xi = max(usage.values(), default=0)
    return xi, ell


def comparison_bound(imm: Immersion, k: int) -> tuple[float, float]:
    """(lambda_k(source), xi*ell*lambda_k(host)) — left <= right always.

    The immersion is re-verified first so the returned bound is only ever
    computed from a checked witness.
    """
    xi, ell = verify_immersion(imm)
    lhs = lambda_k(imm.source, k)
    rhs = xi * ell * lambda_k(imm.host, k)
    return lhs, rhs


# --- randomized immersion into a refined graph ---------------------------


@dataclass(eq=False)
class _Charts:
    """Per-call lookup tables for routing inside a RefinedGraph."""

    r: int
    source: RotationGraph   # its face indices index the lattices
    lats: tuple             # face index -> {(a, b): refined vertex id}
    inv: list               # face index -> {refined vertex id: (a, b)}
    ids: list               # face index -> sorted refined vertex ids
    faces_at: list          # source vertex -> face indices in rotation order

    def face_of(self, u, v) -> int:
        """Index of the face of the dart (u, v)."""
        return self.faces_at[u][self.source.rotation[u].index(v)]


def _build_charts(refined: RefinedGraph) -> _Charts:
    lats = refined.face_lattices
    src = refined.source
    face, offsets = src.dart_face.tolist(), src._darts.offsets.tolist()
    return _Charts(
        r=refined.resolution,
        source=src,
        lats=lats,
        inv=[{vid: key for key, vid in lat.items()} for lat in lats],
        ids=[sorted(lat.values()) for lat in lats],
        faces_at=[face[a:b] for a, b in zip(offsets, offsets[1:])],
    )


def _to_rhombus(vid, f, fp, p, q, ch: _Charts):
    """Grid coordinates of a refined vertex in the rhombus spanned by faces
    f (carrying the dart (p, q)) and fp (carrying (q, p)).

    The chart puts the apex of f at (0,0), p at (r,0), q at (0,r), and the
    apex of fp at (r,r); the shared subdivided edge is the diagonal
    x + y = r, and every unit step in x or y is an edge of the refined
    graph.
    """
    r = ch.r
    key = ch.inv[f].get(vid)
    if key is not None:
        s = ch.source.faces[f]
        w = {s[0]: r - key[0] - key[1], s[1]: key[0], s[2]: key[1]}
        return w[p], w[q]
    key = ch.inv[fp][vid]
    s = ch.source.faces[fp]
    w = {s[0]: r - key[0] - key[1], s[1]: key[0], s[2]: key[1]}
    return r - w[q], r - w[p]


def _from_rhombus(x, y, f, fp, p, q, ch: _Charts):
    r = ch.r
    if x + y <= r:
        s = ch.source.faces[f]
        w = {p: x, q: y}
        for t in s:
            if t != p and t != q:
                w[t] = r - x - y
        return ch.lats[f][(w[s[1]], w[s[2]])]
    s = ch.source.faces[fp]
    w = {p: r - y, q: r - x}
    for t in s:
        if t != p and t != q:
            w[t] = x + y - r
    return ch.lats[fp][(w[s[1]], w[s[2]])]


def _route(a, b, f, fp, ch: _Charts, rng) -> list[int]:
    """L-shaped lane from a to b inside the grid of adjacent faces f, fp.

    One orientation coin per segment, always consumed: 0 routes along x
    then y, 1 the other way round (a no-op distinction when the endpoints
    already share a row or column).
    """
    p = q = None
    walk = ch.source.faces[f]
    m = len(walk)
    for i in range(m):
        c, d = walk[i], walk[(i + 1) % m]
        if ch.face_of(d, c) == fp:
            p, q = c, d
            break
    if p is None:
        raise BrokenPath(f"faces {f} and {fp} share no edge")
    coin = int(rng.integers(2))
    x0, y0 = _to_rhombus(a, f, fp, p, q, ch)
    x1, y1 = _to_rhombus(b, f, fp, p, q, ch)
    coords = [(x0, y0)]
    if coin == 0:
        legs = (((1, 0), x0, x1, y0, True), ((0, 1), y0, y1, x1, False))
    else:
        legs = (((0, 1), y0, y1, x0, False), ((1, 0), x0, x1, y1, True))
    for _, start, stop, fixed, x_moves in legs:
        step = 1 if stop >= start else -1
        for c in range(start + step, stop + step, step) if start != stop else ():
            coords.append((c, fixed) if x_moves else (fixed, c))
    return [_from_rhombus(xx, yy, f, fp, p, q, ch) for xx, yy in coords]


def _initial_path(v, rep, x, edge_faces, ch: _Charts, rng) -> list[int]:
    """Walk from the representative of v to the connector x.

    The triangle holding x is the first of the edge's two faces whose
    lattice contains it; the starting triangle is the one around v holding
    the representative that is cyclically closest to it (first in rotation
    order on ties).  The face sequence takes the shorter way around v,
    flipping a coin only when both directions tie; one waypoint is drawn
    per intermediate triangle.  When start and end triangles coincide, a
    partner triangle is drawn from the adjacent faces to form the grid.
    """
    faces_v = ch.faces_at[v]
    d = len(faces_v)
    tx = next((f for f in edge_faces if x in ch.inv[f]), None)
    if tx is None:
        raise BrokenPath(f"connector {x} lies in neither face of the edge at {v}")
    pos_x = faces_v.index(tx)

    best = None
    for pos in range(d):
        if rep not in ch.inv[faces_v[pos]]:
            continue
        fwd = (pos_x - pos) % d
        rev = (pos - pos_x) % d
        if best is None or min(fwd, rev) < best[0]:
            best = (min(fwd, rev), pos)
    if best is None:
        raise BrokenPath(f"representative {rep} lies in no triangle at vertex {v}")
    pos_pi = best[1]

    fwd = (pos_x - pos_pi) % d
    rev = (pos_pi - pos_x) % d
    if pos_pi == pos_x:
        seq = [pos_pi]
    elif fwd != rev:
        direction = 1 if fwd < rev else -1
        seq = [(pos_pi + direction * t) % d for t in range(min(fwd, rev) + 1)]
    else:
        direction = 1 if int(rng.integers(2)) == 0 else -1
        seq = [(pos_pi + direction * t) % d for t in range(fwd + 1)]
    fseq = [faces_v[pos] for pos in seq]

    pts = [rep]
    for f in fseq[1:-1]:
        pool = ch.ids[f]
        pts.append(pool[int(rng.integers(len(pool)))])
    pts.append(x)

    if len(fseq) == 1:
        f = fseq[0]
        walk = ch.source.faces[f]
        m = len(walk)
        adj = sorted(
            {ch.face_of(walk[(i + 1) % m], walk[i]) for i in range(m)} - {f}
        )
        partner = adj[int(rng.integers(len(adj)))]
        return _route(pts[0], pts[1], f, partner, ch, rng)

    out = [rep]
    for i in range(len(fseq) - 1):
        seg = _route(pts[i], pts[i + 1], fseq[i], fseq[i + 1], ch, rng)
        out.extend(seg[1:])
    return out


def _join_at_connector(half_a: list[int], half_b: list[int]) -> list[int]:
    """Concatenate two walks meeting at their common last vertex,
    trimming any shared final edges first."""
    a, b = list(half_a), list(half_b)
    while len(a) >= 2 and len(b) >= 2 and a[-1] == b[-1] and a[-2] == b[-2]:
        a.pop()
        b.pop()
    return a + b[-2::-1]


def _loop_erase(walk: list[int]) -> list[int]:
    """Standard loop erasure: cut the walk back to the first visit whenever
    a vertex repeats.  The result is vertex-simple (hence edge-simple) and
    keeps both endpoints."""
    out: list[int] = []
    pos: dict[int, int] = {}
    for w in walk:
        if w in pos:
            cut = pos[w]
            for dropped in out[cut + 1:]:
                del pos[dropped]
            del out[cut + 1:]
        else:
            pos[w] = len(out)
            out.append(w)
    return out


def random_immersion(refined: RefinedGraph, seed: int) -> Immersion:
    """Sampled immersion of the source graph into its refined graph.

    Deterministic given the seed: a single counter-based stream drives, in
    order, one representative draw per source vertex (ascending, uniform
    over the vertices of its cell that lie in the triangles at it), then
    per sorted source edge one connector draw followed by the two
    initial-path constructions (smaller endpoint first).  The two halves
    are joined at the connector and loop-erased, so every stored path is
    edge-simple.  xi and ell are measured from the final paths by
    :func:`verify_immersion`.
    """
    if refined.level < 1:
        raise ValidationError("random immersion requires refinement level >= 1")
    rng = _seeded_rng(seed)
    src = refined.source
    ch = _build_charts(refined)
    cells = refined.cells

    reps: list[int] = []
    for v in range(src.n):
        pool = set()
        for f in ch.faces_at[v]:
            pool.update(ch.ids[f])
        cand = sorted(pool & set(cells[v]))
        reps.append(cand[int(rng.integers(len(cand)))])

    fine_edges = refined.graph.base.edge_set
    raw_paths: dict[tuple[int, int], list[int]] = {}
    for u, v in src.edges:
        f1, f2 = ch.face_of(u, v), ch.face_of(v, u)
        edge_faces = (f1, f2) if f1 <= f2 else (f2, f1)
        pool = sorted(set(ch.ids[edge_faces[0]]) | set(ch.ids[edge_faces[1]]))
        x = pool[int(rng.integers(len(pool)))]
        half_u = _initial_path(u, reps[u], x, edge_faces, ch, rng)
        half_v = _initial_path(v, reps[v], x, edge_faces, ch, rng)
        path = _loop_erase(_join_at_connector(half_u, half_v))
        for a, b in zip(path, path[1:]):
            if ((a, b) if a < b else (b, a)) not in fine_edges:
                raise BrokenPath(
                    f"router produced non-edge step {(a, b)} for edge {(u, v)}"
                )
        raw_paths[(u, v)] = path

    used = sorted({w for p in raw_paths.values() for w in p} | set(reps))
    index = {g_id: i for i, g_id in enumerate(used)}
    host_edges = sorted(
        {
            (min(index[a], index[b]), max(index[a], index[b]))
            for p in raw_paths.values()
            for a, b in zip(p, p[1:])
        }
    )
    vertex_map = tuple(index[reps[v]] for v in range(src.n))
    host_boundary = sorted({vertex_map[b] for b in src.boundary})
    host = BoundaryGraph(
        n=len(used),
        edges=tuple(host_edges),
        boundary=tuple(host_boundary),
    )
    path_map = {e: tuple(index[w] for w in p) for e, p in raw_paths.items()}

    # xi and ell start unset: verify_immersion measures them from the paths.
    imm = Immersion(
        source=src.base,
        host=host,
        vertex_map=vertex_map,
        path_map=path_map,
        xi=0,
        ell=0,
        seed=int(seed),
        host_vertex_ids=tuple(used),
    )
    xi, ell = verify_immersion(imm)
    return replace(imm, xi=xi, ell=ell)


def chain_bound(rg: RotationGraph, boundary, k: int, seeds=(0, 1, 2, 3)) -> dict:
    """Both sides of |dOmega| * lambda2(G) <= C * |dOmega_k| * lambda2(G_k).

    Builds the k-fold refinement, routes immersions for every seed, keeps
    the best intermediate bound xi*ell*lambda2(host), and reports the
    empirical ratio between the two products.  k = 0 routes nothing: the
    identity witness (xi = ell = 1) is the chain, with ratio exactly 1.
    A disconnected triangulation has lambda2 = 0 and raises Disconnected.
    """
    if not is_connected(rg.base):
        raise Disconnected("chain_bound needs a connected triangulation")
    refined = refine(rg, boundary, k)
    k = refined.level
    seeds = tuple(seeds) if k else ()
    if k and not seeds:
        raise ValidationError("chain_bound needs at least one seed when k >= 1")
    nb = len(refined.source.boundary)
    lam_src = lambda_k(refined.source, 2)
    lam_ref = lambda_k(refined.graph, 2) if k else lam_src  # k = 0: the same graph
    lhs = nb * lam_src
    rhs = len(refined.inherited_boundary) * lam_ref
    witnesses = []  # (bound, seed, xi, ell, lambda2(host)) per routed seed
    for seed in seeds:
        imm = random_immersion(refined, seed)
        lam_host = lambda_k(imm.host, 2)
        witnesses.append((imm.xi * imm.ell * lam_host, imm.seed, imm.xi, imm.ell, lam_host))
    best = min(witnesses, key=lambda w: w[0], default=(lam_src, None, 1, 1, lam_src))
    return {
        "k": k,
        "seeds": tuple(w[1] for w in witnesses),
        "boundary_size": nb,
        "refined_boundary_size": len(refined.inherited_boundary),
        "lambda2_source": lam_src,
        "lambda2_refined": lam_ref,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs,
        "best_seed": best[1],
        "best_xi": best[2],
        "best_ell": best[3],
        "best_lambda2_host": best[4],
        "best_bound": best[0],
        "comparison_holds": all(lam_src <= w[0] + _COMPARISON_TOL for w in witnesses),
    }
