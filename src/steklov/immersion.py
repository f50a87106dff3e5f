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

Routing reads tables that depend only on the refinement: the rhombus grid
of every adjacent face pair, the representative pool of every source
vertex with the rotation positions holding each representative, and the
faces and connector pool of every source edge.  The first
:func:`random_immersion` call builds them from the face lattices with
array indexing and keeps them on the :class:`RefinedGraph`; later calls on
it only draw and look up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoundaryMismatch,
    BrokenPath,
    Disconnected,
    EndpointMismatch,
    IndexOutOfRange,
    ValidationError,
)
from .graphs import BoundaryGraph, RotationGraph, _rings, _seeded_rng, is_connected
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


@dataclass(frozen=True, eq=False)
class _Routing:
    """Lookup tables for routing inside one RefinedGraph (see :func:`_routing`).

    Faces are indexed as in ``source.faces``; a face's barycentric slots are
    the positions of its traced corners.  ``pairs[(f, fp)]`` describes the
    rhombus spanned by adjacent faces f and fp, where f carries the dart
    (p, q) and fp carries (q, p): ``(cells, ip, iq, jq, jp)`` with
    ``cells[x * (r + 1) + y]`` the refined vertex at grid point (x, y),
    ``ip``/``iq`` the slots of p and q in f and ``jq``/``jp`` those of q and
    p in fp.  The chart puts the apex of f at (0,0), p at (r,0), q at (0,r),
    and the apex of fp at (r,r); the shared subdivided edge is the diagonal
    x + y = r, and every unit step in x or y is an edge of the refined graph.
    """

    r: int
    pairs: dict       # (f, fp) -> (cells, ip, iq, jq, jp), f and fp adjacent
    bary: list        # face -> {refined vertex: its barycentric coordinates}
    ids: list         # face -> sorted refined vertices
    adjacent: list    # face -> sorted adjacent faces
    faces_at: list    # source vertex -> faces in rotation order
    spots: list       # source vertex -> {representative: rotation positions holding it}
    reps: list        # source vertex -> sorted representative pool
    edges: list       # source edge -> (lower face, higher face, sorted connector pool)


def _routing(refined: RefinedGraph) -> _Routing:
    """The refinement's routing tables, built on first use and kept on it
    (as ``circle_pack`` keeps a packing on its graph; pickles drop them)."""
    cache = refined.__dict__
    if "_routing" not in cache:
        cache["_routing"] = _build_routing(refined)
    return cache["_routing"]


def _build_routing(refined: RefinedGraph) -> _Routing:
    r, src, lats = refined.resolution, refined.source, refined.face_lattices
    s, nf = r + 1, len(lats)
    keys = list(lats[0]) if lats else []  # every lattice lists its keys in this order
    members = np.array([list(lat.values()) for lat in lats], dtype=np.int64).reshape(nf, len(keys))
    triples = [(r - a - b, a, b) for a, b in keys]
    bary = [dict(zip(row, triples)) for row in members.tolist()]
    column = np.zeros((s, s), dtype=np.int64)  # column[a, b]: the index of key (a, b)
    column[tuple(np.array(keys, dtype=np.int64).reshape(-1, 2).T)] = np.arange(len(keys))

    # Each face's walk from its lowest dart, as ``source.faces`` traces it: slot i
    # of face f holds the tail of walk[f, i].  Two faces share at most one edge
    # (a triangle whose two faces share all three does not subdivide).
    darts, face = src._darts, src._darts.face
    walk = darts.corners()
    slot = np.empty(len(face), dtype=np.int64)
    slot[walk] = np.arange(3)
    partner = face[darts.rev[walk]]  # partner[f, i]: the face across walk[f, i]
    f, i = np.divmod(np.arange(3 * nf), 3)
    fp, j = partner.ravel(), slot[darts.rev[walk]].ravel()
    # Grid point (x, y) lies in f with x in slot i, y in the next slot and
    # r - x - y in the third, or, past the diagonal, in fp with r - x in slot j
    # and r - y in the next.  at_slot[i][x, y] is then the lattice column in f.
    x, y = np.indices((s, s))
    w = np.stack((x, y, r - x - y)) % s  # the points past the diagonal are dropped
    at_slot = np.stack([column[w[(1 - k) % 3], w[(2 - k) % 3]] for k in range(3)])
    grid = np.where(x + y <= r, members[f[:, None, None], at_slot[i]],
                    members[fp[:, None, None], at_slot[j][:, ::-1, ::-1]])
    pairs = dict(zip(zip(f.tolist(), fp.tolist()), zip(
        grid.reshape(len(f), s * s).tolist(), i.tolist(), ((i + 1) % 3).tolist(),
        j.tolist(), ((j + 1) % 3).tolist())))

    # Representative pools: the refined vertices of v's cell in the faces at v,
    # each with the rotation positions (ascending) of the faces holding it.
    offsets, tail = darts.offsets, darts.tail
    at_dart = members[face]
    t, k = np.nonzero(np.asarray(refined.parent_map)[at_dart] == tail[:, None])
    order = np.lexsort((at_dart[t, k], tail[t]))  # stable: positions stay ascending
    t = t[order]
    owner, vid = tail[t], at_dart[t, k[order]]
    starts = np.flatnonzero(np.diff(owner * len(refined.parent_map) + vid, prepend=-1))
    pos, bounds = (t - offsets[owner]).tolist(), [*starts.tolist(), len(t)]
    held = [tuple(pos[p:q]) for p, q in zip(bounds, bounds[1:])]
    pool = vid[starts].tolist()
    cuts = np.searchsorted(owner[starts], np.arange(src.n + 1)).tolist()
    spots = [dict(zip(pool[p:q], held[p:q])) for p, q in zip(cuts, cuts[1:])]

    # Connector pools: the union of an edge's two face lattices.
    ends = face[darts.along], face[darts.rev[darts.along]]
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    ids = np.sort(members, axis=1)
    both = np.sort(np.concatenate((ids[lo], ids[hi]), axis=1), axis=1)
    keep = np.ones(both.shape, dtype=bool)
    keep[:, 1:] = both[:, 1:] != both[:, :-1]
    flat, cut = both[keep].tolist(), [0, *np.cumsum(keep.sum(axis=1)).tolist()]
    return _Routing(
        r=r,
        pairs=pairs,
        bary=bary,
        ids=ids.tolist(),
        adjacent=[sorted(set(row) - {g}) for g, row in enumerate(partner.tolist())],
        faces_at=_rings(face, offsets),
        spots=spots,
        reps=[list(sp) for sp in spots],
        edges=list(zip(lo.tolist(), hi.tolist(), (flat[p:q] for p, q in zip(cut, cut[1:])))),
    )


def _lane(cells: list, start: int, stop: int, stride: int) -> list[int]:
    """cells[start], cells[start +- stride], ..., cells[stop]."""
    if stop < start:
        stride = -stride
    end = stop + stride
    return cells[start:end if end >= 0 else None:stride]


def _route(a, b, f, fp, rt: _Routing, rng) -> list[int]:
    """L-shaped lane from a to b inside the grid of adjacent faces f, fp.

    One orientation coin per segment, always consumed: 0 routes along x
    then y, 1 the other way round (a no-op distinction when the endpoints
    already share a row or column).
    """
    pair = rt.pairs.get((f, fp))
    if pair is None:
        raise BrokenPath(f"faces {f} and {fp} share no edge")
    cells, ip, iq, jq, jp = pair
    coin = int(rng.integers(2))
    r = rt.r
    s = r + 1
    ends = []  # grid index x * s + y of each end, read in f's chart, else in fp's
    for vid in (a, b):
        w = rt.bary[f].get(vid)
        if w is not None:
            ends.append(w[ip] * s + w[iq])
        else:
            w = rt.bary[fp][vid]
            ends.append((r - w[jq]) * s + r - w[jp])
    start, stop = ends
    if coin == 0:  # x first: the corner is (x1, y0)
        corner = stop - stop % s + start % s
        return _lane(cells, start, corner, s) + _lane(cells, corner, stop, 1)[1:]
    corner = start - start % s + stop % s  # y first: the corner is (x0, y1)
    return _lane(cells, start, corner, 1) + _lane(cells, corner, stop, s)[1:]


def _initial_path(v, rep, x, edge_faces, rt: _Routing, rng) -> list[int]:
    """Walk from the representative of v to the connector x.

    The triangle holding x is the first of the edge's two faces whose
    lattice contains it; the starting triangle is the one around v holding
    the representative that is cyclically closest to it (first in rotation
    order on ties).  The face sequence takes the shorter way around v,
    flipping a coin only when both directions tie; one waypoint is drawn
    per intermediate triangle.  When start and end triangles coincide, a
    partner triangle is drawn from the adjacent faces to form the grid.
    """
    faces_v = rt.faces_at[v]
    d = len(faces_v)
    f1, f2 = edge_faces
    tx = f1 if x in rt.bary[f1] else f2 if x in rt.bary[f2] else None
    if tx is None:
        raise BrokenPath(f"connector {x} lies in neither face of the edge at {v}")
    pos_x = faces_v.index(tx)

    best = None
    for pos in rt.spots[v].get(rep, ()):
        dist = min((pos_x - pos) % d, (pos - pos_x) % d)
        if best is None or dist < best[0]:
            best = (dist, pos)
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
        pool = rt.ids[f]
        pts.append(pool[int(rng.integers(len(pool)))])
    pts.append(x)

    if len(fseq) == 1:
        f = fseq[0]
        adj = rt.adjacent[f]
        partner = adj[int(rng.integers(len(adj)))]
        return _route(pts[0], pts[1], f, partner, rt, rng)

    out = [rep]
    for i in range(len(fseq) - 1):
        seg = _route(pts[i], pts[i + 1], fseq[i], fseq[i + 1], rt, rng)
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

    The routing tables are built on the first call and kept on ``refined``
    (not pickled), so repeated calls on one refinement share them.
    """
    if refined.level < 1:
        raise ValidationError("random immersion requires refinement level >= 1")
    rng = _seeded_rng(seed)
    src = refined.source
    rt = _routing(refined)
    reps = [pool[int(rng.integers(len(pool)))] for pool in rt.reps]

    fine_edges = refined.graph.base.edge_set
    raw_paths: dict[tuple[int, int], list[int]] = {}
    steps: set[tuple[int, int]] = set()  # the refined edges the paths take
    for (u, v), (f1, f2, pool) in zip(src.edges, rt.edges):
        x = pool[int(rng.integers(len(pool)))]
        half_u = _initial_path(u, reps[u], x, (f1, f2), rt, rng)
        half_v = _initial_path(v, reps[v], x, (f1, f2), rt, rng)
        path = _loop_erase(_join_at_connector(half_u, half_v))
        hops = [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]
        if not fine_edges.issuperset(hops):
            a, b = next((path[t], path[t + 1]) for t, e in enumerate(hops) if e not in fine_edges)
            raise BrokenPath(f"router produced non-edge step {(a, b)} for edge {(u, v)}")
        steps.update(hops)
        raw_paths[(u, v)] = path

    used = sorted({w for p in raw_paths.values() for w in p} | set(reps))
    index = {g_id: i for i, g_id in enumerate(used)}
    host_edges = sorted((index[a], index[b]) for a, b in steps)  # index keeps a < b
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
