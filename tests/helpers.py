"""Shared oracles and generators for the test suite.

Everything here is written from scratch with explicit loops and dense
numpy so the oracles cannot share a code path (or a bug) with the library:
the Laplacian is assembled entry by entry, the boundary reduction uses
np.linalg.solve, spectra come from np.linalg.eigvalsh, and resistance from
np.linalg.pinv.  The exceptions are ``reference_mobius_normalize``, the
recentering loop as the library first wrote it, and
``reference_random_immersion``, the cell-by-cell immersion router, each kept
verbatim so that faster kernels are checked against them bit for bit.
"""

import json
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from steklov import (BoundaryGraph, BrokenPath, DuplicateEdge, EmptyBoundary, Immersion,
                     IndexOutOfRange, NormalizationFailure, RefinedGraph, RotationGraph,
                     SchemaError, SelfLoop, SphereConfiguration, ValidationError,
                     build_boundary_graph, build_rotation_graph)
from steklov.graphs import _seeded_rng


def dense_laplacian(n, edges):
    L = np.zeros((n, n))
    for u, v in edges:
        L[u, u] += 1.0
        L[v, v] += 1.0
        L[u, v] -= 1.0
        L[v, u] -= 1.0
    return L


def dtn_oracle(n, edges, boundary):
    """Boundary reduction of the Laplacian via an explicit dense solve."""
    L = dense_laplacian(n, edges)
    b = sorted(boundary)
    inner = [x for x in range(n) if x not in set(b)]
    Lbb = L[np.ix_(b, b)]
    if not inner:
        return Lbb
    Lbi = L[np.ix_(b, inner)]
    Lii = L[np.ix_(inner, inner)]
    return Lbb - Lbi @ np.linalg.solve(Lii, Lbi.T)


def spectrum_oracle(n, edges, boundary):
    S = dtn_oracle(n, edges, boundary)
    return np.linalg.eigvalsh((S + S.T) / 2.0)


def resistance_oracle(n, edges, u, v):
    pinv = np.linalg.pinv(dense_laplacian(n, edges))
    e = np.zeros(n)
    e[u], e[v] = 1.0, -1.0
    return float(e @ pinv @ e)


def tangency_error(cp, edges):
    """Max relative deviation of center distances from radius sums."""
    worst = 0.0
    for u, v in edges:
        d = float(np.linalg.norm(cp.centers[u] - cp.centers[v]))
        target = float(cp.radii[u] + cp.radii[v])
        worst = max(worst, abs(d - target) / target)
    return worst


def reference_boundary_graph(n, edges, boundary):
    """The construction rule written out edge by edge: returns
    (edges, boundary, neighbors) for a valid n-vertex input, or raises the
    error of the first offending element in input order."""
    def vertex(x, what):
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise IndexOutOfRange(f"{what}: expected an integer, got {x!r}")
        if x < 0:
            raise IndexOutOfRange(f"{what}: {x} is below the minimum 0")
        if x >= n:
            raise IndexOutOfRange(f"{what}: {x} is out of range (must be < {n})")
        return int(x)

    canon, seen = [], set()
    for e in edges:
        if len(e) != 2:
            raise SelfLoop(f"edge {e!r}: expected exactly two endpoints")
        u = vertex(e[0], f"edge {tuple(e)!r}")
        v = vertex(e[1], f"edge {tuple(e)!r}")
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed more than once")
        seen.add(key)
        canon.append(key)
    bset = set()
    for b in boundary:
        bset.add(vertex(b, "boundary"))
    if not bset:
        raise EmptyBoundary("boundary vertex set must be non-empty")
    adj = [[] for _ in range(n)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(sorted(canon)), tuple(sorted(bset)), tuple(tuple(sorted(a)) for a in adj)


def reference_document(text, cap=20_000):
    """The JSON graph format written out entry by entry: returns the fields
    (n, edges, boundary, rotation, meta) of a valid document, or raises the
    error of the first violation, in the order keys, n, edges, boundary,
    rotation, meta and in input order within each."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise SchemaError(f"top level: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in ("n", "edges", "boundary", "rotation", "meta"):
            raise SchemaError(f"unexpected key {key!r}")
    for key in ("n", "edges", "boundary"):
        if key not in obj:
            raise SchemaError(f"missing required key {key!r}")

    def integer(x, what, low, high=None):
        if isinstance(x, bool) or not isinstance(x, int):
            raise SchemaError(f"{what}: expected an integer, got {x!r}")
        if x < low:
            raise SchemaError(f"{what}: {x} is below the minimum {low}")
        if high is not None and x >= high:
            raise SchemaError(f"{what}: {x} is out of range (must be < {high})")
        return x

    n = integer(obj["n"], "n", 1)
    if n > cap:
        raise ValidationError(f"document has {n} vertices, over the cap of {cap} "
                              "(raise STEKLOV_MAX_N to allow this)")
    if not isinstance(obj["edges"], list):
        raise SchemaError("edges: expected a list")
    edges, first = [], {}
    for i, e in enumerate(obj["edges"]):
        if not isinstance(e, list) or len(e) != 2:
            raise SchemaError(f"edges[{i}]: expected a pair [u, v]")
        u = integer(e[0], f"edges[{i}][0]", 0, n)
        v = integer(e[1], f"edges[{i}][1]", 0, n)
        if u >= v:
            raise SchemaError(f"edges[{i}]: endpoints must satisfy u < v, got {e}")
        if (u, v) in first:
            raise SchemaError(f"edges[{i}]: duplicate of edges[{first[(u, v)]}]")
        first[(u, v)] = i
        edges.append((u, v))
    boundary = obj["boundary"]
    if not isinstance(boundary, list) or not boundary:
        raise SchemaError("boundary: expected a non-empty list")
    for i, b in enumerate(boundary):
        integer(b, f"boundary[{i}]", 0, n)
        if i > 0 and b <= boundary[i - 1]:
            raise SchemaError(f"boundary[{i}]: entries must be strictly increasing")
    rotation = obj.get("rotation")
    if rotation is not None:
        if not isinstance(rotation, list) or len(rotation) != n:
            raise SchemaError(f"rotation: expected a list of {n} neighbour rings")
        for v, ring in enumerate(rotation):
            if not isinstance(ring, list):
                raise SchemaError(f"rotation[{v}]: expected a list")
            for i, w in enumerate(ring):
                integer(w, f"rotation[{v}][{i}]", 0, n)
        rotation = tuple(tuple(ring) for ring in rotation)
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise SchemaError("meta: expected an object")
    return n, tuple(edges), tuple(boundary), rotation, meta


def reference_faces(rotation):
    """Face walks by per-vertex successor dicts and a visited set of darts:
    (faces, dart -> face index).  The dart after (u, v) is (v, w), w the
    successor of u in the ring of v; faces start at the first unvisited
    dart in vertex/rotation order."""
    succ = []
    for ring in rotation:
        succ.append({ring[i]: ring[(i + 1) % len(ring)] for i in range(len(ring))})
    visited, faces, dart_face = set(), [], {}
    for u, ring in enumerate(rotation):
        for v in ring:
            cur, walk = (u, v), []
            while cur not in visited:
                visited.add(cur)
                dart_face[cur] = len(faces)
                walk.append(cur[0])
                a, b = cur
                cur = (b, succ[b][a])
            if walk:
                faces.append(tuple(walk))
    return tuple(faces), dart_face


def stacked_triangulation(rng, n):
    """Seeded stacked (Apollonian-style) triangulation of the sphere.

    Starts from an oriented tetrahedron and inserts vertices 4..n-1 one at a
    time into a uniformly random face, splitting it into three.  The
    rotation comes straight from the oriented faces: a face (x, y, z) says
    that at y the successor of x is z.  Every vertex is boundary.
    """
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    for d in range(4, n):
        i = int(rng.integers(0, len(faces)))
        a, b, c = faces[i]
        faces[i] = (a, b, d)
        faces.extend([(b, c, d), (c, a, d)])
    succ = [dict() for _ in range(n)]
    for f in faces:
        for x, y, z in ((f[0], f[1], f[2]), (f[1], f[2], f[0]), (f[2], f[0], f[1])):
            succ[y][x] = z
    rotation = []
    for y in range(n):
        start = min(succ[y])
        ring = [start]
        while succ[y][ring[-1]] != start:
            ring.append(succ[y][ring[-1]])
        rotation.append(ring)
    edges = sorted({(min(x, y), max(x, y)) for y in range(n) for x in succ[y]})
    g = build_boundary_graph(n, edges, range(n))
    return build_rotation_graph(g, rotation)


def random_connected_graph(rng, n_max=50, n_min=2):
    """Random tree plus random extra edges; always connected."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    for v in range(1, n):
        p = int(rng.integers(0, v))
        edges.add((p, v))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, tuple(sorted(edges))


def random_boundary(rng, n, min_size=2):
    size = int(rng.integers(min_size, n + 1))
    return tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))


def _tree_path(adj, a, b):
    """Unique a-b path in a tree, by BFS parent backtracking."""
    from collections import deque

    parent = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def subdivision_immersion(rng, g: BoundaryGraph) -> Immersion:
    """Split each edge of g into a path of 1..3 host edges; xi = 1."""
    host_edges = []
    path_map = {}
    next_vertex = g.n
    ell = 1
    for u, v in g.edges:
        t = int(rng.integers(1, 4))
        chain = [u] + [next_vertex + i for i in range(t - 1)] + [v]
        next_vertex += t - 1
        for a, b in zip(chain, chain[1:]):
            host_edges.append((min(a, b), max(a, b)))
        path_map[(u, v)] = tuple(chain)
        ell = max(ell, t)
    host = build_boundary_graph(next_vertex, host_edges, g.boundary)
    return Immersion(source=g, host=host, vertex_map=tuple(range(g.n)),
                     path_map=path_map, xi=1, ell=ell)


def tree_immersion(rng, g: BoundaryGraph) -> Immersion:
    """Route every edge of g along a random spanning tree of g.

    The host is the tree (same vertex ids, same boundary); congestion on
    tree edges gives xi > 1 for most graphs.
    """
    order = rng.permutation(g.n).tolist()
    in_tree = {order[0]}
    tree_edges = []
    adj = {v: [] for v in range(g.n)}
    remaining = set(order[1:])
    # grow the tree by repeatedly attaching any remaining vertex with a
    # neighbour inside; falls back to graph order, stays within g's edges
    while remaining:
        for v in list(order):
            if v not in remaining:
                continue
            anchors = [u for u in g.neighbors[v] if u in in_tree]
            if anchors:
                u = anchors[int(rng.integers(0, len(anchors)))]
                tree_edges.append((min(u, v), max(u, v)))
                adj[u].append(v)
                adj[v].append(u)
                in_tree.add(v)
                remaining.discard(v)
    host = build_boundary_graph(g.n, tree_edges, g.boundary)
    path_map = {}
    usage = {}
    ell = 1
    for u, v in g.edges:
        path = _tree_path(adj, u, v)
        path_map[(u, v)] = path
        ell = max(ell, len(path) - 1)
        for a, b in zip(path, path[1:]):
            e = (min(a, b), max(a, b))
            usage[e] = usage.get(e, 0) + 1
    return Immersion(source=g, host=host, vertex_map=tuple(range(g.n)),
                     path_map=path_map, xi=max(usage.values()), ell=ell)


def _reference_ball_map(w, x):
    wn2 = float(w @ w)
    diff = x - w
    d2 = np.einsum("ij,ij->i", diff, diff)
    denom = 1.0 - 2.0 * (x @ w) + np.einsum("ij,ij->i", x, x) * wn2
    return ((1.0 - wn2) * diff - d2[:, None] * w) / denom[:, None]


def reference_mobius_normalize(sc, subset=None):
    """Damped Newton recentering with two ball maps per accepted step: every
    line-search trial maps the subset, then every point is mapped again.
    Same constants as the library: 50 steps, damping down to 2**-40 and a
    centroid tolerance of 1e-7."""
    sub_idx = list(sc.boundary if subset is None else subset)
    if not sub_idx:
        raise EmptyBoundary("cannot normalize over an empty subset")
    out = np.asarray(sc.points, dtype=float)
    sub = out[sub_idx]
    c = sub.mean(axis=0)
    err = float(np.linalg.norm(c))
    if err <= 1e-7:
        return sc
    m = len(sub)
    count = int(np.all(sub == sub[np.lexsort(sub.T)[m // 2]], axis=1).sum())
    if 2 * count > m:
        raise NormalizationFailure(
            f"{count} of {m} subset points coincide; no Möbius map can center them"
        )

    steps = 0
    with np.errstate(all="ignore"):
        while steps < 50:
            try:
                y = np.linalg.solve(np.eye(3) - sub.T @ sub / len(sub), 0.5 * c)
            except np.linalg.LinAlgError:
                break
            ynorm = float(np.linalg.norm(y))
            t = 1.0
            while t >= 2.0**-40:
                w = y * (np.tanh(t * ynorm) / ynorm)
                if float(np.linalg.norm(_reference_ball_map(w, sub).mean(axis=0))) < err:
                    break
                t = 0.5 * t if err > 1e-7 else 0.0
            else:
                break
            out = _reference_ball_map(w, out)
            out /= np.linalg.norm(out, axis=1)[:, None]
            sub = out[sub_idx]
            c = sub.mean(axis=0)
            err = float(np.linalg.norm(c))
            steps += 1

    if err > 1e-7:
        raise NormalizationFailure(
            f"Möbius Newton stalled with centroid norm {err:.3e} after {steps} steps"
        )
    return SphereConfiguration(points=out, boundary=sc.boundary)


# --- the immersion router as the library first wrote it ---------------------
# Charts are rebuilt per call and every lane is mapped cell by cell through
# dicts.  Only the dart offsets (from the ring lengths, not the graph's dart
# arrays) and the closing measurement of xi and ell (counted here, not by
# ``verify_immersion``) are written out afresh.


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
    face = src.dart_face.tolist()
    offsets = [0, *accumulate(map(len, src.rotation))]
    return _Charts(
        r=refined.resolution,
        source=src,
        lats=lats,
        inv=[{vid: key for key, vid in lat.items()} for lat in lats],
        ids=[sorted(lat.values()) for lat in lats],
        faces_at=[face[a:b] for a, b in zip(offsets, offsets[1:])],
    )


def _to_rhombus(vid, f, fp, p, q, ch: _Charts):
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
    a, b = list(half_a), list(half_b)
    while len(a) >= 2 and len(b) >= 2 and a[-1] == b[-1] and a[-2] == b[-2]:
        a.pop()
        b.pop()
    return a + b[-2::-1]


def _loop_erase(walk: list[int]) -> list[int]:
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


def reference_random_immersion(refined: RefinedGraph, seed: int) -> Immersion:
    """``random_immersion`` with per-call charts: the same seeded stream,
    draws and paths, so a faster router must return an equal witness."""
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

    usage: dict[tuple[int, int], int] = {}
    for p in path_map.values():
        for a, b in zip(p, p[1:]):
            e = (a, b) if a < b else (b, a)
            usage[e] = usage.get(e, 0) + 1
    return Immersion(
        source=src.base,
        host=host,
        vertex_map=vertex_map,
        path_map=path_map,
        xi=max(usage.values(), default=0),
        ell=max((len(p) - 1 for p in path_map.values()), default=0),
        seed=int(seed),
        host_vertex_ids=tuple(used),
    )
