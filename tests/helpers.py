"""Shared oracles and generators for the test suite.

Everything here is written from scratch with explicit loops and dense
numpy so the oracles cannot share a code path (or a bug) with the library:
the Laplacian is assembled entry by entry, the boundary reduction uses
np.linalg.solve, spectra come from np.linalg.eigvalsh, and resistance from
np.linalg.pinv.  The one exception is ``reference_mobius_normalize``, the
recentering loop as the library first wrote it, kept verbatim so that
faster kernels are checked against it bit for bit.
"""

import json

import numpy as np

from steklov import (BoundaryGraph, DuplicateEdge, EmptyBoundary, Immersion,
                     IndexOutOfRange, NormalizationFailure, SchemaError, SelfLoop,
                     SphereConfiguration, ValidationError, build_boundary_graph,
                     build_rotation_graph)


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
