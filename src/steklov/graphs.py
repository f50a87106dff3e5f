"""Core graph model: boundary graphs, rotation systems, faces and genus.

A :class:`BoundaryGraph` is a finite simple graph on vertices ``0..n-1``
together with a distinguished non-empty set of boundary vertices.  A
:class:`RotationGraph` additionally fixes a cyclic order of neighbours at
every vertex, which determines an embedding into an orientable surface via
face tracing.

Vertex ids are dense and 0-based throughout.  Both types are immutable;
construct them through :func:`build_boundary_graph` /
:func:`build_rotation_graph`, which normalise and validate.

What does not depend on the boundary (components, faces, the dart-to-face
index) is computed once per graph, cached on it and carried to the copies
:func:`with_boundary` makes; :func:`build_rotation_graph` traces the faces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .errors import (
    Disconnected,
    DuplicateEdge,
    EmptyBoundary,
    IndexOutOfRange,
    MalformedRotation,
    SelfLoop,
    ValidationError,
)


@dataclass(frozen=True)
class BoundaryGraph:
    """Simple graph with a distinguished boundary vertex set.

    Fields are canonical: ``edges`` holds ``(u, v)`` pairs with ``u < v``,
    sorted lexicographically; ``boundary`` is sorted and duplicate-free.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    boundary: tuple[int, ...]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def interior(self) -> tuple[int, ...]:
        b = set(self.boundary)
        return tuple(v for v in range(self.n) if v not in b)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (E, 2) int array (empty graphs give shape (0, 2))."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """(count, labels) of the connected components, labels read-only."""
        ea = self.edge_array
        adj = scipy.sparse.coo_matrix((np.ones(len(ea)), ea.T), shape=(self.n, self.n))
        count, labels = scipy.sparse.csgraph.connected_components(adj, directed=False)
        labels.flags.writeable = False
        return int(count), labels

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))


@dataclass(frozen=True)
class RotationGraph:
    """A boundary graph plus a rotation system (cyclic neighbour orders).

    ``rotation[v]`` lists the neighbours of ``v`` in cyclic order.  Together
    with the face-tracing convention below this fixes an embedding into an
    orientable surface of a definite genus.
    """

    base: BoundaryGraph
    rotation: tuple[tuple[int, ...], ...]

    @cached_property
    def successor(self) -> tuple[dict[int, int], ...]:
        """Per-vertex map: neighbour w -> next neighbour after w in the
        cyclic order."""
        out = []
        for ring in self.rotation:
            d = len(ring)
            out.append({ring[i]: ring[(i + 1) % d] for i in range(d)})
        return tuple(out)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face walks of the embedding, traced once (see :func:`trace_faces`)."""
        succ = self.successor
        visited: set[tuple[int, int]] = set()
        faces: list[tuple[int, ...]] = []
        for u in range(self.n):
            for v in self.rotation[u]:
                if (u, v) in visited:
                    continue
                walk = []
                cur = (u, v)
                while cur not in visited:
                    visited.add(cur)
                    walk.append(cur[0])
                    a, b = cur
                    cur = (b, succ[b][a])
                faces.append(tuple(walk))
        return tuple(faces)

    @cached_property
    def dart_face(self) -> Mapping[tuple[int, int], int]:
        """Read-only map from each dart (u, v) to the index of its face."""
        return MappingProxyType({(f[i], f[(i + 1) % len(f)]): fi
                                 for fi, f in enumerate(self.faces) for i in range(len(f))})

    def __getstate__(self):  # a read-only view does not pickle; it is rebuilt on demand
        return {k: v for k, v in self.__dict__.items() if k != "dart_face"}

    # Convenience pass-throughs.
    @property
    def n(self) -> int:
        return self.base.n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.base.edges

    @property
    def boundary(self) -> tuple[int, ...]:
        return self.base.boundary


def _check_int(x, what: str, low: int, high: int | None = None,
               error: type[ValidationError] = ValidationError) -> int:
    """The package's one integer rule: ``x`` as a Python int in
    ``[low, high)``, refusing ``bool`` and non-integers with ``error``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise error(f"{what}: expected an integer, got {x!r}")
    if x < low:
        raise error(f"{what}: {x} is below the minimum {low}")
    if high is not None and x >= high:
        raise error(f"{what}: {x} is out of range (must be < {high})")
    return int(x)


def _check_vertex(x, n: int, what: str) -> int:
    return _check_int(x, what, 0, n, IndexOutOfRange)


def _seeded_rng(seed) -> np.random.Generator:
    """The package's one seeded random stream, keyed by 0 <= seed < 2**64."""
    return np.random.Generator(np.random.Philox(_check_int(seed, "seed", 0, 2**64)))


def build_boundary_graph(
    n: int,
    edges: Iterable[Sequence[int]],
    boundary: Iterable[int],
) -> BoundaryGraph:
    """Validate and canonicalise a boundary graph.

    Raises SelfLoop / DuplicateEdge / IndexOutOfRange / EmptyBoundary on bad
    input.  Edges are stored with the smaller endpoint first, sorted;
    the boundary is sorted with duplicates removed.
    """
    n = _check_int(n, "vertex count", 1, error=IndexOutOfRange)

    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for e in edges:
        if len(e) != 2:
            raise SelfLoop(f"edge {e!r}: expected exactly two endpoints")
        u = _check_vertex(e[0], n, f"edge {tuple(e)!r}")
        v = _check_vertex(e[1], n, f"edge {tuple(e)!r}")
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed more than once")
        seen.add(key)
        canon.append(key)
    canon.sort()
    return BoundaryGraph(
        n=n, edges=tuple(canon), boundary=_canonical_boundary(boundary, n)
    )


def _canonical_boundary(boundary: Iterable[int], n: int) -> tuple[int, ...]:
    """Validated boundary of an n-vertex graph: sorted, duplicate-free,
    non-empty."""
    bset = {_check_vertex(b, n, "boundary") for b in boundary}
    if not bset:
        raise EmptyBoundary("boundary vertex set must be non-empty")
    return tuple(sorted(bset))


_CARRIED = ("neighbors", "edge_set", "edge_array", "degrees", "components",
            "successor", "faces", "dart_face")


def with_boundary(g, boundary: Iterable[int]):
    """Return a copy of a BoundaryGraph or RotationGraph with a new boundary.

    The edges of ``g`` are canonical already; only the boundary is validated.
    The caches named in ``_CARRIED`` carry over; ``interior`` is re-derived.
    """
    base = g.base if isinstance(g, RotationGraph) else g
    new_base = replace(base, boundary=_canonical_boundary(boundary, base.n))
    out = replace(g, base=new_base) if isinstance(g, RotationGraph) else new_base
    for old, new in ((base, new_base), (g, out)):
        new.__dict__.update((k, v) for k, v in old.__dict__.items() if k in _CARRIED)
    return out


def build_rotation_graph(g: BoundaryGraph, rotation: Iterable[Iterable[int]]) -> RotationGraph:
    """Attach a rotation system to ``g`` after validating it.

    ``rotation[v]`` must be a permutation of the neighbours of ``v``
    (MalformedRotation otherwise).
    """
    rot = tuple(tuple(int(w) for w in ring) for ring in rotation)
    if len(rot) != g.n:
        raise MalformedRotation(
            f"rotation has {len(rot)} rows, graph has {g.n} vertices"
        )
    for v in range(g.n):
        if tuple(sorted(rot[v])) != g.neighbors[v]:
            raise MalformedRotation(
                f"rotation at vertex {v} is not a permutation of its neighbours"
            )
    rg = RotationGraph(base=g, rotation=rot)
    # Orientable maps always have even Euler characteristic; cheap sanity net.
    chi = g.n - len(g.edges) + len(rg.faces)
    if chi % 2 != 0:
        raise MalformedRotation(f"face trace gave odd Euler characteristic {chi}")
    return rg


def laplacian(g: BoundaryGraph) -> scipy.sparse.csr_matrix:
    """Combinatorial Laplacian L = D - A as a scipy CSR matrix, at every size.

    Row sums are exactly zero (integer-valued arithmetic in float64).
    """
    ea = g.edge_array
    rows = np.concatenate([ea[:, 0], ea[:, 1], np.arange(g.n)])
    cols = np.concatenate([ea[:, 1], ea[:, 0], np.arange(g.n)])
    vals = np.concatenate([-np.ones(2 * len(ea)), g.degrees.astype(float)])
    # Row v holds its deg(v) neighbours and the diagonal; built in CSR order
    # directly, skipping the COO conversion that dominates on small graphs.
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(g.degrees + 1)])
    return scipy.sparse.csr_matrix((vals[order], cols[order], indptr), shape=(g.n, g.n))


def trace_faces(rg: RotationGraph) -> tuple[tuple[int, ...], ...]:
    """Face boundary walks of the embedding described by the rotation system.

    Convention: the directed edge following ``(u, v)`` within a face is
    ``(v, w)`` where ``w`` is the successor of ``u`` in the rotation at
    ``v``.  Every directed edge lies on exactly one face; each face is
    reported as the cyclic vertex sequence ``(w0, w1, ..., w_{L-1})`` whose
    directed edges are ``(w_i, w_{i+1 mod L})``.  Order of faces is
    deterministic (first unvisited dart in vertex/rotation order).
    Returns ``rg.faces``: one trace per graph, carried by :func:`with_boundary`.
    """
    return rg.faces


def is_connected(g: BoundaryGraph) -> bool:
    """True when g has one connected component (see ``g.components``)."""
    return g.components[0] <= 1


def genus(rg: RotationGraph) -> int:
    """Genus of the orientable surface determined by the rotation system.

    This is the genus of the *given* embedding, not the minimum over
    embeddings.  Computed from the Euler characteristic
    V - E + F = 2 - 2g; requires a connected graph.
    """
    if not is_connected(rg.base):
        raise Disconnected("genus is only defined for connected graphs")
    return (2 - rg.n + len(rg.edges) - len(rg.faces)) // 2


def is_fully_triangulated(rg: RotationGraph) -> bool:
    """True when every face of the embedding is a triangle."""
    return all(len(f) == 3 for f in rg.faces)
