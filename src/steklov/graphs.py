"""Core graph model: boundary graphs, rotation systems, faces and genus.

A :class:`BoundaryGraph` is a finite simple graph on vertices ``0..n-1``
together with a distinguished non-empty set of boundary vertices.  A
:class:`RotationGraph` additionally fixes a cyclic order of neighbours at
every vertex, which determines an embedding into an orientable surface via
face tracing.

Vertex ids are dense and 0-based throughout.  Both types are immutable;
construct them through :func:`build_boundary_graph` /
:func:`build_rotation_graph`, which normalise and validate on NumPy index
arrays: the edges as one (E, 2) int64 array, checked and put in canonical
order with one sort, and the rotation as one flat array of its rings,
checked against the neighbour CSR with one sort.  They are the only edge
and boundary rules (documents are parsed through them); on bad input only
the first offending element, in input order, goes through the scalar rule
(:func:`_check_edge`, :func:`_check_int`) that words the error.

Darts are laid out in CSR order over ``rotation``: dart ``d`` is the d-th
entry of the concatenated rings, so the darts of ``v`` are ``(v, w)`` for
``w`` in ``rotation[v]``, in that order.  :class:`_Darts` holds its arrays
and the one face layout, derived by array operations as the rotation is
built: face f starts at its lowest dart ``first[f]`` and has ``size[f]``
darts.  Builds read these arrays; only the public ``faces`` walks them.

What does not depend on the boundary (components, the neighbour CSR, the
dart arrays, faces, the Laplacian and its diagonal index, the grounded
factor that resistance keeps, and the radii, centers, residual and outer
face of a circle packing) is computed once per graph, cached on it and
carried to the copies :func:`with_boundary` makes.  Functions that take "a
graph" accept either kind and read the :class:`BoundaryGraph` through
:func:`_base`.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

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


def _fields_only(self) -> dict:
    """Pickle state: the dataclass fields; caches are rebuilt on demand, read-only."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


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
        indptr, indices, _ = self._adjacency
        return _rings(indices, indptr)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def interior(self) -> tuple[int, ...]:
        b = set(self.boundary)
        return tuple(v for v in range(self.n) if v not in b)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as a read-only (E, 2) int64 array (shape (0, 2) when empty)."""
        return _frozen(np.array(self.edges, dtype=np.int64).reshape(-1, 2))[0]

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

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbour CSR ``(indptr, indices, edge)``: row v lists the
        neighbours of v in ascending order, and ``edge[p]`` is the index in
        ``edges`` of the edge behind entry p."""
        ea = self.edge_array
        # Darts (hi, lo) then (lo, hi).  Canonical edges are sorted by
        # (lo, hi), so a stable sort by tail leaves every row ascending.
        order = np.argsort(np.concatenate((ea[:, 1], ea[:, 0])), kind="stable")
        indices = np.concatenate((ea[:, 0], ea[:, 1]))[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        return _frozen(indptr, indices, order % max(len(ea), 1))

    @cached_property
    def _laplacian(self) -> scipy.sparse.csr_matrix:
        """The matrix :func:`laplacian` returns."""
        ea = self.edge_array
        rows = np.concatenate([ea[:, 0], ea[:, 1], np.arange(self.n)])
        cols = np.concatenate([ea[:, 1], ea[:, 0], np.arange(self.n)])
        vals = np.concatenate([-np.ones(2 * len(ea)), self.degrees.astype(float)])
        # Row v holds its deg(v) neighbours and the diagonal; built in CSR order
        # directly, skipping the COO conversion that dominates on small graphs.
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(self.degrees + 1)])
        L = scipy.sparse.csr_matrix((vals[order], cols[order], indptr), shape=(self.n, self.n))
        _frozen(L.data, L.indices, L.indptr)
        # Row v lists its lower neighbours, one per edge (u, v), before its diagonal.
        L._diag_index = _frozen(L.indptr[:-1] + np.bincount(ea[:, 1], minlength=self.n))[0]
        return L

    __getstate__ = _fields_only

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))


class _Darts(NamedTuple):
    """Per-dart arrays of a rotation graph (CSR order over ``rotation``) and its faces.

    Dart ``d`` in ``offsets[v] .. offsets[v + 1] - 1`` is ``(v, w)`` with
    ``w = rotation[v][d - offsets[v]]``.
    """

    offsets: np.ndarray  # (n + 1,) ring starts
    tail: np.ndarray     # the dart's tail v
    edge: np.ndarray     # index in ``edges`` of the dart's edge
    rev: np.ndarray      # the reverse dart (w, v)
    next: np.ndarray     # the dart after d on its face
    along: np.ndarray    # (E,) the dart (u, v) of each edge (u, v), u < v
    face: np.ndarray     # the face of the dart
    first: np.ndarray    # (F,) the lowest dart of each face, where its walk starts
    size: np.ndarray     # (F,) the number of darts of each face

    def corners(self, faces=slice(None)) -> np.ndarray:
        """(.., 3) the first three darts of each face walk: a triangle's darts."""
        d = self.first[faces]
        return np.stack((d, self.next[d], self.next[self.next[d]]), axis=-1)


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
    def _darts(self) -> _Darts:
        """Dart layout of ``rotation`` (built by :func:`build_rotation_graph`)."""
        return _dart_layout(self.base, *_flatten(self.rotation))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face walks of the embedding (see :func:`trace_faces`), walked on first use."""
        darts = self._darts
        nxt, tail = darts.next.tolist(), darts.tail.tolist()
        faces = []
        for d, k in zip(darts.first.tolist(), darts.size.tolist()):
            walk = []
            for _ in range(k):
                walk.append(tail[d])
                d = nxt[d]
            faces.append(tuple(walk))
        return tuple(faces)

    @property
    def dart_face(self) -> np.ndarray:
        """Read-only int array: the index in ``faces`` of the face of each dart
        (dart (u, v) is ``offsets[u] + rotation[u].index(v)``)."""
        return self._darts.face

    __getstate__ = _fields_only

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


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """The package's one finiteness rule: ``x``, or ValidationError at its first NaN or inf row."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=tuple(range(1, x.ndim))))
    if bad.size:
        raise ValidationError(f"{what}: row {bad[0]} is not finite: {x[bad[0]]}")
    return x


def _check_vertex(x, n: int, what: str) -> int:
    return _check_int(x, what, 0, n, IndexOutOfRange)


def _first_non_int(items: list) -> int:
    """Index of the first item whose type :func:`_check_int` refuses, else ``len(items)``."""
    bad = {t for t in set(map(type, items))
           if issubclass(t, bool) or not issubclass(t, (int, np.integer))}
    return list(map(bad.__contains__, map(type, items))).index(True) if bad else len(items)


def _vertex_array(items: list, n: int) -> tuple[np.ndarray, int]:
    """``items`` as an int64 array, and the index of the first item that
    :func:`_check_int` refuses as a vertex of ``[0, n)`` (``len(items)``
    when none does).  The array is only meaningful before that index."""
    stop = _first_non_int(items)
    values = _int64(items[:stop])
    out = np.flatnonzero((values < 0) | (values >= n))
    return values, int(out[0]) if out.size else stop


def _int64(items: list) -> np.ndarray:
    """Integers as an int64 array; one outside int64 becomes -1, which is
    outside every vertex range just as it was."""
    try:
        return np.array(items, dtype=np.int64)
    except OverflowError:
        return np.array([x if -2**63 <= x < 2**63 else -1 for x in items], dtype=np.int64)


def _objects(values: np.ndarray, pool: dict) -> list:
    """``values`` as Python ints, one object per distinct value across every
    call sharing ``pool`` (``tolist()`` alone makes one per entry)."""
    vals = values.tolist()
    return list(map(pool.setdefault, vals, vals))


def _rings(flat: np.ndarray, offsets: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Rings ``flat[offsets[v]:offsets[v + 1]]`` as tuples of Python ints."""
    objs = _objects(flat, {})
    bounds = offsets.tolist()
    return tuple(tuple(objs[a:b]) for a, b in zip(bounds, bounds[1:]))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark cached arrays read-only: with_boundary shares them between copies."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _seeded_rng(seed) -> np.random.Generator:
    """The package's one seeded random stream, keyed by 0 <= seed < 2**64."""
    return np.random.Generator(np.random.Philox(_check_int(seed, "seed", 0, 2**64)))


def _check_edge(e, n: int) -> tuple[int, int]:
    """The scalar rule for one edge; words the error for the first offender.
    The endpoints are read by iteration, as :func:`_edge_rows` reads them."""
    ends = ()
    with suppress(TypeError):  # a row without a length is no pair
        ends = tuple(e) if len(e) == 2 else ()
    if len(ends) != 2:
        raise SelfLoop(f"edge {e!r}: expected exactly two endpoints")
    u, v = (_check_vertex(x, n, f"edge {ends!r}") for x in ends)
    if u == v:
        raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
    return u, v


def _edge_rows(edges, n: int) -> tuple[Sequence, np.ndarray]:
    """The edges as given, and as an (R, 2) int64 array of the rows before
    the first one with the wrong length, a non-integer or a vertex outside
    ``[0, n)`` (all rows when there is none)."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" \
            and edges.ndim == 2 and edges.shape[1] == 2:
        pairs = edges.astype(np.int64)
        out = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
        return edges, pairs[: out[0] if out.size else len(pairs)]
    rows = edges if isinstance(edges, (list, tuple)) else list(edges)
    lens: list[int] = []
    with suppress(TypeError):  # rows[len(lens)] has no length
        lens.extend(map(len, rows))
    short = np.flatnonzero(np.array(lens) != 2)
    stop = int(short[0]) if short.size else len(lens)
    ends, bad = _vertex_array(list(chain.from_iterable(rows[:stop])), n)
    stop = min(stop, bad // 2)
    return rows, ends[: 2 * stop].reshape(-1, 2)


def build_boundary_graph(
    n: int,
    edges: Iterable[Sequence[int]] | np.ndarray,
    boundary: Iterable[int],
) -> BoundaryGraph:
    """Validate and canonicalise a boundary graph.

    ``edges`` is an iterable of endpoint pairs or an (E, 2) integer array.
    Raises SelfLoop / DuplicateEdge / IndexOutOfRange / EmptyBoundary on bad
    input, for the first offending edge in input order.  Edges are stored
    with the smaller endpoint first, sorted; the boundary is sorted with
    duplicates removed.
    """
    n = _check_int(n, "vertex count", 1, error=IndexOutOfRange)
    rows, pairs = _edge_rows(edges, n)
    canon = np.sort(pairs, axis=1)
    order = np.lexsort((canon[:, 1], canon[:, 0]))  # stable: a repeat follows its original
    ranked = canon[order]
    repeats = order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
    loops = np.flatnonzero(canon[:, 0] == canon[:, 1])
    first = int(np.concatenate(([len(pairs)], repeats, loops)).min())
    if first < len(rows):
        u, v = _check_edge(rows[first], n)  # raises unless the row is a repeat
        raise DuplicateEdge(f"edge {(min(u, v), max(u, v))} listed more than once")
    pool: dict[int, int] = {}
    ends = _objects(ranked.ravel(), pool)
    g = BoundaryGraph(n=n, edges=tuple(zip(ends[0::2], ends[1::2])),
                      boundary=tuple(_objects(_canonical_boundary(boundary, n), pool)))
    g.__dict__["edge_array"] = _frozen(ranked)[0]
    return g


def _canonical_boundary(boundary: Iterable[int], n: int) -> np.ndarray:
    """Validated boundary of an n-vertex graph: sorted, duplicate-free,
    non-empty."""
    items = list(boundary)
    values, stop = _vertex_array(items, n)
    if stop < len(items):
        _check_vertex(items[stop], n, "boundary")
    if not items:
        raise EmptyBoundary("boundary vertex set must be non-empty")
    return np.unique(values)


# ``_grounded`` is the factor of the grounded Laplacian that resistance keeps,
# ``_packing`` the boundary-free part of :func:`packing.circle_pack`'s result.
_CARRIED = ("neighbors", "edge_set", "edge_array", "degrees", "components",
            "_adjacency", "_laplacian", "_grounded", "_darts", "faces", "_packing")


def _base(g) -> BoundaryGraph:
    """The BoundaryGraph of a BoundaryGraph or RotationGraph."""
    return g.base if isinstance(g, RotationGraph) else g


def with_boundary(g, boundary: Iterable[int]):
    """Return a copy of a BoundaryGraph or RotationGraph with a new boundary.

    The edges of ``g`` are canonical already; only the boundary is validated.
    The caches named in ``_CARRIED`` carry over; ``interior`` is re-derived.
    """
    base = _base(g)
    new_base = replace(base, boundary=tuple(_canonical_boundary(boundary, base.n).tolist()))
    out = replace(g, base=new_base) if isinstance(g, RotationGraph) else new_base
    for old, new in ((base, new_base), (g, out)):
        new.__dict__.update((k, v) for k, v in old.__dict__.items() if k in _CARRIED)
    return out


def _flatten(rings: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The rings as one int64 array and their offsets; refuses non-integers."""
    offsets = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rings), dtype=np.int64, count=len(rings)), out=offsets[1:])
    items = list(chain.from_iterable(rings))
    if (bad := _first_non_int(items)) < len(items):
        at = f"rotation at vertex {np.searchsorted(offsets[1:], bad, side='right')}"
        _check_int(items[bad], at, 0, error=MalformedRotation)
    return _int64(items), offsets


def _dart_layout(g: BoundaryGraph, flat: np.ndarray, offsets: np.ndarray) -> _Darts:
    """Check that every ring of a rotation (``flat[offsets[v]:offsets[v + 1]]``)
    permutes the neighbours of its vertex, and lay out its darts."""
    if len(offsets) - 1 != g.n:
        raise MalformedRotation(f"rotation has {len(offsets) - 1} rows, graph has {g.n} vertices")
    indptr, indices, edge_of = g._adjacency
    lens = np.diff(offsets)
    tail = np.repeat(np.arange(g.n), lens)
    order = np.lexsort((flat, tail))  # every ring ascending, as in the CSR
    short = np.flatnonzero(lens != np.diff(indptr))
    stop = int(short[0]) if short.size else g.n
    aligned = int(offsets[stop])  # the rings before ``stop`` have the CSR's lengths
    wrong = np.flatnonzero(flat[order[:aligned]] != indices[:aligned])
    if wrong.size:
        stop = min(stop, int(tail[order[wrong[0]]]))
    if stop < g.n:
        raise MalformedRotation(
            f"rotation at vertex {stop} is not a permutation of its neighbours")
    # CSR entry p is dart order[p].
    edge = np.empty_like(flat)
    edge[order] = edge_of
    up = tail < flat
    along = np.empty(len(g.edges), dtype=np.int64)
    along[edge[up]] = np.flatnonzero(up)
    against = np.empty_like(along)
    against[edge[~up]] = np.flatnonzero(~up)
    rev = np.empty_like(flat)
    rev[along] = against
    rev[against] = along
    # The dart after (u, v) on its face is (v, w), w following u in rotation[v].
    turn = np.arange(1, len(flat) + 1)
    full = lens > 0
    turn[offsets[1:][full] - 1] = offsets[:-1][full]
    nxt = turn[rev]
    # Window doubling: low[d] is the lowest of the 2**k darts from d on its
    # face.  While a face is longer than the window, doubling lowers the
    # window that ends just before its lowest dart, so the rounds (about log2
    # of the longest face) stop once every window covers its face.
    low, jump = np.arange(len(flat)), nxt
    while not np.array_equal(low, step := np.minimum(low, low[jump])):
        low, jump = step, jump[jump]
    lowest = low == np.arange(len(flat))
    face = (np.cumsum(lowest) - 1)[low]
    first = np.flatnonzero(lowest)
    return _Darts(*_frozen(offsets, tail, edge, rev, nxt, along, face, first,
                           np.bincount(face, minlength=len(first))))


def build_rotation_graph(g: BoundaryGraph,
                         rotation: Iterable[Iterable[int]] | np.ndarray) -> RotationGraph:
    """Attach a rotation system to ``g`` after validating it.

    ``rotation[v]`` must be a permutation of the neighbours of ``v``, given
    as integers (MalformedRotation otherwise).  An (n, d) integer array
    gives every vertex a ring of d neighbours.
    """
    if isinstance(rotation, np.ndarray) and rotation.dtype.kind in "iu" and rotation.ndim == 2:
        n, d = rotation.shape
        return _rotation_graph(g, rotation.astype(np.int64).ravel(), np.arange(n + 1) * d)
    return _rotation_graph(g, *_flatten(list(map(tuple, rotation))))


def _rotation_graph(g: BoundaryGraph, flat: np.ndarray, offsets: np.ndarray) -> RotationGraph:
    """:func:`build_rotation_graph` on a rotation given as one int64 array of
    its rings and their (n + 1) offsets, as subdivision builds it."""
    darts = _dart_layout(g, flat, offsets)
    rg = RotationGraph(base=g, rotation=_rings(flat, offsets))
    rg.__dict__["_darts"] = darts
    # Orientable maps always have even Euler characteristic; cheap sanity net.
    chi = g.n - len(g.edges) + len(darts.first)
    if chi % 2 != 0:
        raise MalformedRotation(f"face trace gave odd Euler characteristic {chi}")
    return rg


def laplacian(g) -> scipy.sparse.csr_matrix:
    """Combinatorial Laplacian L = D - A of a BoundaryGraph or RotationGraph
    as a scipy CSR matrix, at every size.

    Row sums are exactly zero (integer-valued arithmetic in float64).  Every
    row stores its diagonal, also the 0 of an isolated vertex; the matrix
    keeps the position of each in ``L._diag_index``.  The matrix is built
    once per graph, cached on it and shared with its :func:`with_boundary`
    copies, so its arrays are read-only: copy it before changing it.
    """
    return _base(g)._laplacian


def trace_faces(rg: RotationGraph) -> tuple[tuple[int, ...], ...]:
    """Face boundary walks of the embedding described by the rotation system.

    Convention: the directed edge following ``(u, v)`` within a face is
    ``(v, w)`` where ``w`` is the successor of ``u`` in the rotation at
    ``v``.  Every directed edge lies on exactly one face; each face is
    reported as the cyclic vertex sequence ``(w0, w1, ..., w_{L-1})`` whose
    directed edges are ``(w_i, w_{i+1 mod L})``.  Faces are numbered by
    their lowest dart in vertex/rotation order, where each walk starts.
    Returns ``rg.faces``: one walk per graph, carried by :func:`with_boundary`.
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
    return (2 - rg.n + len(rg.edges) - len(rg._darts.first)) // 2


def is_fully_triangulated(rg: RotationGraph) -> bool:
    """True when every face of the embedding is a triangle."""
    return bool((rg._darts.size == 3).all())
