"""Graph construction, validation, face tracing, and genus."""

import hashlib
import pickle
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    Disconnected,
    DuplicateEdge,
    EmptyBoundary,
    IndexOutOfRange,
    MalformedRotation,
    RotationGraph,
    SelfLoop,
    SingularInterior,
    ValidationError,
    build_boundary_graph,
    build_rotation_graph,
    certify_planar_bound,
    chain_bound,
    circle_pack,
    gen_genus,
    gen_sphere,
    gen_torus,
    genus,
    is_connected,
    is_fully_triangulated,
    lambda_k,
    laplacian,
    octahedron,
    refine,
    sweep_main_bound,
    trace_faces,
    with_boundary,
)
from steklov import graphs

from helpers import (dense_laplacian, random_connected_graph, reference_boundary_graph,
                     reference_faces, spectrum_oracle)


def k4():
    return build_boundary_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)],
                                 [0, 1, 2, 3])


def k4_rotation():
    # neighbour rings of the tetrahedron oriented consistently
    return build_rotation_graph(k4(), [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def by_dart_id(rg, dart_face):
    """A {(u, v): face} map as a list over the dart ids of ``rg``: the dart
    (u, v) is offsets[u] + rotation[u].index(v)."""
    offsets = rg._darts.offsets.tolist()
    out = [None] * offsets[-1]
    for (u, v), f in dart_face.items():
        out[offsets[u] + rg.rotation[u].index(v)] = f
    return out


def test_edges_are_canonicalised():
    g = build_boundary_graph(3, [(2, 0), (1, 0)], [2, 0])
    assert g.edges == ((0, 1), (0, 2))
    assert g.boundary == (0, 2)
    assert g.neighbors == ((1, 2), (0,), (0,))


def test_validation_errors():
    with pytest.raises(SelfLoop):
        build_boundary_graph(3, [(1, 1)], [0])
    with pytest.raises(DuplicateEdge):
        build_boundary_graph(3, [(0, 1), (1, 0)], [0])
    with pytest.raises(IndexOutOfRange):
        build_boundary_graph(3, [(0, 3)], [0])
    with pytest.raises(IndexOutOfRange):
        build_boundary_graph(3, [(0, 1)], [-1])
    with pytest.raises(EmptyBoundary):
        build_boundary_graph(3, [(0, 1)], [])
    with pytest.raises(IndexOutOfRange):
        build_boundary_graph(0, [], [0])
    with pytest.raises(IndexOutOfRange):
        build_boundary_graph(True, [], [0])
    # bool is an int subclass; True/False must not pass as vertices 1/0
    with pytest.raises(IndexOutOfRange):
        build_boundary_graph(3, [(True, 2)], [0])
    with pytest.raises(IndexOutOfRange):
        build_boundary_graph(3, [(1, 2)], [False])
    # the first offender in input order is reported, whatever its kind
    with pytest.raises(DuplicateEdge, match=r"edge \(0, 1\) listed more than once"):
        build_boundary_graph(3, [(0, 1), (1, 0), (2, 2)], [0])
    with pytest.raises(IndexOutOfRange, match=f"{2**70} is out of range"):
        build_boundary_graph(3, [(0, 1), (0, 2**70)], [0])
    with pytest.raises(IndexOutOfRange, match=r"np.int64\(3\)\): 3 is out of range"):
        build_boundary_graph(3, np.array([[0, 1], [0, 3]]), [0])


def test_edge_rows_that_are_not_pairs_are_refused():
    # a row without a length is refused as a wrong-width one is
    with pytest.raises(SelfLoop, match="edge 7: expected exactly two endpoints"):
        build_boundary_graph(3, [[0, 1], 7], [0])
    with pytest.raises(SelfLoop, match="edge None: expected exactly two endpoints"):
        build_boundary_graph(3, [None], [0])
    # endpoints are read by iteration: a two-key mapping yields its keys
    with pytest.raises(IndexOutOfRange, match="expected an integer, got 'a'"):
        build_boundary_graph(3, [[0, 1], {"a": 0, "b": 1}], [0])


def test_with_boundary_replaces_only_boundary():
    g = k4()
    g2 = with_boundary(g, [2, 3, 2])
    assert g2.edges == g.edges
    assert g2.boundary == (2, 3)
    assert g2.interior == (0, 1)
    with pytest.raises(EmptyBoundary):
        with_boundary(g, [])
    with pytest.raises(IndexOutOfRange):
        with_boundary(g, [0, 4])  # vertex n
    with pytest.raises(IndexOutOfRange):
        with_boundary(g, [1.0])
    with pytest.raises(IndexOutOfRange):
        with_boundary(g, [True])
    rg = k4_rotation()
    rg2 = with_boundary(rg, [1])
    assert rg2.rotation == rg.rotation
    assert rg2.boundary == (1,)
    assert rg2.edges == rg.edges


def test_laplacian_matches_hand_built():
    g = build_boundary_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)], [0])
    L = laplacian(g)
    assert scipy.sparse.issparse(L) and L.format == "csr"
    np.testing.assert_array_equal(L.toarray(), dense_laplacian(5, g.edges))


def test_laplacian_is_built_once_read_only_and_shared():
    g = build_boundary_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)], [0])
    L = laplacian(g)
    assert laplacian(g) is L
    assert laplacian(with_boundary(g, [2, 4])) is L
    rg = k4_rotation()
    M = laplacian(rg.base)  # copies made after the first build share it
    assert laplacian(with_boundary(rg, [1]).base) is M
    for array in (L.data, L.indices, L.indptr, L._diag_index):
        with pytest.raises(ValueError):
            array[0] = 1
    copy = L.copy()
    copy.data[0] = 7.0
    np.testing.assert_array_equal(L.toarray(), dense_laplacian(5, g.edges))


def test_laplacian_large_path():
    n = 5000
    edges = [(i, i + 1) for i in range(n - 1)]
    g = build_boundary_graph(n, edges, [0, n - 1])
    L = laplacian(g)
    assert scipy.sparse.issparse(L) and L.format == "csr"
    assert L.shape == (n, n)
    assert L.sum() == 0
    assert np.all(L.sum(axis=1) == 0)


def test_rotation_must_permute_neighbours():
    with pytest.raises(MalformedRotation):
        build_rotation_graph(k4(), [[1, 2], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    with pytest.raises(MalformedRotation):
        build_rotation_graph(k4(), [[1, 2, 2], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    with pytest.raises(MalformedRotation, match="vertex 2 "):
        build_rotation_graph(k4(), [[1, 2, 3], [0, 3, 2], [0, 1, 2**70], [0, 2]])
    with pytest.raises(MalformedRotation, match="vertex 3 "):
        build_rotation_graph(k4(), np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 2]]))
    with pytest.raises(MalformedRotation, match="3 rows"):
        build_rotation_graph(k4(), np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3]]))
    # an (n, d) array is read as n rings of d neighbours
    rows = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]
    rg = build_rotation_graph(k4(), np.array(rows, dtype=np.int32))
    assert rg.rotation == k4_rotation().rotation and rg.faces == k4_rotation().faces


def test_rotation_entries_must_be_integers():
    g = build_boundary_graph(2, [(0, 1)], [0])
    for rotation, message in (([[1.7], [0.2]], "vertex 0: expected an integer, got 1.7"),
                              ([[True], [False]], "vertex 0: expected an integer, got True"),
                              ([["1"], ["0"]], "vertex 0: expected an integer, got '1'"),
                              ([[1], [0.0]], "vertex 1: expected an integer, got 0.0")):
        with pytest.raises(MalformedRotation, match=message):
            build_rotation_graph(g, rotation)
    # NumPy integers are integers, stored as Python ints
    rg = build_rotation_graph(g, [[np.int64(1)], (np.int32(0),)])
    assert rg.rotation == ((1,), (0,)) and type(rg.rotation[1][0]) is int


def test_k4_faces_and_genus():
    rg = k4_rotation()
    faces = trace_faces(rg)
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)
    # each dart appears in exactly one face
    darts = [(f[i], f[(i + 1) % 3]) for f in faces for i in range(3)]
    assert len(darts) == len(set(darts)) == 12
    assert genus(rg) == 0
    assert is_fully_triangulated(rg)


def test_k5_torus_rotation():
    # the shifted rotation i -> (i+1, i+2, i-1, i-2) embeds K5 in the torus
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    g = build_boundary_graph(5, edges, [0])
    rot = [[(i + 1) % 5, (i + 2) % 5, (i - 1) % 5, (i - 2) % 5] for i in range(5)]
    rg = build_rotation_graph(g, rot)
    assert len(trace_faces(rg)) == 5
    assert genus(rg) == 1


def test_cycle_rotation_two_faces():
    g = build_boundary_graph(6, [(i, (i + 1) % 6) for i in range(6)], [0])
    rot = [[(i + 1) % 6, (i - 1) % 6] for i in range(6)]
    rg = build_rotation_graph(g, rot)
    faces = trace_faces(rg)
    assert sorted(len(f) for f in faces) == [6, 6]
    assert genus(rg) == 0
    assert not is_fully_triangulated(rg)


def test_connectivity():
    assert is_connected(build_boundary_graph(3, [(0, 1), (1, 2)], [0]))
    assert not is_connected(build_boundary_graph(3, [(0, 1)], [0]))
    assert not is_connected(build_boundary_graph(2, [], [0]))


def test_genus_requires_connected():
    g = build_boundary_graph(4, [(0, 1), (2, 3)], [0])
    rg = build_rotation_graph(g, [[1], [0], [3], [2]])
    with pytest.raises(Disconnected):
        genus(rg)


def test_single_edge_embeds_in_sphere():
    g = build_boundary_graph(2, [(0, 1)], [0, 1])
    rg = build_rotation_graph(g, [[1], [0]])
    assert genus(rg) == 0
    assert len(trace_faces(rg)) == 1


def _half_sphere_certificate():
    rg = gen_sphere(2)
    return certify_planar_bound(rg, range(rg.n // 2))


@pytest.mark.parametrize("run,walks", [
    (lambda: gen_sphere(3), False),
    (lambda: sweep_main_bound(3, 10), False),
    (lambda: chain_bound(octahedron(), None, 2), True),
    (_half_sphere_certificate, True),
], ids=["gen_sphere", "sweep", "chain_bound", "certify_planar"])
def test_faces_are_walked_once_per_build(run, walks, monkeypatch):
    # Builds read the face layout of the dart arrays and walk no faces; a
    # graph walks its faces at most once, with_boundary copies included.
    # Builds are counted at the builder's one entry point, which subdivision
    # calls directly with its flat rings.
    walked, calls = [], {"build": 0}
    walk = RotationGraph.__dict__["faces"]
    original_walk = walk.func
    entry = graphs._rotation_graph

    def counted_walk(rg):
        walked.append(rg._darts)  # shared by with_boundary copies
        return original_walk(rg)

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return entry(*args, **kwargs)

    monkeypatch.setattr(walk, "func", counted_walk)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "steklov" and \
                getattr(module, "_rotation_graph", None) is entry:
            monkeypatch.setattr(module, "_rotation_graph", counted_build)
    run()
    assert calls["build"] > 0
    assert walks or not walked
    assert len(set(map(id, walked))) == len(walked)


def test_trace_faces_reads_the_build_trace():
    rg = k4_rotation()
    assert trace_faces(rg) is rg.faces
    assert rg.dart_face.tolist() == by_dart_id(rg, reference_faces(rg.rotation)[1])
    with pytest.raises(ValueError):
        rg.dart_face[0] = 0
    # the index is dropped from the pickle and rebuilt on demand
    copy = pickle.loads(pickle.dumps(rg))
    assert copy == rg and copy.faces == rg.faces
    assert copy.dart_face.tolist() == rg.dart_face.tolist()


@pytest.mark.parametrize("warm", [False, True], ids=["built", "every_cache"])
def test_pickles_carry_the_dataclass_fields_only(warm):
    rg = octahedron()
    if warm:  # fill the caches that are built on demand
        rg.dart_face, rg.base.neighbors, rg.base.components, laplacian(rg.base)
        circle_pack(rg)
    copy = pickle.loads(pickle.dumps(rg))
    assert set(copy.__dict__) == {"base", "rotation"}
    assert set(copy.base.__dict__) == {"n", "edges", "boundary"}
    assert copy == rg
    for g in (copy, with_boundary(copy, [0, 1])):
        cp = circle_pack(g)
        for a in (g.base.edge_array, *g.base._adjacency, *g._darts, g.dart_face,
                  laplacian(g.base).data, cp.radii, cp.centers):
            with pytest.raises(ValueError):
                a[0] = a[0]


def test_with_boundary_carries_boundary_free_caches():
    g = gen_sphere(1)
    assert g.base.interior == ()
    faces, darts = g.faces, g.dart_face
    assert darts.tolist() == by_dart_id(g, reference_faces(g.rotation)[1])
    assert is_connected(g.base)
    cp = circle_pack(g)
    other = list(range(0, g.n, 3))
    h = with_boundary(g, other)
    assert h.base.interior == tuple(v for v in range(g.n) if v % 3)
    assert h.faces is faces
    assert h.dart_face is darts
    assert h.base.components is g.base.components
    assert laplacian(h) is laplacian(h.base)
    hp = circle_pack(h)
    assert hp.radii is cp.radii and hp.centers is cp.centers
    assert hp.boundary == tuple(other) and cp.boundary == g.boundary
    expected = spectrum_oracle(g.n, g.edges, other)[1]
    assert lambda_k(h, 2) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    # two disjoint octahedra: a boundary that misses the second component
    # still leaves L_II singular after the components were cached
    octa = octahedron()
    edges = list(octa.edges) + [(u + 6, v + 6) for u, v in octa.edges]
    rotation = list(octa.rotation) + [[w + 6 for w in r] for r in octa.rotation]
    g = build_rotation_graph(build_boundary_graph(12, edges, range(12)), rotation)
    assert not is_connected(g.base)
    assert g.base.interior == ()
    h = with_boundary(g, range(6))
    assert h.base.components is g.base.components
    with pytest.raises(SingularInterior, match="vertex 6 "):
        lambda_k(h, 2)


_DEFECTS = ("self-loop", "reversed duplicate", "vertex n", "vertex -1", "True", "1.0",
            "np.int32", "3-tuple", "empty boundary")


@st.composite
def _graph_input(draw):
    """A simple graph's edges, in any order and orientation, and a boundary,
    with at most one injected defect."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    boundary = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    defect = draw(st.sampled_from((None,) + _DEFECTS))
    vertex = draw(st.integers(0, n - 1))
    bad = {"self-loop": (vertex, vertex), "vertex n": n, "vertex -1": -1, "True": True,
           "1.0": float(vertex), "np.int32": np.int32(vertex), "3-tuple": (0, 0, 0)}
    in_boundary = draw(st.booleans())
    if defect == "empty boundary":
        boundary = []
    elif defect == "reversed duplicate" and edges:
        j = draw(st.integers(0, len(edges) - 1))
        edges.insert(draw(st.integers(j + 1, len(edges))), edges[j][::-1])
    elif defect in ("self-loop", "3-tuple"):
        edges.insert(draw(st.integers(0, len(edges))), bad[defect])
    elif defect in bad and in_boundary:
        boundary.insert(draw(st.integers(0, len(boundary))), bad[defect])
    elif defect in bad and edges:
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (bad[defect], edges[i][1]) if draw(st.booleans()) else (edges[i][0], bad[defect])
    return n, edges, boundary


def _outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_graph_input(), st.booleans())
def test_construction_matches_the_scalar_reference(case, as_array):
    n, edges, boundary = case
    if as_array and all(len(e) == 2 and not isinstance(x, (bool, float))
                        for e in edges for x in e):
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)

    def built():
        g = build_boundary_graph(n, edges, boundary)
        return g.edges, g.boundary, g.neighbors

    assert _outcome(built) == _outcome(lambda: reference_boundary_graph(n, edges, boundary))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_faces_match_the_reference_walk(seed):
    # random rings on a random connected graph: any genus, any face lengths
    rng = np.random.Generator(np.random.Philox(seed))
    n, edges = random_connected_graph(rng, n_max=25)
    g = build_boundary_graph(n, edges, [0])
    rotation = [rng.permutation(np.array(ring)).tolist() for ring in g.neighbors]
    rg = build_rotation_graph(g, rotation)
    faces, dart_face = reference_faces(rotation)
    assert rg.faces == faces
    assert rg.dart_face.tolist() == by_dart_id(rg, dart_face)
    assert_face_layout(rg, faces, dart_face)


def assert_face_layout(rg, faces, dart_face):
    """The face starts and lengths of ``rg``, its genus and its triangle
    check agree with the reference walk's ``faces`` and ``dart_face``."""
    labels = by_dart_id(rg, dart_face)
    starts = {}
    for d, f in enumerate(labels):
        starts.setdefault(f, d)
    assert rg._darts.first.tolist() == [starts[f] for f in range(len(faces))]
    assert rg._darts.size.tolist() == [len(f) for f in faces]
    assert genus(rg) == (2 - rg.n + len(rg.edges) - len(faces)) // 2
    assert is_fully_triangulated(rg) == all(len(f) == 3 for f in faces)


def test_one_long_face_matches_the_reference_walk():
    # a path on 20 000 shuffled vertices has one face of 39 998 darts, whose
    # lowest dart takes 16 doubling rounds to reach every dart
    n = 20_000
    order = np.random.Generator(np.random.Philox(7)).permutation(n)
    g = build_boundary_graph(n, np.stack((order[:-1], order[1:]), axis=1), [0])
    rg = build_rotation_graph(g, g.neighbors)
    faces, dart_face = reference_faces(g.neighbors)
    assert len(faces) == 1 and rg.faces == faces
    assert rg.dart_face.tolist() == by_dart_id(rg, dart_face)
    assert_face_layout(rg, faces, dart_face)


# sha256 of repr((edges, boundary, rotation, faces)): construction is fixed
# byte for byte, face order and start darts included.
@pytest.mark.parametrize("build,digest", [
    (lambda: gen_sphere(0), "4fd44e27906efc919d1a8a0bd768e1e49f4643175f78c911de56e10fc233c16c"),
    (lambda: gen_sphere(1), "9f4d205b42281ee3f71a7f7e82d726e1f1de33a3328bc24cb478ad5ed0423cd6"),
    (lambda: gen_sphere(2), "c5c4bc52eea72d3e5d610a6f99192ac5ad3d25913cbc046225051c62e1c8cf02"),
    (lambda: gen_sphere(3), "b945bfd7eb095ac71d02b3a6f2f0a3d36afab750e44683f678d083d4871da95b"),
    (lambda: gen_sphere(4), "7a27018da253f1a5f005944d1268bb7e1e93ca674be2642e4d9af52a9df0606c"),
    (lambda: gen_torus(7, 9), "709ea5de8016be85b2b7f85701b9b7ff7fa246fe5137127fd0907663a6d176e9"),
    (lambda: gen_genus(3, 6), "9feef80bb2d45a36e56f3dbb3eb3765ad1322b2b50577143388684d61c7e6b9b"),
    (lambda: refine(octahedron(), None, 2).graph,
     "aaad57803129b1e1586e3ed8959f2ccc873a6d366db3f24bb77b7da58deddcfa"),
], ids=["sphere0", "sphere1", "sphere2", "sphere3", "sphere4", "torus7x9", "genus3r6",
        "octahedron_k2"])
def test_construction_outputs_are_pinned(build, digest):
    g = build()
    text = repr((g.edges, g.boundary, g.rotation, g.faces))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
