"""Graph construction, validation, face tracing, and genus."""

import pickle
import sys

import numpy as np
import pytest
import scipy.sparse

from steklov import (
    Disconnected,
    DuplicateEdge,
    EmptyBoundary,
    IndexOutOfRange,
    MalformedRotation,
    RotationGraph,
    SelfLoop,
    SingularInterior,
    build_boundary_graph,
    build_rotation_graph,
    certify_planar_bound,
    chain_bound,
    gen_sphere,
    genus,
    is_connected,
    is_fully_triangulated,
    lambda_k,
    laplacian,
    octahedron,
    sweep_main_bound,
    trace_faces,
    with_boundary,
)

from helpers import dense_laplacian, spectrum_oracle


def k4():
    return build_boundary_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)],
                                 [0, 1, 2, 3])


def k4_rotation():
    # neighbour rings of the tetrahedron oriented consistently
    return build_rotation_graph(k4(), [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


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


@pytest.mark.parametrize("run", [
    lambda: gen_sphere(3),
    lambda: sweep_main_bound(3, 10),
    lambda: chain_bound(octahedron(), None, 2),
    _half_sphere_certificate,
], ids=["gen_sphere", "sweep", "chain_bound", "certify_planar"])
def test_faces_are_walked_once_per_build(run, monkeypatch):
    # Every build traces its faces once, in the Euler-parity check; nothing
    # else walks them again, with_boundary copies included.
    calls = {"walk": 0, "build": 0}
    walk = RotationGraph.__dict__["faces"]
    original_walk = walk.func

    def counted_walk(rg):
        calls["walk"] += 1
        return original_walk(rg)

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build_rotation_graph(*args, **kwargs)

    monkeypatch.setattr(walk, "func", counted_walk)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "steklov" and \
                getattr(module, "build_rotation_graph", None) is build_rotation_graph:
            monkeypatch.setattr(module, "build_rotation_graph", counted_build)
    run()
    assert calls["build"] > 0
    assert calls["walk"] == calls["build"]


def test_trace_faces_reads_the_build_trace():
    rg = k4_rotation()
    assert trace_faces(rg) is rg.faces
    assert dict(rg.dart_face) == {
        (f[i], f[(i + 1) % len(f)]): fi for fi, f in enumerate(rg.faces)
        for i in range(len(f))}
    with pytest.raises(TypeError):
        rg.dart_face[(0, 1)] = 0
    # the read-only view is dropped from the pickle and rebuilt on demand
    copy = pickle.loads(pickle.dumps(rg))
    assert copy == rg and copy.faces == rg.faces and copy.dart_face == rg.dart_face


def test_with_boundary_carries_boundary_free_caches():
    g = gen_sphere(1)
    assert g.base.interior == ()
    faces, darts = g.faces, g.dart_face
    assert is_connected(g.base)
    other = list(range(0, g.n, 3))
    h = with_boundary(g, other)
    assert h.base.interior == tuple(v for v in range(g.n) if v % 3)
    assert h.faces is faces
    assert h.dart_face is darts
    assert h.base.components is g.base.components
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
